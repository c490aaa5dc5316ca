/**
 * @file
 * Load generator and correctness harness for the scheduling service:
 * sustained schedules/sec, cold vs warm, with per-phase latency.
 *
 * Builds a mixed request stream (builtin suites plus a `gen:` suite,
 * two machines, rmca plus a few verify-backend requests), partitions
 * it across N in-process protocol sessions (one per simulated client,
 * each on its own thread), and drives the same SchedService through
 * R rounds: round 0 is cold (every key misses), rounds 1+ are warm
 * (round 1 hits the canonical cache, rounds 2+ resolve in the
 * zero-parse raw lane, since round 1's byte-identical payloads were
 * published there after round 0 computed them... in fact round 1
 * already raw-hits: the cold round primed both lanes).
 *
 * Frames are fed to each session one at a time so latency splits by
 * phase, client-side:
 *
 *   queue     consuming one REQ frame — raw-lane probe, or parse on
 *             a raw miss
 *   schedule  consuming a FLUSH — batch scheduling plus rendering
 *             the REP burst into the session's output buffer
 *   flush     draining the emitted bytes back out of the session
 *             (one sample per client per round)
 *
 * and per-request latency is queue time plus an amortised share of
 * the batch's schedule time. Histograms are kept separately for the
 * cold round and the warm rounds — a mixed histogram lets the cold
 * tail masquerade as warm jitter, which is exactly how the old
 * p99 looked 14x worse than the warm path really is.
 *
 * What it asserts, independent of what it measures:
 *
 *  - every warm reply is byte-identical to the cold reply of the same
 *    request — neither cache lane is visible in the bytes;
 *  - with --check, every service reply is byte-identical to an
 *    offline pipeline that parses the same payload and schedules it
 *    directly (no service, no cache, fresh DDG and locality) — the
 *    batched path adds nothing and loses nothing;
 *  - with --gate, warm throughput must be >= 5x cold throughput and
 *    warm per-request p99 must be <= 500 us (the CI bars).
 *
 * Prints one machine-readable summary line:
 *
 *   serve jobs=J clients=C requests=N rounds=R cold_sps=X warm_sps=Y
 *         speedup=S hit_rate=H raw_hit_rate=RH p50_us=A p99_us=B
 *         warm_p50_us=WA warm_p99_us=WB fingerprint=0x...
 *
 * plus one `serve_phase round=<cold|warm> phase=<queue|schedule|flush>
 * p50_us=... p99_us=... mean_us=...` line per round/phase pair, and —
 * with --sessions L1,L2,... — one
 * `serve_scale sessions=S warm_sps=Y p99_us=B` line per requested
 * session count, measured against the already-warm service.
 *
 * The fingerprint folds every cold reply payload in request order, so
 * a service change that alters any reply byte changes it.
 *
 * Usage: serve_bench [--jobs N] [--clients N] [--rounds N] [--check]
 *                    [--gate] [--sessions LIST] [--dump-requests FILE]
 *
 * --dump-requests writes the framed request stream (batches, FLUSH,
 * QUIT) to FILE and exits — CI pipes it into mvp_served to exercise
 * the stdio transport and warm-state persistence end to end.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "cme/provider.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "ddg/ddg.hh"
#include "harness/flags.hh"
#include "machine/presets.hh"
#include "sched/backend.hh"
#include "svc/protocol.hh"
#include "svc/service.hh"
#include "svc/session.hh"
#include "text/format.hh"
#include "workloads/workloads.hh"

using namespace mvp;

namespace
{

constexpr std::size_t BATCH_SIZE = 8;
constexpr double WARM_P99_GATE_US = 500.0;

/** One benchmark request: the raw payload plus its frame id. */
struct BenchRequest
{
    std::string id;
    std::string payload;
};

/** The mixed workload: every loop of three builtin suites and one
 * generated suite on two machines under rmca, plus verify-backend
 * requests for the first tomcatv loops (so the cold round pays real
 * exact-search time, like a client asking for certificates). */
std::vector<BenchRequest>
buildRequests()
{
    const char *suites[] = {"tomcatv", "swim", "hydro2d",
                            "gen:seed=11,loops=4"};
    const MachineConfig machines[] = {makeTwoCluster(),
                                      makeFourCluster()};

    std::vector<BenchRequest> out;
    int next_id = 0;
    for (const char *suite : suites) {
        const auto bench = workloads::benchmarkByName(suite);
        for (const auto &nest : bench.loops) {
            for (const auto &machine : machines) {
                text::ScenarioText scenario{nest, machine};
                BenchRequest req;
                req.id = "r" + std::to_string(next_id++);
                req.payload = "# serve_bench request\n"
                              "config backend rmca\n"
                              "config threshold 0.25\n\n";
                req.payload += text::printScenario(scenario);
                out.push_back(std::move(req));
            }
        }
    }

    const auto tomcatv = workloads::benchmarkByName("tomcatv");
    const std::size_t n_verify =
        tomcatv.loops.size() < 2 ? tomcatv.loops.size() : 2;
    for (std::size_t i = 0; i < n_verify; ++i) {
        for (const auto &machine : machines) {
            text::ScenarioText scenario{tomcatv.loops[i], machine};
            BenchRequest req;
            req.id = "r" + std::to_string(next_id++);
            req.payload = "config backend verify\n"
                          "config threshold 0.25\n\n";
            req.payload += text::printScenario(scenario);
            out.push_back(std::move(req));
        }
    }
    return out;
}

/** Frame a request list into one protocol byte stream: batches of
 * @p batch_size, each closed by FLUSH (the --dump-requests shape). */
std::string
frameRequests(const std::vector<const BenchRequest *> &requests,
              std::size_t batch_size)
{
    std::string out;
    std::size_t in_batch = 0;
    for (const BenchRequest *req : requests) {
        out += "REQ " + req->id + " " +
               std::to_string(req->payload.size()) + "\n";
        out += req->payload;
        out += "\n";
        if (++in_batch == batch_size) {
            out += "FLUSH\n";
            in_batch = 0;
        }
    }
    if (in_batch > 0)
        out += "FLUSH\n";
    return out;
}

/** One client's frame list: each element is fed to the session in one
 * consume() call so the bench can time it. batch[i] is the number of
 * REQs a FLUSH frame serves (0 for REQ frames). */
struct ClientFrames
{
    std::vector<std::string> frames;
    std::vector<std::size_t> batch;
};

ClientFrames
splitFrames(const std::vector<const BenchRequest *> &requests,
            std::size_t batch_size)
{
    ClientFrames out;
    std::size_t in_batch = 0;
    for (const BenchRequest *req : requests) {
        out.frames.push_back("REQ " + req->id + " " +
                             std::to_string(req->payload.size()) +
                             "\n" + req->payload + "\n");
        out.batch.push_back(0);
        if (++in_batch == batch_size) {
            out.frames.push_back("FLUSH\n");
            out.batch.push_back(in_batch);
            in_batch = 0;
        }
    }
    if (in_batch > 0) {
        out.frames.push_back("FLUSH\n");
        out.batch.push_back(in_batch);
    }
    return out;
}

/** Parse REP frames out of a session's emitted bytes. Exits loudly on
 * anything that is not a REP — the bench speaks the protocol
 * correctly, so an ERR here is a real bug. */
void
collectReplies(const std::string &emitted,
               std::map<std::string, std::string> &replies)
{
    std::size_t pos = 0;
    while (pos < emitted.size()) {
        const std::size_t eol = emitted.find('\n', pos);
        if (eol == std::string::npos)
            mvp_fatal("serve_bench: truncated frame header");
        const std::string head = emitted.substr(pos, eol - pos);
        std::size_t sp1 = head.find(' ');
        std::size_t sp2 =
            sp1 == std::string::npos ? sp1 : head.find(' ', sp1 + 1);
        if (head.compare(0, 4, "REP ") != 0 ||
            sp2 == std::string::npos)
            mvp_fatal("serve_bench: unexpected frame '", head, "'");
        const std::string id = head.substr(sp1 + 1, sp2 - sp1 - 1);
        const std::size_t nbytes = static_cast<std::size_t>(
            std::strtoll(head.c_str() + sp2 + 1, nullptr, 10));
        const std::size_t body = eol + 1;
        if (body + nbytes + 1 > emitted.size())
            mvp_fatal("serve_bench: truncated REP payload");
        replies[id] = emitted.substr(body, nbytes);
        pos = body + nbytes + 1;   // payload newline
    }
}

/** Client-side timing of one round: phase samples in microseconds. */
struct RoundResult
{
    double seconds = 0.0;
    std::map<std::string, std::string> replies;
    std::vector<double> queue_us;     ///< one per REQ frame
    std::vector<double> sched_us;     ///< one per FLUSH frame
    std::vector<double> flush_us;     ///< one per client (drain)
    std::vector<double> per_req_us;   ///< queue + amortised schedule
};

/** Run one round: every client session on its own thread, frames fed
 * one consume() at a time so each phase is timed. */
RoundResult
runRound(svc::SchedService &service,
         const std::vector<ClientFrames> &clients)
{
    const std::size_t n = clients.size();
    std::vector<RoundResult> per_client(n);
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (std::size_t c = 0; c < n; ++c)
        threads.emplace_back([&service, &clients, &per_client, c] {
            const ClientFrames &cf = clients[c];
            RoundResult &r = per_client[c];
            svc::ServiceSession session(service);
            std::string emitted;
            std::vector<double> batch_queue;
            for (std::size_t f = 0; f < cf.frames.size(); ++f) {
                const auto t0 = std::chrono::steady_clock::now();
                session.consume(cf.frames[f], emitted);
                const double us =
                    std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
                if (cf.batch[f] == 0) {
                    r.queue_us.push_back(us);
                    batch_queue.push_back(us);
                } else {
                    r.sched_us.push_back(us);
                    const double share =
                        us / static_cast<double>(cf.batch[f]);
                    for (const double q : batch_queue)
                        r.per_req_us.push_back(q + share);
                    batch_queue.clear();
                }
            }
            const auto t0 = std::chrono::steady_clock::now();
            collectReplies(emitted, r.replies);
            r.flush_us.push_back(
                std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
        });
    for (auto &t : threads)
        t.join();

    RoundResult merged;
    merged.seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    for (RoundResult &r : per_client) {
        merged.replies.insert(r.replies.begin(), r.replies.end());
        auto append = [](std::vector<double> &dst,
                         std::vector<double> &src) {
            dst.insert(dst.end(), src.begin(), src.end());
        };
        append(merged.queue_us, r.queue_us);
        append(merged.sched_us, r.sched_us);
        append(merged.flush_us, r.flush_us);
        append(merged.per_req_us, r.per_req_us);
    }
    return merged;
}

/** Exact percentile of a sample vector (copy sorts; samples are few). */
double
pct(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = lo + 1 < v.size() ? lo + 1 : lo;
    const double frac = rank - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double sum = 0.0;
    for (const double x : v)
        sum += x;
    return sum / static_cast<double>(v.size());
}

void
printPhase(const char *round, const char *phase,
           const std::vector<double> &samples)
{
    std::printf("serve_phase round=%s phase=%s p50_us=%.1f "
                "p99_us=%.1f mean_us=%.1f\n",
                round, phase, pct(samples, 50.0), pct(samples, 99.0),
                mean(samples));
}

/** Partition requests round-robin across @p n sessions. */
std::vector<ClientFrames>
partition(const std::vector<BenchRequest> &requests, std::size_t n)
{
    std::vector<ClientFrames> out;
    out.reserve(n);
    for (std::size_t c = 0; c < n; ++c) {
        std::vector<const BenchRequest *> mine;
        for (std::size_t i = c; i < requests.size(); i += n)
            mine.push_back(&requests[i]);
        out.push_back(splitFrames(mine, BATCH_SIZE));
    }
    return out;
}

/** The offline pipeline: parse the payload and schedule it directly —
 * no service, no cache, fresh DDG and locality — rendering the reply
 * through the same functions. This is what the service's replies must
 * match byte for byte. */
std::string
offlineReply(const std::string &payload)
{
    svc::Request req = svc::parseRequest(payload, "<offline>");
    if (!req.error.empty())
        return svc::renderErrorReply(req.error);
    const auto graph =
        ddg::Ddg::build(req.scenario.loop, req.scenario.machine);
    const auto locality = cme::LocalityRegistry::instance().bind(
        req.options.locality, req.scenario.loop);
    sched::SchedulerOptions opt;
    opt.missThreshold = req.options.threshold;
    opt.locality = locality.get();
    opt.localityProvider = req.options.locality;
    opt.searchBudget = req.options.nodeBudget;
    opt.timeBudgetMs = req.options.timeBudgetMs;
    opt.exactBackend = req.options.exactBackend;
    const auto result = sched::scheduleWithBackend(
        req.options.backend, graph, req.scenario.machine, opt);
    if (!result.ok)
        return svc::renderErrorReply(result.error);
    return svc::renderReply(req, result);
}

} // namespace

int
main(int argc, char **argv)
{
    harness::parseObservabilityFlags(argc, argv);
    const int jobs = harness::parseJobsFlag(argc, argv);

    int clients = 4;
    int rounds = 3;
    bool check = false;
    bool gate = false;
    harness::stripIntegerFlag(argc, argv, "--clients", "client count",
                              clients);
    harness::stripIntegerFlag(argc, argv, "--rounds", "round count",
                              rounds);
    const std::string dump = harness::stripValueFlag(
        argc, argv, "--dump-requests", "output file");
    const std::string sessions_s = harness::stripValueFlag(
        argc, argv, "--sessions", "session-count list");
    check = harness::stripBoolFlag(argc, argv, "--check");
    gate = harness::stripBoolFlag(argc, argv, "--gate");
    harness::rejectUnknownFlags(argc, argv,
                                {"--jobs", "--clients", "--rounds",
                                 "--check", "--gate", "--sessions",
                                 "--dump-requests", "--log-level",
                                 "--metrics", "--trace"});
    if (clients < 1 || rounds < 2)
        mvp_fatal("serve_bench wants --clients >= 1 and --rounds >= 2 "
                  "(one cold round plus warm rounds)");

    std::vector<std::size_t> scale_sessions;
    for (std::size_t pos = 0; pos < sessions_s.size();) {
        const std::size_t comma = sessions_s.find(',', pos);
        const std::string tok = sessions_s.substr(
            pos, comma == std::string::npos ? comma : comma - pos);
        const int v = harness::parseInteger<int>(tok, "--sessions");
        if (v < 1)
            mvp_fatal("--sessions wants positive counts, got '", tok,
                      "'");
        scale_sessions.push_back(static_cast<std::size_t>(v));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }

    const std::vector<BenchRequest> requests = buildRequests();

    if (!dump.empty()) {
        std::vector<const BenchRequest *> all;
        for (const auto &req : requests)
            all.push_back(&req);
        std::ofstream out(dump, std::ios::binary | std::ios::trunc);
        if (!out)
            mvp_fatal("cannot write '", dump, "'");
        const std::string stream =
            frameRequests(all, BATCH_SIZE) + "QUIT\n";
        out.write(stream.data(),
                  static_cast<std::streamsize>(stream.size()));
        std::printf("dumped %zu requests to %s\n", requests.size(),
                    dump.c_str());
        return 0;
    }

    svc::SchedService service(jobs);

    // Partition requests across clients once; every round replays the
    // same per-client frame lists.
    const std::vector<ClientFrames> client_frames =
        partition(requests, static_cast<std::size_t>(clients));

    std::map<std::string, std::string> cold_replies;
    double cold_sps = 0.0;
    double warm_seconds = 0.0;
    std::int64_t warm_requests = 0;
    RoundResult cold;
    RoundResult warm;   // phase samples accumulated over warm rounds

    for (int round = 0; round < rounds; ++round) {
        RoundResult r = runRound(service, client_frames);
        if (r.replies.size() != requests.size())
            mvp_fatal("round ", round, " returned ", r.replies.size(),
                      " replies for ", requests.size(), " requests");
        if (round == 0) {
            cold_sps =
                static_cast<double>(requests.size()) / r.seconds;
            cold = std::move(r);
            cold_replies = cold.replies;
        } else {
            for (const auto &[id, payload] : r.replies)
                if (payload != cold_replies.at(id))
                    mvp_fatal("warm reply for ", id,
                              " differs from its cold reply — the "
                              "cache leaked into the bytes");
            warm_seconds += r.seconds;
            warm_requests +=
                static_cast<std::int64_t>(requests.size());
            auto append = [](std::vector<double> &dst,
                             const std::vector<double> &src) {
                dst.insert(dst.end(), src.begin(), src.end());
            };
            append(warm.queue_us, r.queue_us);
            append(warm.sched_us, r.sched_us);
            append(warm.flush_us, r.flush_us);
            append(warm.per_req_us, r.per_req_us);
        }
    }

    if (check) {
        for (const auto &req : requests)
            if (offlineReply(req.payload) != cold_replies.at(req.id))
                mvp_fatal("service reply for ", req.id,
                          " differs from the offline pipeline");
        std::printf("check: %zu replies match the offline pipeline\n",
                    requests.size());
    }

    std::string fold;
    for (const auto &req : requests)
        fold += cold_replies.at(req.id);
    const std::uint64_t fingerprint = fnv1a(fold);

    const double warm_sps =
        warm_seconds > 0.0
            ? static_cast<double>(warm_requests) / warm_seconds
            : 0.0;
    const double speedup = cold_sps > 0.0 ? warm_sps / cold_sps : 0.0;
    const auto st = service.stats();
    const double hit_rate =
        st.requests > 0 ? static_cast<double>(st.cacheHits) /
                              static_cast<double>(st.requests)
                        : 0.0;
    const double raw_hit_rate =
        st.requests > 0 ? static_cast<double>(st.rawHits) /
                              static_cast<double>(st.requests)
                        : 0.0;
    const double warm_p50 = pct(warm.per_req_us, 50.0);
    const double warm_p99 = pct(warm.per_req_us, 99.0);

    std::printf("serve jobs=%d clients=%d requests=%zu rounds=%d "
                "cold_sps=%.1f warm_sps=%.1f speedup=%.1f "
                "hit_rate=%.3f raw_hit_rate=%.3f "
                "p50_us=%.1f p99_us=%.1f "
                "warm_p50_us=%.1f warm_p99_us=%.1f "
                "fingerprint=0x%016llx\n",
                service.jobs(), clients, requests.size(), rounds,
                cold_sps, warm_sps, speedup, hit_rate, raw_hit_rate,
                st.latencyP50Us, st.latencyP99Us, warm_p50, warm_p99,
                static_cast<unsigned long long>(fingerprint));

    printPhase("cold", "queue", cold.queue_us);
    printPhase("cold", "schedule", cold.sched_us);
    printPhase("cold", "flush", cold.flush_us);
    printPhase("warm", "queue", warm.queue_us);
    printPhase("warm", "schedule", warm.sched_us);
    printPhase("warm", "flush", warm.flush_us);

    // Scaling sweep against the now-warm service: how does warm
    // throughput hold up as session counts grow?
    for (const std::size_t s : scale_sessions) {
        const auto frames = partition(requests, s);
        RoundResult r = runRound(service, frames);
        if (r.replies.size() != requests.size())
            mvp_fatal("scale round at ", s, " sessions returned ",
                      r.replies.size(), " replies");
        for (const auto &[id, payload] : r.replies)
            if (payload != cold_replies.at(id))
                mvp_fatal("scale reply for ", id,
                          " differs from its cold reply");
        std::printf("serve_scale sessions=%zu warm_sps=%.1f "
                    "p99_us=%.1f\n",
                    s,
                    static_cast<double>(requests.size()) / r.seconds,
                    pct(r.per_req_us, 99.0));
    }

    bool failed = false;
    if (gate && speedup < 5.0) {
        std::fprintf(stderr,
                     "serve_bench: warm/cold speedup %.1f is below "
                     "the 5x gate\n",
                     speedup);
        failed = true;
    }
    if (gate && warm_p99 > WARM_P99_GATE_US) {
        std::fprintf(stderr,
                     "serve_bench: warm per-request p99 %.1f us is "
                     "above the %.0f us gate\n",
                     warm_p99, WARM_P99_GATE_US);
        failed = true;
    }
    return failed ? 1 : 0;
}
