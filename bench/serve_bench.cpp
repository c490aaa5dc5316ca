/**
 * @file
 * Correctness check of the scheduling service on a fixed request
 * stream: 36 mixed requests (three builtin suites plus a `gen:` suite
 * on two machines under rmca, and four verify-backend requests).
 *
 * Two in-process protocol sessions (one per client thread, the
 * requests split round-robin between them) each feed their whole
 * framed stream to the same SchedService in one consume() call, over
 * two rounds: a cold round, where every request is computed, and a
 * warm round, which must answer every request from the zero-parse raw
 * lane. It fails unless
 *
 *  - every warm reply is byte-identical to the cold reply of the same
 *    request — neither cache lane is visible in the bytes;
 *  - every cold reply is byte-identical to an offline pipeline that
 *    parses the same payload and schedules it directly (no service, no
 *    cache, fresh DDG and locality) — the batched path adds nothing and
 *    loses nothing;
 *  - ServiceStats counts exactly 36 raw-lane hits: the warm round
 *    parsed nothing.
 *
 * It times nothing: perfbench's `serve` workload measures the service.
 * On success it prints
 *
 *   serve jobs=J requests=36 raw_hits=36 fingerprint=0x...
 *
 * The fingerprint folds every cold reply payload in request order, so
 * a service change that alters any reply byte changes it.
 *
 * Usage: serve_bench [--jobs N] [--dump-requests FILE]
 *
 * --dump-requests writes the framed request stream (batches, FLUSH,
 * QUIT) to FILE and exits — CI pipes it into mvp_served to exercise
 * the stdio transport and warm-state persistence end to end.
 */

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
constexpr std::size_t CLIENTS = 2;

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
                req.id = strprintf("r%d", next_id++);
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
            req.id = strprintf("r%d", next_id++);
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

/** One round: each client's framed stream goes to its own session on
 * its own thread, in one consume() call; returns the replies by id. */
std::map<std::string, std::string>
runRound(svc::SchedService &service,
         const std::vector<std::string> &streams)
{
    std::vector<std::map<std::string, std::string>> per_client(
        streams.size());
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < streams.size(); ++c)
        threads.emplace_back([&service, &streams, &per_client, c] {
            svc::ServiceSession session(service);
            std::string emitted;
            session.consume(streams[c], emitted);
            collectReplies(emitted, per_client[c]);
        });
    for (auto &t : threads)
        t.join();
    std::map<std::string, std::string> replies;
    for (const auto &r : per_client)
        replies.insert(r.begin(), r.end());
    return replies;
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
    const std::string dump = harness::stripValueFlag(
        argc, argv, "--dump-requests", "output file");
    harness::rejectUnknownFlags(argc, argv,
                                {"--jobs", "--dump-requests",
                                 "--log-level", "--metrics", "--trace"});

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

    // Split the requests round-robin between the clients once; both
    // rounds replay the same streams.
    std::vector<std::string> streams;
    for (std::size_t c = 0; c < CLIENTS; ++c) {
        std::vector<const BenchRequest *> mine;
        for (std::size_t i = c; i < requests.size(); i += CLIENTS)
            mine.push_back(&requests[i]);
        streams.push_back(frameRequests(mine, BATCH_SIZE));
    }

    svc::SchedService service(jobs);
    const auto cold = runRound(service, streams);
    const auto warm = runRound(service, streams);
    if (cold.size() != requests.size() || warm.size() != requests.size())
        mvp_fatal("rounds returned ", cold.size(), " and ", warm.size(),
                  " replies for ", requests.size(), " requests");

    std::string fold;
    for (const auto &req : requests) {
        const std::string &reply = cold.at(req.id);
        if (warm.at(req.id) != reply)
            mvp_fatal("warm reply for ", req.id,
                      " differs from its cold reply — the cache leaked "
                      "into the bytes");
        if (offlineReply(req.payload) != reply)
            mvp_fatal("service reply for ", req.id,
                      " differs from the offline pipeline");
        fold += reply;
    }

    const svc::ServiceStats st = service.stats();
    const auto want = static_cast<std::int64_t>(requests.size());
    if (st.rawHits != want)
        mvp_fatal("the warm round made ", st.rawHits, " raw-lane hits for ",
                  want, " requests");

    std::printf("serve jobs=%d requests=%zu raw_hits=%lld "
                "fingerprint=0x%016llx\n",
                service.jobs(), requests.size(),
                static_cast<long long>(st.rawHits),
                static_cast<unsigned long long>(fnv1a(fold)));
    return 0;
}
