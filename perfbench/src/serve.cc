/**
 * @file
 * The `serve` workload: two in-process ServiceSession clients, each on
 * its own thread, send batches of 8 REQ frames followed by FLUSH to
 * one SchedService with 2 pool workers (no TCP, so the run needs no
 * ports). It is the only workload that runs text and svc code; its
 * cold requests run ddg, cme and rmca but never sim.
 *
 * The cold requests are the traffic the repository's own clients send:
 * every builtin loop plus a 4-loop `gen:` suite (serve_bench's mix),
 * each on the 2- and 4-cluster presets under rmca at the Table-1
 * thresholds. A cold batch is one loop's 8 requests, so 32 of the 36
 * cold batches are the same for every seed. The seed picks the `gen:`
 * suite, deals the loops to the clients and orders everything. Each
 * client sends 18
 * cold batches, 40 replay batches (byte-identical repeats of earlier
 * requests: the raw lane) and 14 parse batches (7 textual variants of
 * earlier requests — comments, whitespace, option and block order —
 * which parse, canonicalise and hit the cache, plus 1 malformed
 * payload: the error path). Batches are homogeneous so that a warm
 * request never waits behind a cold one in its own batch; it may still
 * wait behind the other client's batch, as it would on a real service.
 *
 * Each pass replays the whole stream on a fresh service, so cold
 * requests are cold in every pass.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <random>
#include <thread>
#include <unordered_map>

#include "bench.hh"
#include "cme/provider.hh"
#include "common/strutil.hh"
#include "ddg/ddg.hh"
#include "gen/generator.hh"
#include "machine/presets.hh"
#include "sched/backend.hh"
#include "svc/protocol.hh"
#include "svc/service.hh"
#include "svc/session.hh"
#include "text/format.hh"
#include "workloads/workloads.hh"

namespace perfbench
{
namespace
{

using namespace mvp;

constexpr int CLIENTS = 2;
constexpr int POOL_WORKERS = 2;
constexpr std::size_t BATCH = 8;
const char *const THRESHOLDS[] = {"1", "0.75", "0.25", "0"};

enum class Kind { Cold, Replay, Variant, Malformed };
enum class BatchKind { Cold, Replay, Parse };

struct Request
{
    Kind kind = Kind::Cold;
    std::int64_t origin = -1;   ///< the cold request whose reply it repeats
    std::string id;
    std::string payload;
    std::string frame;
    std::string loopText;       ///< cold requests: for variants
    std::string machineText;
    std::string threshold;
};

struct Batch
{
    BatchKind kind = BatchKind::Cold;
    std::vector<std::int64_t> reqs;
};

struct Stream
{
    std::vector<Request> reqs;
    std::vector<Batch> batches;
    std::vector<std::int64_t> clientBatches[CLIENTS];
    std::unordered_map<std::string, std::int64_t> byId;
};

std::int64_t
addRequest(Stream &s, Request r, int client)
{
    const auto id = static_cast<std::int64_t>(s.reqs.size());
    r.id = strprintf("c%d.%lld", client, static_cast<long long>(id));
    r.frame = "REQ " + r.id + " " + std::to_string(r.payload.size()) + "\n" +
              r.payload + "\n";
    if (r.origin < 0)
        r.origin = id;
    s.byId.emplace(r.id, id);
    s.reqs.push_back(std::move(r));
    return id;
}

/**
 * Every cold batch, in seeded order: one per loop — the builtin loops
 * and a 4-loop `gen:` suite — holding that loop on both cluster
 * presets at every threshold, like a client sweeping one loop.
 * @p smoke keeps one loop in eight.
 */
std::vector<std::vector<Request>>
coldCorpus(std::uint64_t seed, bool smoke, bool traced)
{
    std::vector<ir::LoopNest> loops;
    for (auto &bench : workloads::resolveWorkloads({}))
        for (auto &nest : bench.loops)
            loops.push_back(std::move(nest));
    {
        std::optional<Scope> span;
        if (traced)
            span.emplace(SpanKind::GenScenario);
        auto gen = workloads::benchmarkByName(
            strprintf("gen:seed=%llu,loops=4",
                      static_cast<unsigned long long>(seed)));
        for (auto &nest : gen.loops)
            loops.push_back(std::move(nest));
    }
    std::optional<Scope> span;
    if (traced)
        span.emplace(SpanKind::TextPrint);
    std::vector<std::vector<Request>> out;
    for (const std::size_t l : permutation(loops.size(), seed)) {
        if (smoke && l % 8 != 0)
            continue;
        std::vector<Request> batch;
        for (const MachineConfig &machine :
             {makeTwoCluster(), makeFourCluster()})
            for (const char *threshold : THRESHOLDS) {
                Request r;
                r.loopText = text::printLoop(loops[l]);
                r.machineText = text::printMachine(machine);
                r.threshold = threshold;
                r.payload = "config backend rmca\nconfig threshold " +
                            r.threshold + "\n\n" +
                            text::printScenario({loops[l], machine});
                batch.push_back(std::move(r));
            }
        out.push_back(std::move(batch));
    }
    return out;
}

/** Same canonical request, different bytes: a unique comment, option
 * order, a redundant default, extra blanks, machine block first. */
Request
variantOf(const Request &cold, const std::string &tag)
{
    Request r;
    r.kind = Kind::Variant;
    r.payload = "# variant " + tag + "\nconfig locality cme\n" +
                "config   threshold   " + cold.threshold +
                "\n\nconfig backend rmca\n\n" + cold.machineText + "\n# " +
                tag + "\n\n" + cold.loopText;
    return r;
}

Request
malformed(const Request &cold, const std::string &tag, int which)
{
    Request r;
    r.kind = Kind::Malformed;
    if (which == 0)
        r.payload = "config backend rmca\n\nloop \"broken" + tag + "\" {\n";
    else if (which == 1)
        r.payload = "config threshold high-" + tag + "\n\n" + cold.loopText +
                    "\n" + cold.machineText;
    else
        r.payload = "this is not a request " + tag + "\n";
    return r;
}

/**
 * The cold batches dealt alternately to the clients; per 9 cold
 * batches a client also sends 20 replay and 7 parse batches, in seeded
 * order after its first cold batch.
 */
Stream
buildStream(std::uint64_t seed, bool smoke, bool traced)
{
    const std::vector<std::vector<Request>> corpus =
        coldCorpus(seed, smoke, traced);
    Stream s;
    for (int c = 0; c < CLIENTS; ++c) {
        std::mt19937_64 rng(gen::deriveSeed(seed, 1000 + c));
        std::vector<const std::vector<Request> *> mine;
        for (std::size_t i = static_cast<std::size_t>(c); i < corpus.size();
             i += CLIENTS)
            mine.push_back(&corpus[i]);
        const std::size_t cold_batches = mine.size();
        std::vector<BatchKind> kinds(cold_batches, BatchKind::Cold);
        kinds.insert(kinds.end(), (cold_batches * 20 + 4) / 9,
                     BatchKind::Replay);
        kinds.insert(kinds.end(), (cold_batches * 7 + 4) / 9,
                     BatchKind::Parse);
        // Replays and variants need an earlier cold batch.
        for (std::size_t i = kinds.size(); i > 2; --i)
            std::swap(kinds[i - 1], kinds[1 + rng() % (i - 1)]);

        std::vector<std::int64_t> served;   // cold + variants, earlier batches
        std::vector<std::int64_t> colds;
        std::size_t next_cold = 0;
        for (const BatchKind kind : kinds) {
            Batch batch;
            batch.kind = kind;
            const std::size_t bad = rng() % BATCH;
            for (std::size_t j = 0; j < BATCH; ++j) {
                const std::string tag = strprintf("%d.%zu", c, s.reqs.size());
                Request r;
                if (kind == BatchKind::Cold) {
                    r = (*mine[next_cold])[j];
                } else if (kind == BatchKind::Replay) {
                    const Request &e = s.reqs[static_cast<std::size_t>(
                        served[rng() % served.size()])];
                    r.kind = Kind::Replay;
                    r.origin = e.origin;
                    r.payload = e.payload;
                } else {
                    const std::int64_t o = colds[rng() % colds.size()];
                    const Request &cold = s.reqs[static_cast<std::size_t>(o)];
                    r = j == bad ? malformed(cold, tag,
                                             static_cast<int>(rng() % 3))
                                 : variantOf(cold, tag);
                    if (r.kind == Kind::Variant)
                        r.origin = o;
                }
                batch.reqs.push_back(addRequest(s, std::move(r), c));
            }
            for (const std::int64_t id : batch.reqs) {
                const Kind k = s.reqs[static_cast<std::size_t>(id)].kind;
                if (k == Kind::Cold)
                    colds.push_back(id);
                if (k == Kind::Cold || k == Kind::Variant)
                    served.push_back(id);
            }
            next_cold += kind == BatchKind::Cold ? 1 : 0;
            s.clientBatches[c].push_back(
                static_cast<std::int64_t>(s.batches.size()));
            s.batches.push_back(std::move(batch));
        }
    }
    return s;
}

/** REP frames of one session's output, by request index; false on any
 * other frame. */
bool
collectReplies(const std::string &emitted, const Stream &s,
               std::vector<std::string> &replies)
{
    std::size_t pos = 0;
    while (pos < emitted.size()) {
        const std::size_t eol = emitted.find('\n', pos);
        if (eol == std::string::npos || emitted.compare(pos, 4, "REP ") != 0)
            return false;
        const std::size_t sp = emitted.find(' ', pos + 4);
        if (sp == std::string::npos || sp > eol)
            return false;
        const auto it = s.byId.find(emitted.substr(pos + 4, sp - pos - 4));
        const std::size_t n =
            std::strtoull(emitted.c_str() + sp + 1, nullptr, 10);
        if (it == s.byId.end() || eol + 1 + n + 1 > emitted.size())
            return false;
        replies[static_cast<std::size_t>(it->second)] =
            emitted.substr(eol + 1, n);
        pos = eol + 1 + n + 1;
    }
    return true;
}

/** The `ii` field of an ok reply, 0 when absent. */
std::int64_t
replyII(const std::string &reply)
{
    const std::size_t at = reply.find("\nii ");
    return at == std::string::npos
               ? 0
               : std::strtoll(reply.c_str() + at + 4, nullptr, 10);
}

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

/** serve_bench's offline pipeline: parse and schedule directly — no
 * service, no cache, fresh DDG and locality. */
std::string
offlineReply(const std::string &payload)
{
    svc::Request req = svc::parseRequest(payload, "<offline>");
    if (!req.error.empty())
        return svc::renderErrorReply(req.error);
    const auto graph = ddg::Ddg::build(req.scenario.loop, req.scenario.machine);
    const auto locality = cme::LocalityRegistry::instance().bind(
        req.options.locality, req.scenario.loop);
    sched::SchedulerOptions opt;
    opt.missThreshold = req.options.threshold;
    opt.locality = locality.get();
    opt.localityProvider = req.options.locality;
    opt.searchBudget = req.options.nodeBudget;
    opt.timeBudgetMs = req.options.timeBudgetMs;
    opt.exactBackend = req.options.exactBackend;
    opt.searchJobs = 1;
    const auto result = sched::scheduleWithBackend(
        req.options.backend, graph, req.scenario.machine, opt);
    if (!result.ok)
        return svc::renderErrorReply(result.error);
    return svc::renderReply(req, result);
}

class Serve final : public Workload
{
  public:
    explicit Serve(const Args &args)
        : seed_(args.seed), smoke_(args.smoke)
    {
    }

    int workers() const override { return POOL_WORKERS; }

    double setup(bool traced) override
    {
        // Each set-up starts from the same heap.
        ready_.reset();
        stream_ = Stream();
        const std::int64_t start = nowNs();
        stream_ = buildStream(seed_, smoke_, traced);
        ready_ = std::make_unique<svc::SchedService>(POOL_WORKERS);
        return static_cast<double>(nowNs() - start) / 1e9;
    }

    void pass(bool traced, Tally &tally) override
    {
        const std::unique_ptr<svc::SchedService> service = std::move(ready_);
        const std::size_t n = stream_.reqs.size();
        std::vector<double> lat(n);
        std::string emitted[CLIENTS];
        const std::int64_t start = nowNs();
        {
            std::vector<std::thread> clients;
            for (int c = 0; c < CLIENTS; ++c)
                clients.emplace_back([&, c] {
                    markCallerThread();
                    runClient(c, *service, traced, lat, emitted[c]);
                });
            for (auto &t : clients)
                t.join();
        }
        tally.notePass(start, n);

        // Checks, outside the timed region.
        std::vector<std::string> replies(n);
        bool framed = true;
        for (const std::string &out : emitted)
            framed = collectReplies(out, stream_, replies) && framed;
        if (!framed)
            std::fprintf(stderr, "serve: a session emitted a non-REP frame\n");
        if (expected_.empty())
            expected_.resize(n);
        std::int64_t cycles = 0;
        std::int64_t replays = 0;
        std::int64_t errors = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const Request &r = stream_.reqs[i];
            const std::string &reply = replies[i];
            bool ok = framed && !reply.empty();
            const char *side = "warm";
            if (r.kind == Kind::Cold) {
                // A generated loop may have no rmca schedule on its
                // preset; "no feasible II" is then the right reply, and
                // finalCheck holds it to the offline pipeline like any
                // other.
                side = "cold";
                if (expected_[i].empty())
                    expected_[i] = reply;
                ok = ok && reply == expected_[i];
                errors += startsWith(reply, "status error") ? 1 : 0;
                cycles += replyII(reply);
            } else if (r.kind == Kind::Malformed) {
                side = "error";
                errors += 1;
                ok = ok && startsWith(reply, "status error");
            } else {
                replays += r.kind == Kind::Replay ? 1 : 0;
                ok = ok && reply == replies[static_cast<std::size_t>(r.origin)];
            }
            if (!ok)
                std::fprintf(stderr, "serve: wrong reply to %s\n",
                             r.id.c_str());
            tally.addItem(side, lat[i], ok);
        }
        const svc::ServiceStats st = service->stats();
        if (st.rawHits != replays || st.errors != errors) {
            std::fprintf(stderr,
                         "serve: %lld raw hits for %lld replays, %lld errors "
                         "for %lld error replies\n",
                         static_cast<long long>(st.rawHits),
                         static_cast<long long>(replays),
                         static_cast<long long>(st.errors),
                         static_cast<long long>(errors));
            tally.failed += 1;
        }
        if (traced) {
            requests_ += st.requests;
            rawHits_ += st.rawHits;
            cacheHits_ += st.cacheHits;
            errors_ += st.errors;
        }
        tally.notePassCycles(cycles, static_cast<std::int64_t>(n));
    }

    /** Every cold reply equals the offline single-shot pipeline's. */
    void finalCheck(Tally &tally) override
    {
        for (std::size_t i = 0; i < expected_.size(); ++i)
            if (stream_.reqs[i].kind == Kind::Cold &&
                offlineReply(stream_.reqs[i].payload) != expected_[i]) {
                std::fprintf(stderr,
                             "serve: reply to %s differs from the offline "
                             "pipeline\n",
                             stream_.reqs[i].id.c_str());
                tally.failed += 1;
            }
    }

    void layerMetrics(const std::vector<Span> &spans, std::int64_t from,
                      std::int64_t to, int passes,
                      std::vector<Metric> &out) override;

  private:
    void runClient(int c, svc::SchedService &service, bool traced,
                   std::vector<double> &lat, std::string &emitted) const
    {
        svc::ServiceSession session(service);
        static const std::string flush = "FLUSH\n";
        std::int64_t submit[BATCH];
        for (const std::int64_t b : stream_.clientBatches[c]) {
            const Batch &batch = stream_.batches[static_cast<std::size_t>(b)];
            for (std::size_t j = 0; j < batch.reqs.size(); ++j) {
                const std::int64_t id = batch.reqs[j];
                std::optional<Scope> span;
                submit[j] = nowNs();
                if (traced)
                    span.emplace(SpanKind::SvcRequest, id);
                session.consume(
                    stream_.reqs[static_cast<std::size_t>(id)].frame, emitted);
            }
            {
                std::optional<Scope> span;
                if (traced)
                    span.emplace(SpanKind::SvcFlush, b);
                session.consume(flush, emitted);
            }
            const std::int64_t end = nowNs();
            for (std::size_t j = 0; j < batch.reqs.size(); ++j)
                lat[static_cast<std::size_t>(batch.reqs[j])] =
                    static_cast<double>(end - submit[j]) / 1e6;
        }
    }

    std::uint64_t seed_;
    bool smoke_;
    Stream stream_;
    std::unique_ptr<svc::SchedService> ready_;
    std::vector<std::string> expected_;
    std::int64_t requests_ = 0;
    std::int64_t rawHits_ = 0;
    std::int64_t cacheHits_ = 0;
    std::int64_t errors_ = 0;
};

/**
 * svc.flush.cold_self_ms is a cold FLUSH minus the part of it during
 * which any pool worker was inside a wrapped scheduler (whose spans
 * hold the cme spans), whichever request it served: what is left is
 * context preparation, DDG build, validate, render, publish, and pool
 * hand-offs.
 */
void
Serve::layerMetrics(const std::vector<Span> &spans, std::int64_t from,
                    std::int64_t to, int passes, std::vector<Metric> &out)
{
    std::vector<std::pair<std::int64_t, std::int64_t>> busy;
    for (const Span &sp : spans)
        if (sp.kind == SpanKind::SchedRmca && sp.start >= from &&
            sp.start < to)
            busy.emplace_back(sp.start, sp.end);
    std::sort(busy.begin(), busy.end());
    std::vector<std::pair<std::int64_t, std::int64_t>> merged;
    for (const auto &[a, b] : busy)
        if (!merged.empty() && a <= merged.back().second)
            merged.back().second = std::max(merged.back().second, b);
        else
            merged.emplace_back(a, b);

    std::vector<double> raw_us, parse_us, cold_self_ms, warm_us;
    for (const Span &sp : spans) {
        if (sp.start < from || sp.start >= to || sp.item < 0)
            continue;
        const double dur = static_cast<double>(sp.end - sp.start);
        if (sp.kind == SpanKind::SvcRequest) {
            const Kind kind =
                stream_.reqs[static_cast<std::size_t>(sp.item)].kind;
            if (kind == Kind::Replay)
                raw_us.push_back(dur / 1e3);
            else if (kind != Kind::Malformed)
                parse_us.push_back(dur / 1e3);
        } else if (sp.kind == SpanKind::SvcFlush) {
            if (stream_.batches[static_cast<std::size_t>(sp.item)].kind !=
                BatchKind::Cold) {
                warm_us.push_back(dur / 1e3);
                continue;
            }
            std::int64_t covered = 0;
            auto it = std::lower_bound(
                merged.begin(), merged.end(), sp.start,
                [](const auto &iv, std::int64_t t) { return iv.second <= t; });
            for (; it != merged.end() && it->first < sp.end; ++it)
                covered += std::min(it->second, sp.end) -
                           std::max(it->first, sp.start);
            cold_self_ms.push_back((dur - static_cast<double>(covered)) / 1e6);
        }
    }
    const auto d = [](std::int64_t v) { return static_cast<double>(v); };
    const double reqs = std::max<double>(1.0, d(requests_));
    setMetric(out, "svc.queue.raw_us_p50", median(raw_us));
    setMetric(out, "svc.queue.parse_us_p50", median(parse_us));
    setMetric(out, "svc.flush.cold_self_ms", median(cold_self_ms));
    setMetric(out, "svc.flush.warm_us_p50", median(warm_us));
    setMetric(out, "svc.rawlane.hit_ratio", d(rawHits_) / reqs);
    setMetric(out, "svc.cache.hit_ratio", d(cacheHits_) / reqs);
    setMetric(out, "svc.errors", d(errors_) / std::max(1, passes));
}

} // namespace

std::unique_ptr<Workload>
makeServe(const Args &args)
{
    return std::make_unique<Serve>(args);
}

} // namespace perfbench
