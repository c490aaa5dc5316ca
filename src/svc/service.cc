#include "svc/service.hh"

#include <exception>
#include <utility>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sched/backend.hh"

namespace mvp::svc
{
namespace
{

/** Latency histogram binning: 10 us buckets to 50 ms; slower replies
 * (deep exact searches) clamp to the top, which only makes the
 * reported tail percentiles conservative. */
constexpr double LAT_LO = 0.0;
constexpr double LAT_HI = 50'000.0;
constexpr std::size_t LAT_BUCKETS = 5'000;

} // namespace

SchedService::LoopContext::LoopContext(ir::LoopNest n)
    : nest(std::move(n)), locality(nest)
{
}

const ddg::Ddg &
SchedService::LoopContext::ddgFor(const MachineConfig &machine,
                                  const std::string &machineKey)
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = ddgs.find(machineKey);
    if (it == ddgs.end()) {
        auto graph = std::make_unique<ddg::Ddg>(
            ddg::Ddg::build(nest, machine));
        // Warm the lazily-built SCC tables while we hold the context
        // lock, exactly like Workbench::prepare — afterwards the DDG
        // is read-only and safe to share across workers.
        graph->sccs();
        it = ddgs.emplace(machineKey, std::move(graph)).first;
    }
    return *it->second;
}

SchedService::SchedService(int jobs)
    : driver_(jobs), latency_us_(LAT_LO, LAT_HI, LAT_BUCKETS)
{
}

SchedService::~SchedService() = default;

SchedService::LoopContext &
SchedService::contextFor(const std::string &loopKey,
                         const ir::LoopNest &nest)
{
    std::lock_guard<std::mutex> lock(ctx_mu_);
    auto it = contexts_.find(loopKey);
    if (it == contexts_.end())
        it = contexts_
                 .emplace(loopKey, std::make_unique<LoopContext>(nest))
                 .first;
    return *it->second;
}

ReplyBytes
SchedService::rawProbe(const std::string &rawPayload)
{
    const auto start = std::chrono::steady_clock::now();
    const ReplyBytes *stored = raw_.find(rawPayload);
    if (stored == nullptr) {
        obs::foldRtCounter("svc.rawlane.misses", 1);
        return nullptr;
    }
    const double us =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - start)
            .count();
    {
        std::lock_guard<std::mutex> lock(stats_mu_);
        requests_ += 1;
        hits_ += 1;
        raw_hits_ += 1;
        latency_us_.add(us);
    }
    if (obs::metricsOn()) {
        obs::foldRtCounter("svc.rawlane.hits", 1);
        obs::foldRtHist("svc.rawlane.probe_us", LAT_LO, LAT_HI, 500,
                        us);
    }
    return *stored;
}

std::vector<SchedService::Reply>
SchedService::processBatch(std::vector<Request> &&requests)
{
    std::lock_guard<std::mutex> batch_lock(batch_mu_);
    std::vector<Reply> replies(requests.size());
    driver_.run(requests.size(),
                [&](std::size_t i, sched::SchedContext &ctx) {
                    replies[i] = serveOne(requests[i], ctx);
                });
    {
        std::lock_guard<std::mutex> lock(stats_mu_);
        batches_ += 1;
    }
    if (obs::metricsOn()) {
        obs::MetricShard shard;
        shard.rtMax("svc.cache_entries",
                    static_cast<std::int64_t>(cache_.size()));
        shard.rtMax("svc.rawlane.entries",
                    static_cast<std::int64_t>(raw_.size()));
        {
            std::lock_guard<std::mutex> lock(ctx_mu_);
            shard.rtMax("svc.loop_contexts",
                        static_cast<std::int64_t>(contexts_.size()));
        }
        obs::Registry::instance().fold(shard);
    }
    return replies;
}

SchedService::Reply
SchedService::processOne(Request &&request)
{
    std::vector<Request> batch;
    batch.push_back(std::move(request));
    return processBatch(std::move(batch)).front();
}

SchedService::Reply
SchedService::serveOne(Request &request, sched::SchedContext &ctx)
{
    const auto start = std::chrono::steady_clock::now();
    Reply out;

    if (!request.error.empty()) {
        // Parse-error replies quote the frame id (the parse origin),
        // so they are not pure functions of the payload bytes — they
        // stay out of both cache lanes.
        out.payload =
            std::make_shared<const std::string>(renderErrorReply(
                request.error));
        noteRequest(start, false, true, ctx);
        return out;
    }

    if (const ReplyBytes *stored = cache_.find(request.key)) {
        out.payload = *stored;
        out.cacheHit = true;
        // The canonical entry existed but this raw spelling missed:
        // teach the zero-parse lane so the next byte-identical
        // payload skips the parser too.
        if (!request.raw.empty())
            raw_.tryInsert(request.raw, out.payload);
        noteRequest(start, true, false, ctx);
        return out;
    }

    std::string payload;
    bool cacheable = false;
    bool is_error = false;
    {
        // User input reaches registries and parsers that fatal on bad
        // names; the scope turns those into per-request error replies.
        FatalScope guard;
        try {
            MVP_TRACE_SPAN("svc.schedule",
                           request.scenario.loop.name());
            LoopContext &lc =
                contextFor(request.loopKey, request.scenario.loop);
            const ddg::Ddg &graph =
                lc.ddgFor(request.scenario.machine, request.machineKey);

            sched::SchedulerOptions opt;
            opt.missThreshold = request.options.threshold;
            opt.locality = &lc.locality.get(request.options.locality);
            opt.searchBudget = request.options.nodeBudget;
            opt.timeBudgetMs = request.options.timeBudgetMs;
            opt.exactBackend = request.options.exactBackend;

            const auto result = sched::scheduleWithBackend(
                request.options.backend, graph,
                request.scenario.machine, opt, ctx);
            // A search the deadline cut short answered with whatever
            // the wall clock allowed, which depends on load, so
            // neither its reply nor its error is a pure function of
            // the cache key. Everything else is — a work-capped
            // search too: the cap is part of the key.
            const bool deterministic = !result.stats.deadlineHit;
            if (!result.ok) {
                // A within-budget scheduling failure (e.g. maxII
                // exceeded) is as deterministic as a schedule — cache
                // it like one.
                payload = renderErrorReply(result.error);
                cacheable = deterministic;
                is_error = true;
            } else {
                const std::string verr = result.schedule.validate(
                    graph, request.scenario.machine);
                if (!verr.empty()) {
                    payload = renderErrorReply("invalid schedule: " +
                                               verr);
                    is_error = true;
                } else {
                    payload = renderReply(request, result);
                    cacheable = deterministic;
                }
            }
        } catch (const FatalError &e) {
            payload = renderErrorReply(e.what());
            is_error = true;
        } catch (const std::exception &e) {
            payload = renderErrorReply(e.what());
            is_error = true;
        }
    }

    if (cacheable) {
        out.payload = cache_.tryInsert(
            request.key,
            std::make_shared<const std::string>(std::move(payload)));
        // Alias the *published* entry (ours or the racing winner's)
        // under the verbatim bytes: raw hits are byte-identical to
        // canonical hits by construction.
        if (!request.raw.empty())
            raw_.tryInsert(request.raw, out.payload);
    } else {
        out.payload =
            std::make_shared<const std::string>(std::move(payload));
    }
    noteRequest(start, false, is_error, ctx);
    return out;
}

void
SchedService::noteFlush(std::size_t frames, std::size_t bytes,
                        double us)
{
    if (obs::metricsOn()) {
        obs::MetricShard shard;
        shard.rt("svc.flush.bursts") += 1;
        shard.rt("svc.flush.frames") +=
            static_cast<std::int64_t>(frames);
        shard.rt("svc.flush.bytes") += static_cast<std::int64_t>(bytes);
        shard.rtHist("svc.flush.us", LAT_LO, LAT_HI, 500).add(us);
        obs::Registry::instance().fold(shard);
    }
}

void
SchedService::noteRequest(std::chrono::steady_clock::time_point start,
                          bool hit, bool error, sched::SchedContext &ctx)
{
    const double us =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - start)
            .count();
    {
        std::lock_guard<std::mutex> lock(stats_mu_);
        requests_ += 1;
        if (hit)
            hits_ += 1;
        else
            misses_ += 1;
        if (error)
            errors_ += 1;
        latency_us_.add(us);
    }
    if (obs::metricsOn()) {
        ctx.metrics.rt("svc.requests") += 1;
        ctx.metrics.rt(hit ? "svc.cache_hits" : "svc.cache_misses") +=
            1;
        if (error)
            ctx.metrics.rt("svc.errors") += 1;
        ctx.metrics.rtHist("svc.request_us", LAT_LO, LAT_HI, 500)
            .add(us);
    }
}

ServiceStats
SchedService::stats() const
{
    ServiceStats out;
    {
        std::lock_guard<std::mutex> lock(stats_mu_);
        out.requests = requests_;
        out.cacheHits = hits_;
        out.cacheMisses = misses_;
        out.rawHits = raw_hits_;
        out.errors = errors_;
        out.batches = batches_;
        out.latencyP50Us = latency_us_.percentile(50.0);
        out.latencyP99Us = latency_us_.percentile(99.0);
        out.latencyMeanUs = latency_us_.mean();
    }
    out.cacheEntries = static_cast<std::int64_t>(cache_.size());
    out.rawEntries = static_cast<std::int64_t>(raw_.size());
    {
        std::lock_guard<std::mutex> lock(ctx_mu_);
        out.loopContexts = static_cast<std::int64_t>(contexts_.size());
    }
    return out;
}

std::string
SchedService::renderStats() const
{
    const ServiceStats st = stats();
    std::string out;
    out += "requests " + std::to_string(st.requests) + "\n";
    out += "cache-hits " + std::to_string(st.cacheHits) + "\n";
    out += "cache-misses " + std::to_string(st.cacheMisses) + "\n";
    out += "raw-hits " + std::to_string(st.rawHits) + "\n";
    out += "errors " + std::to_string(st.errors) + "\n";
    out += "batches " + std::to_string(st.batches) + "\n";
    out += "cache-entries " + std::to_string(st.cacheEntries) + "\n";
    out += "raw-entries " + std::to_string(st.rawEntries) + "\n";
    out += "loop-contexts " + std::to_string(st.loopContexts) + "\n";
    out += "latency-p50-us " + strprintf("%.1f", st.latencyP50Us) +
           "\n";
    out += "latency-p99-us " + strprintf("%.1f", st.latencyP99Us) +
           "\n";
    out += "latency-mean-us " + strprintf("%.1f", st.latencyMeanUs) +
           "\n";
    return out;
}

} // namespace mvp::svc
