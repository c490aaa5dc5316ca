#include "harness/experiment.hh"

#include <algorithm>

#include "cme/provider.hh"
#include "cme/solver.hh"
#include "common/logging.hh"
#include "machine/presets.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sched/backend.hh"

namespace mvp::harness
{

std::string
backendName(const RunConfig &config)
{
    return config.backend.empty() ? "baseline" : config.backend;
}

std::string
localityName(const RunConfig &config)
{
    return config.locality.empty() ? "cme" : config.locality;
}

std::string
formatSuiteResult(const SuiteResult &suite)
{
    std::string out;
    for (const auto &loop : suite.loops) {
        out += "loop ";
        out += loop.benchmark;
        out += ' ';
        out += loop.loop;
        out += " ii=";
        out += std::to_string(loop.sched.schedule.ii());
        out += " comms=";
        out += std::to_string(loop.sched.stats.comms);
        out += " promoted=";
        out += std::to_string(loop.sched.stats.missScheduledLoads);
        out += " compute=";
        out += std::to_string(loop.sim.computeCycles);
        out += " stall=";
        out += std::to_string(loop.sim.stallCycles);
        out += '\n';
    }
    for (const auto &[name, cycles] : suite.perBenchmark) {
        out += "benchmark ";
        out += name;
        out += " compute=";
        out += std::to_string(cycles.first);
        out += " stall=";
        out += std::to_string(cycles.second);
        out += '\n';
    }
    out += "total compute=";
    out += std::to_string(suite.compute);
    out += " stall=";
    out += std::to_string(suite.stall);
    out += '\n';
    return out;
}

Workbench::Workbench(const std::vector<std::string> &only)
{
    // Any Table-1 preset provides the (shared) operation latencies.
    const MachineConfig lat_machine = makeUnified();
    for (auto &bench : workloads::resolveWorkloads(only)) {
        for (auto &nest : bench.loops) {
            auto entry = std::make_unique<Entry>();
            entry->benchmark = bench.name;
            entry->nest = std::move(nest);
            entry->ddg = std::make_unique<ddg::Ddg>(
                ddg::Ddg::build(entry->nest, lat_machine));
            // Warm the DDG's lazily-computed SCC tables now, while the
            // graph is still private: from here on every query the
            // schedulers issue (sccs, inRecurrence, timeBounds,
            // feasibleII) is a pure read, so one graph can serve any
            // number of workers.
            entry->ddg->sccs();
            entry->streams =
                std::make_shared<cme::StreamCache>(entry->nest);
            entries_.push_back(std::move(entry));
        }
    }
    ensureLocality("cme");
}

void
Workbench::ensureLocality(const std::string &provider)
{
    // create() outside the entry loop: an unknown name fatals once,
    // before any binding happens.
    const auto p = cme::LocalityRegistry::instance().create(provider);
    for (auto &entry : entries_)
        if (!entry->bound.count(provider))
            entry->bound.emplace(provider,
                                 p->bind(entry->nest, entry->streams));
}

std::vector<std::string>
Workbench::benchmarks() const
{
    std::vector<std::string> out;
    for (const auto &e : entries_)
        if (std::find(out.begin(), out.end(), e->benchmark) == out.end())
            out.push_back(e->benchmark);
    return out;
}

namespace
{

/**
 * runLoop minus the fatal: returns the failure text ("" on success).
 * The sharded suite runners call this from worker threads — a fatal
 * there would std::exit() while sibling workers still run, racing
 * static destructors and garbling the diagnostic — and report the
 * first failure (in canonical item order) from the main thread after
 * the pool joins. @p locality is resolved by the caller (workers read
 * the entry's pre-bound map; runLoop resolves under its bind lock).
 */
std::string
tryRunLoop(Workbench::Entry &entry, const RunConfig &config,
           sim::SimParams sim_params, sched::SchedContext &ctx,
           cme::LocalityAnalysis *locality, LoopRunResult &res)
{
    res.benchmark = entry.benchmark;
    res.loop = entry.nest.name();

    sched::SchedulerOptions opt;
    opt.missThreshold = config.threshold;
    opt.locality = locality;
    if (opt.locality == nullptr)
        return "locality provider '" + localityName(config) +
               "' not prepared for '" + res.loop +
               "' (Workbench::ensureLocality runs before fan-out)";
    opt.searchBudget = config.searchBudget;
    opt.timeBudgetMs = config.timeBudgetMs;
    opt.exactBackend = config.exactBackend.empty() ? "exact"
                                                   : config.exactBackend;
    {
        MVP_TRACE_SPAN("schedule", res.loop);
        res.sched = sched::scheduleWithBackend(backendName(config),
                                               *entry.ddg,
                                               config.machine, opt, ctx);
    }
    if (!res.sched.ok)
        return "scheduling failed for '" + res.loop +
               "': " + res.sched.error;
    if (obs::metricsOn())
        ctx.metrics.det("harness.loops_scheduled") += 1;

    const std::string err =
        res.sched.schedule.validate(*entry.ddg, config.machine);
    if (!err.empty())
        return "invalid schedule for '" + res.loop + "':\n" + err;

    MVP_TRACE_SPAN("simulate", res.loop);
    res.sim = sim::simulateLoop(*entry.ddg, res.sched.schedule,
                                config.machine, sim_params);
    return "";
}

/** Report the first failure of a sharded run, in item order. */
void
checkErrors(const std::vector<std::string> &errors)
{
    for (const std::string &err : errors)
        if (!err.empty())
            mvp_fatal(err);
}

/**
 * Resolve the backend and locality names on the main thread, before
 * any fan-out: an unknown name is a configuration error whose fatal
 * must not fire inside a pool worker (both registries are
 * fatal-on-unknown), and provider binding mutates the workbench, which
 * is only safe while no workers run.
 */
void
prepareConfig(Workbench &bench, const RunConfig &config)
{
    const std::string name = backendName(config);
    if (!sched::BackendRegistry::instance().has(name))
        (void)sched::BackendRegistry::instance().create(name);   // fatals
    bench.ensureLocality(localityName(config));
}

} // namespace

/**
 * Snapshot the shared caches' cumulative tallies into the registry.
 * Max-merged gauges, not counters: the atomics are monotone over the
 * process, so "keep the largest seen" makes repeated harvests (one
 * per sweep) idempotent instead of double-counting. Runtime section —
 * two workers racing one memo key legitimately both count a miss.
 */
void
harvestLocalityMetrics(const Workbench &bench)
{
    if (!obs::metricsOn())
        return;
    std::int64_t streams_built = 0;
    std::int64_t stream_requests = 0;
    std::int64_t ratio_lookups = 0;
    std::int64_t ratio_solved = 0;
    std::int64_t points_evaluated = 0;
    for (const auto &entry : bench.entries()) {
        if (entry->streams) {
            streams_built +=
                static_cast<std::int64_t>(entry->streams->streamsBuilt());
            stream_requests += static_cast<std::int64_t>(
                entry->streams->streamRequests());
        }
        for (const auto &[provider, analysis] : entry->bound) {
            if (const auto *cme =
                    dynamic_cast<const cme::CmeAnalysis *>(
                        analysis.get())) {
                ratio_lookups +=
                    static_cast<std::int64_t>(cme->ratioLookups());
                ratio_solved +=
                    static_cast<std::int64_t>(cme->queriesSolved());
                points_evaluated +=
                    static_cast<std::int64_t>(cme->pointsEvaluated());
            }
        }
    }
    obs::MetricShard shard;
    shard.rtMax("cme.streams_built", streams_built);
    shard.rtMax("cme.stream_requests", stream_requests);
    shard.rtMax("cme.ratio_lookups", ratio_lookups);
    shard.rtMax("cme.ratio_queries_solved", ratio_solved);
    shard.rtMax("cme.points_evaluated", points_evaluated);
    obs::Registry::instance().fold(shard);
}

LoopRunResult
runLoop(Workbench::Entry &entry, const RunConfig &config,
        sim::SimParams sim_params, sched::SchedContext &ctx)
{
    // When the provider is not bound yet, the single-loop entry point
    // binds a *transient* analysis instead of mutating the shared
    // entry: entries stay read-only outside ensureLocality(), so
    // runLoop may run concurrently with itself and with sharded
    // sweeps. Callers that runLoop() repeatedly should prepare the
    // workbench (ensureLocality) once to keep the analysis memo warm.
    const std::string provider = localityName(config);
    cme::LocalityAnalysis *locality = entry.locality(provider);
    std::unique_ptr<cme::LocalityAnalysis> transient;
    if (locality == nullptr) {
        transient = cme::LocalityRegistry::instance().bind(
            provider, entry.nest, entry.streams);
        locality = transient.get();
    }
    LoopRunResult res;
    const std::string err =
        tryRunLoop(entry, config, sim_params, ctx, locality, res);
    if (!err.empty())
        mvp_fatal(err);
    return res;
}

LoopRunResult
runLoop(Workbench::Entry &entry, const RunConfig &config,
        sim::SimParams sim_params)
{
    sched::SchedContext ctx;
    return runLoop(entry, config, sim_params, ctx);
}

namespace
{

/** Fold per-item loop results into a SuiteResult, in item order. */
SuiteResult
mergeSuite(std::vector<LoopRunResult> &&loops)
{
    SuiteResult suite;
    for (auto &r : loops) {
        suite.compute += r.sim.computeCycles;
        suite.stall += r.sim.stallCycles;
        auto &per = suite.perBenchmark[r.benchmark];
        per.first += r.sim.computeCycles;
        per.second += r.sim.stallCycles;
        suite.loops.push_back(std::move(r));
    }
    return suite;
}

} // namespace

SuiteResult
runSuite(Workbench &bench, const RunConfig &config,
         sim::SimParams sim_params, ParallelDriver &driver)
{
    prepareConfig(bench, config);
    const auto &entries = bench.entries();
    std::vector<LoopRunResult> results(entries.size());
    std::vector<std::string> errors(entries.size());
    const std::string provider = localityName(config);
    driver.run(entries.size(),
               [&](std::size_t i, sched::SchedContext &ctx) {
                   errors[i] = tryRunLoop(
                       *entries[i], config, sim_params, ctx,
                       entries[i]->locality(provider), results[i]);
               });
    checkErrors(errors);
    harvestLocalityMetrics(bench);
    return mergeSuite(std::move(results));
}

SuiteResult
runSuite(Workbench &bench, const RunConfig &config,
         sim::SimParams sim_params)
{
    ParallelDriver driver;
    return runSuite(bench, config, sim_params, driver);
}

std::vector<SuiteResult>
runSuiteSweep(Workbench &bench, const std::vector<RunConfig> &configs,
              sim::SimParams sim_params, ParallelDriver &driver)
{
    for (const RunConfig &config : configs)
        prepareConfig(bench, config);
    const auto &entries = bench.entries();
    const std::size_t per_config = entries.size();
    std::vector<LoopRunResult> results(per_config * configs.size());
    std::vector<std::string> errors(results.size());
    // Item order is (config-major, entry-minor): the merge below walks
    // contiguous slices, and every config's loops keep workbench order.
    // Provider names resolved once per config, not once per item.
    std::vector<std::string> providers;
    providers.reserve(configs.size());
    for (const RunConfig &config : configs)
        providers.push_back(localityName(config));
    driver.run(results.size(),
               [&](std::size_t i, sched::SchedContext &ctx) {
                   const std::size_t c = i / per_config;
                   const std::size_t e = i % per_config;
                   errors[i] = tryRunLoop(
                       *entries[e], configs[c], sim_params, ctx,
                       entries[e]->locality(providers[c]), results[i]);
               });
    checkErrors(errors);
    harvestLocalityMetrics(bench);

    std::vector<SuiteResult> out;
    out.reserve(configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c) {
        std::vector<LoopRunResult> slice(
            std::make_move_iterator(results.begin() +
                                    static_cast<std::ptrdiff_t>(
                                        c * per_config)),
            std::make_move_iterator(results.begin() +
                                    static_cast<std::ptrdiff_t>(
                                        (c + 1) * per_config)));
        out.push_back(mergeSuite(std::move(slice)));
    }
    return out;
}

} // namespace mvp::harness
