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

Workbench::Entry::Entry(std::string benchmark_name, ir::LoopNest loop)
    : benchmark(std::move(benchmark_name)), nest(std::move(loop)),
      locality(nest)
{
}

Workbench::Workbench(const std::vector<std::string> &only)
{
    // Any Table-1 preset provides the (shared) operation latencies.
    const MachineConfig lat_machine = makeUnified();
    for (auto &bench : workloads::resolveWorkloads(only)) {
        for (auto &nest : bench.loops) {
            auto entry =
                std::make_unique<Entry>(bench.name, std::move(nest));
            entry->ddg = std::make_unique<ddg::Ddg>(
                ddg::Ddg::build(entry->nest, lat_machine));
            // Warm the DDG's lazily-computed SCC tables now, while the
            // graph is still private: from here on every query the
            // schedulers issue (sccs, inRecurrence, timeBounds,
            // feasibleII) is a pure read, so one graph can serve any
            // number of workers.
            entry->ddg->sccs();
            entries_.push_back(std::move(entry));
        }
    }
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
 * the pool joins.
 */
std::string
tryRunLoop(Workbench::Entry &entry, const RunConfig &config,
           sim::SimParams sim_params, sched::SchedContext &ctx,
           LoopRunResult &res)
{
    res.benchmark = entry.benchmark;
    res.loop = entry.nest.name();

    sched::SchedulerOptions opt;
    opt.missThreshold = config.threshold;
    opt.locality = &entry.locality.get(config.locality);
    {
        MVP_TRACE_SPAN("schedule", res.loop);
        res.sched = sched::scheduleWithBackend(config.backend, *entry.ddg,
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
 * fatal-on-unknown).
 */
void
checkNames(const RunConfig &config)
{
    (void)sched::BackendRegistry::instance().create(config.backend);
    (void)cme::LocalityRegistry::instance().create(config.locality);
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
        const cme::StreamCache &streams = entry->locality.streams();
        streams_built += static_cast<std::int64_t>(streams.streamsBuilt());
        stream_requests +=
            static_cast<std::int64_t>(streams.streamRequests());
        entry->locality.forEach([&](const std::string &,
                                    const cme::LocalityAnalysis &analysis) {
            if (const auto *cme =
                    dynamic_cast<const cme::CmeAnalysis *>(&analysis)) {
                ratio_lookups +=
                    static_cast<std::int64_t>(cme->ratioLookups());
                ratio_solved +=
                    static_cast<std::int64_t>(cme->queriesSolved());
                points_evaluated +=
                    static_cast<std::int64_t>(cme->pointsEvaluated());
            }
        });
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
    LoopRunResult res;
    const std::string err = tryRunLoop(entry, config, sim_params, ctx, res);
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

std::vector<SuiteResult>
runSuiteSweep(Workbench &bench, const std::vector<RunConfig> &configs,
              sim::SimParams sim_params, ParallelDriver &driver)
{
    for (const RunConfig &config : configs)
        checkNames(config);
    const auto &entries = bench.entries();
    const std::size_t per_config = entries.size();
    std::vector<LoopRunResult> results(per_config * configs.size());
    std::vector<std::string> errors(results.size());
    // Item order is (config-major, entry-minor): the merge below walks
    // contiguous slices, and every config's loops keep workbench order.
    driver.run(results.size(),
               [&](std::size_t i, sched::SchedContext &ctx) {
                   const std::size_t c = i / per_config;
                   const std::size_t e = i % per_config;
                   errors[i] = tryRunLoop(*entries[e], configs[c],
                                          sim_params, ctx, results[i]);
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
