/**
 * @file
 * google-benchmark microbenchmarks (experiment E7): the compile-time
 * cost of the pieces the paper claims are cheap — CME queries ("a few
 * seconds per loop" in 2000; microseconds here), full scheduling runs,
 * and the lockstep simulator's cycle throughput.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "cme/oracle.hh"
#include "cme/provider.hh"
#include "cme/solver.hh"
#include "cme/stream.hh"
#include "ddg/ddg.hh"
#include "harness/motivating.hh"
#include "machine/presets.hh"
#include "sched/backend.hh"
#include "sched/exact/bnb.hh"
#include "sched/ordering.hh"
#include "sched/scheduler.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

using namespace mvp;

namespace
{

const ir::LoopNest &
bigLoop()
{
    static const auto bench = workloads::makeTomcatv();
    return bench.loops[0];   // the 10-op stencil loop
}

void
BM_DdgBuild(benchmark::State &state)
{
    const auto &nest = bigLoop();
    const auto machine = makeFourCluster();
    for (auto _ : state)
        benchmark::DoNotOptimize(ddg::Ddg::build(nest, machine));
}
BENCHMARK(BM_DdgBuild);

void
BM_RecMii(benchmark::State &state)
{
    const auto &nest = bigLoop();
    const auto machine = makeFourCluster();
    for (auto _ : state) {
        const auto g = ddg::Ddg::build(nest, machine);
        benchmark::DoNotOptimize(g.recMii());
    }
}
BENCHMARK(BM_RecMii);

void
BM_Ordering(benchmark::State &state)
{
    const auto &nest = bigLoop();
    const auto machine = makeFourCluster();
    const auto g = ddg::Ddg::build(nest, machine);
    for (auto _ : state)
        benchmark::DoNotOptimize(sched::computeOrdering(g, g.recMii()));
}
BENCHMARK(BM_Ordering);

/**
 * One warm per-loop stream cache shared by every analysis bound to the
 * loop — the shape the Workbench gives a production sweep, where the
 * streams materialise once per loop and every provider, configuration
 * and fresh query walks them.
 */
std::shared_ptr<cme::StreamCache>
sharedStreams()
{
    static const auto streams = [] {
        const auto &nest = bigLoop();
        auto cache = std::make_shared<cme::StreamCache>(nest);
        for (OpId op : nest.memoryOps())
            (void)cache->lines(op, 32);
        return cache;
    }();
    return streams;
}

void
BM_StreamMaterialise(benchmark::State &state)
{
    // One-time cost of building a loop's per-op line streams — what a
    // sweep pays once per (loop, line size) before every query turns
    // into array walks.
    const auto &nest = bigLoop();
    const auto mem = nest.memoryOps();
    for (auto _ : state) {
        cme::StreamCache cache(nest);
        for (OpId op : mem)
            benchmark::DoNotOptimize(cache.lines(op, 32).offsets.data());
    }
}
BENCHMARK(BM_StreamMaterialise);

void
BM_CmeMissRatio_Fresh(benchmark::State &state)
{
    // Un-memoised CME query cost (new analysis each iteration, streams
    // from the loop's shared cache): the sampling walk itself.
    const auto &nest = bigLoop();
    const auto mem = nest.memoryOps();
    const CacheGeom geom{2048, 32, 1};
    const auto streams = sharedStreams();
    for (auto _ : state) {
        cme::CmeAnalysis cme(nest, {}, streams);
        benchmark::DoNotOptimize(cme.missRatio(mem, mem[0], geom));
    }
}
BENCHMARK(BM_CmeMissRatio_Fresh);

void
BM_CmeMissRatio_Memoised(benchmark::State &state)
{
    const auto &nest = bigLoop();
    const auto mem = nest.memoryOps();
    const CacheGeom geom{2048, 32, 1};
    cme::CmeAnalysis cme(nest);
    (void)cme.missRatio(mem, mem[0], geom);
    for (auto _ : state)
        benchmark::DoNotOptimize(cme.missRatio(mem, mem[0], geom));
}
BENCHMARK(BM_CmeMissRatio_Memoised);

void
BM_OracleExact(benchmark::State &state)
{
    // Full from-scratch trace simulation (new oracle each iteration,
    // streams from the loop's shared cache).
    const auto &nest = bigLoop();
    const auto mem = nest.memoryOps();
    const CacheGeom geom{2048, 32, 1};
    const auto streams = sharedStreams();
    for (auto _ : state) {
        cme::CacheOracle oracle(nest, streams);
        benchmark::DoNotOptimize(oracle.missRatio(mem, mem[0], geom));
    }
}
BENCHMARK(BM_OracleExact);

void
BM_OracleIncremental(benchmark::State &state)
{
    // The scheduler's growth pattern: each iteration simulates the
    // one-op prefixes of the memory set in order, so every query after
    // the first extends a memoised checkpoint instead of simulating
    // from scratch. Reported time is per grown set.
    const auto &nest = bigLoop();
    const auto mem = nest.memoryOps();
    const CacheGeom geom{2048, 32, 1};
    const auto streams = sharedStreams();
    std::int64_t extensions = 0;
    for (auto _ : state) {
        cme::CacheOracle oracle(nest, streams);
        std::vector<OpId> set;
        for (OpId op : mem) {
            set.push_back(op);
            benchmark::DoNotOptimize(
                oracle.missesPerIteration(set, geom));
        }
        extensions +=
            static_cast<std::int64_t>(oracle.incrementalExtensions());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(mem.size()));
    state.counters["extensions"] = benchmark::Counter(
        static_cast<double>(extensions),
        benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_OracleIncremental);

void
BM_ScheduleBaseline(benchmark::State &state)
{
    const auto &nest = bigLoop();
    const auto machine = makeConfig(static_cast<int>(state.range(0)));
    const auto g = ddg::Ddg::build(nest, machine);
    for (auto _ : state)
        benchmark::DoNotOptimize(sched::scheduleBaseline(g, machine));
}
BENCHMARK(BM_ScheduleBaseline)->Arg(1)->Arg(2)->Arg(4);

void
BM_ScheduleRmca(benchmark::State &state)
{
    const auto &nest = bigLoop();
    const auto machine = makeConfig(static_cast<int>(state.range(0)));
    const auto g = ddg::Ddg::build(nest, machine);
    cme::CmeAnalysis cme(nest);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            sched::scheduleRmca(g, machine, 0.0, cme));
}
BENCHMARK(BM_ScheduleRmca)->Arg(2)->Arg(4);

/**
 * The same schedule through the backend registry with an explicitly
 * reused SchedContext — the steady state of a driver worker, where the
 * scratch buffers stay warm across loops (BM_ScheduleRmca above pays a
 * transient context per run).
 */
void
BM_ScheduleRmcaWarmContext(benchmark::State &state)
{
    const auto &nest = bigLoop();
    const auto machine = makeConfig(static_cast<int>(state.range(0)));
    const auto g = ddg::Ddg::build(nest, machine);
    cme::CmeAnalysis cme(nest);
    sched::SchedulerOptions opt;
    opt.missThreshold = 0.0;
    opt.locality = &cme;
    sched::SchedContext ctx;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            sched::scheduleWithBackend("rmca", g, machine, opt, ctx));
}
BENCHMARK(BM_ScheduleRmcaWarmContext)->Arg(2)->Arg(4);

/**
 * The exact branch-and-bound backend on the same loop: first feasible
 * schedule only (the pressure tiebreak is a budgeted anytime search
 * whose cost is the budget, not a property of the loop).
 */
void
BM_ScheduleExact(benchmark::State &state)
{
    const auto &nest = bigLoop();
    const auto machine = makeConfig(static_cast<int>(state.range(0)));
    const auto g = ddg::Ddg::build(nest, machine);
    sched::exact::BnbOptions opt;
    opt.tiebreakPressure = false;
    std::int64_t nodes = 0;
    for (auto _ : state) {
        const auto r = sched::exact::scheduleExact(g, machine, opt);
        nodes += r.stats.searchNodes;
        benchmark::DoNotOptimize(r);
    }
    state.counters["nodes/s"] = benchmark::Counter(
        static_cast<double>(nodes), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ScheduleExact)->Arg(2)->Arg(4);

/** Full verify mode (rmca + exact + gap) — the per-loop cost of the
 * optimality-gap study. */
void
BM_ScheduleVerify(benchmark::State &state)
{
    const auto &nest = bigLoop();
    const auto machine = makeConfig(static_cast<int>(state.range(0)));
    const auto g = ddg::Ddg::build(nest, machine);
    cme::CmeAnalysis cme(nest);
    sched::SchedulerOptions opt;
    opt.missThreshold = 0.25;
    opt.locality = &cme;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            sched::scheduleWithBackend("verify", g, machine, opt));
}
BENCHMARK(BM_ScheduleVerify)->Arg(2)->Arg(4);

void
BM_SimulateLoop(benchmark::State &state)
{
    const auto nest = harness::motivatingLoop(256, 2);
    const auto machine = harness::motivatingMachine();
    const auto g = ddg::Ddg::build(nest, machine);
    const auto r = sched::scheduleBaseline(g, machine);
    std::int64_t cycles = 0;
    for (auto _ : state) {
        const auto res = sim::simulateLoop(g, r.schedule, machine);
        cycles += res.totalCycles();
        benchmark::DoNotOptimize(res);
    }
    state.counters["cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulateLoop);

} // namespace

BENCHMARK_MAIN();
