/**
 * @file
 * Tests for the lockstep simulator: the NCYCLE decomposition of §2.2,
 * zero-stall execution when latencies are honoured, stalls from cache
 * misses, the effect of binding prefetching, stat consistency, and
 * pins of every SimResult field over the builtin corpus, on the Table-1
 * machines and on geometries, associativities, bus counts and MSHR
 * depths those machines never use.
 */

#include <gtest/gtest.h>

#include <string>

#include "cme/solver.hh"
#include "common/strutil.hh"
#include "ddg/ddg.hh"
#include "harness/experiment.hh"
#include "ir/builder.hh"
#include "machine/presets.hh"
#include "sched/scheduler.hh"
#include "sim/simulator.hh"

namespace mvp::sim
{
namespace
{

using namespace mvp::ir;

/** Loop whose working set is resident: no stalls after warm-up. */
LoopNest
residentLoop()
{
    LoopNestBuilder b("resident");
    b.loop("r", 0, 8);
    b.loop("i", 0, 128);
    const auto A = b.arrayAt("A", {128}, 0x10000);   // 512 B
    const auto l = b.load(A, {affineVar(1)}, "l");
    const auto m = b.op(Opcode::FMul, {use(l), liveIn()}, "m");
    b.store(A, {affineVar(1)}, use(m), "s");
    return b.build();
}

/** Ping-pong loop: every iteration misses when co-located. */
LoopNest
pingPongLoop()
{
    LoopNestBuilder b("pingpong");
    b.loop("r", 0, 4);
    b.loop("i", 0, 256);
    const auto B = b.arrayAt("B", {256}, 0x10000);
    const auto C = b.arrayAt("C", {256}, 0x12000);
    const auto lb = b.load(B, {affineVar(1)}, "lb");
    const auto lc = b.load(C, {affineVar(1)}, "lc");
    b.op(Opcode::FMul, {use(lb), use(lc)}, "m");
    return b.build();
}

TEST(Simulator, ComputeCyclesMatchFormula)
{
    const auto nest = residentLoop();
    const auto machine = makeUnified();
    const auto g = ddg::Ddg::build(nest, machine);
    const auto r = sched::scheduleBaseline(g, machine);
    ASSERT_TRUE(r.ok);
    const auto res = simulateLoop(g, r.schedule, machine);
    // NCYCLE_compute = NTIMES * (NITER + SC - 1) * II.
    const Cycle expected = 8 * (128 + r.schedule.stageCount() - 1) *
                           r.schedule.ii();
    EXPECT_EQ(res.computeCycles, expected);
    EXPECT_EQ(res.iterations, 8 * 128);
    EXPECT_EQ(res.executions, 8);
}

TEST(Simulator, ResidentLoopStallsOnlyDuringWarmup)
{
    const auto nest = residentLoop();
    const auto machine = makeUnified();
    const auto g = ddg::Ddg::build(nest, machine);
    const auto r = sched::scheduleBaseline(g, machine);
    ASSERT_TRUE(r.ok);
    const auto res = simulateLoop(g, r.schedule, machine);
    // 512B working set = 16 lines: only cold fills (the store to the
    // just-missed line merges into the load's fill and also counts as a
    // local miss).
    EXPECT_EQ(res.memStats.value("memory_fills"), 16);
    EXPECT_EQ(res.memStats.value("local_misses") -
                  res.memStats.value("mshr_merges"),
              16);
    // Each cold miss stalls at most the full miss penalty.
    EXPECT_LE(res.stallCycles, 16 * (machine.missLatency() + 4));
    // The last 7 executions run stall-free, so the stall share stays a
    // small fraction of the total (warm-up only).
    EXPECT_LT(static_cast<double>(res.stallCycles),
              0.25 * static_cast<double>(res.computeCycles));
}

TEST(Simulator, OpAndMemCountsAreExact)
{
    const auto nest = residentLoop();
    const auto machine = makeUnified();
    const auto g = ddg::Ddg::build(nest, machine);
    const auto r = sched::scheduleBaseline(g, machine);
    ASSERT_TRUE(r.ok);
    const auto res = simulateLoop(g, r.schedule, machine);
    EXPECT_EQ(res.opsExecuted, 8 * 128 * 3);
    EXPECT_EQ(res.memAccesses, 8 * 128 * 2);
    EXPECT_EQ(res.memStats.value("loads"), 8 * 128);
    EXPECT_EQ(res.memStats.value("stores"), 8 * 128);
}

TEST(Simulator, PingPongStallsDominateWhenColocated)
{
    const auto nest = pingPongLoop();
    const auto machine = makeUnified();   // one cache: B/C thrash
    const auto g = ddg::Ddg::build(nest, machine);
    const auto r = sched::scheduleBaseline(g, machine);
    ASSERT_TRUE(r.ok);
    const auto res = simulateLoop(g, r.schedule, machine);
    // Both loads miss essentially every iteration.
    EXPECT_GT(res.memStats.value("local_misses"), 4 * 256);
    EXPECT_GT(res.stallCycles, res.computeCycles);
}

TEST(Simulator, MaxExecutionsCapRespected)
{
    const auto nest = residentLoop();
    const auto machine = makeUnified();
    const auto g = ddg::Ddg::build(nest, machine);
    const auto r = sched::scheduleBaseline(g, machine);
    ASSERT_TRUE(r.ok);
    SimParams params;
    params.maxExecutions = 2;
    const auto res = simulateLoop(g, r.schedule, machine, params);
    EXPECT_EQ(res.executions, 2);
    EXPECT_EQ(res.iterations, 2 * 128);
}

TEST(Simulator, BindingPrefetchRemovesStallsWithUnboundedBuses)
{
    // §5.2: with unbounded buses and threshold 0.00, scheduling the
    // likely-missing loads with the miss latency hides nearly all
    // stalls at the cost of compute cycles.
    const auto nest = pingPongLoop();
    const auto machine = withUnboundedBuses(makeTwoCluster(), 1, 1);
    const auto g = ddg::Ddg::build(nest, machine);
    cme::CmeAnalysis cme(nest);

    const auto plain = sched::scheduleBaseline(g, machine, 1.0, &cme);
    const auto eager = sched::scheduleBaseline(g, machine, 0.0, &cme);
    ASSERT_TRUE(plain.ok && eager.ok);

    const auto res_plain = simulateLoop(g, plain.schedule, machine);
    const auto res_eager = simulateLoop(g, eager.schedule, machine);
    EXPECT_LT(res_eager.stallCycles, res_plain.stallCycles / 2);
    EXPECT_LE(res_eager.totalCycles(), res_plain.totalCycles());
}

TEST(Simulator, RmcaAvoidsThePingPongEntirely)
{
    const auto nest = pingPongLoop();
    const auto machine = makeTwoCluster();
    const auto g = ddg::Ddg::build(nest, machine);
    cme::CmeAnalysis cme(nest);

    const auto rmca = sched::scheduleRmca(g, machine, 1.0, cme);
    ASSERT_TRUE(rmca.ok);
    const auto res = simulateLoop(g, rmca.schedule, machine);
    // Split across clusters, each array streams with spatial locality:
    // ~1/8 miss ratio instead of ~100%.
    const auto total_loads = res.memStats.value("loads");
    EXPECT_LT(res.memStats.value("local_misses"), total_loads / 4);
}

TEST(Simulator, MemoryCarriedDependenceStallsOnMiss)
{
    // BLTS pattern: the load consumes last iteration's store. When the
    // store misses, the dependent load must stall (dynamic check).
    LoopNestBuilder b("carried");
    b.loop("r", 0, 2);
    b.loop("i", 1, 257);
    const auto V = b.arrayAt("V", {258}, 0x10000);
    const auto W = b.arrayAt("W", {258}, 0x12000);   // conflicts with V
    const auto vw = b.load(V, {affineVar(1, 1, -1)}, "vw");
    const auto lw = b.load(W, {affineVar(1)}, "lw");
    const auto v = b.op(Opcode::FMul, {use(vw), use(lw)}, "v");
    b.store(V, {affineVar(1)}, use(v), "sv");
    const auto nest = b.build();
    const auto machine = makeUnified();
    const auto g = ddg::Ddg::build(nest, machine);
    const auto r = sched::scheduleBaseline(g, machine);
    ASSERT_TRUE(r.ok);
    const auto res = simulateLoop(g, r.schedule, machine);
    EXPECT_GT(res.stallCycles, 0);
}

TEST(Simulator, StatsCarryAcrossExecutions)
{
    // Cache state persists between the NTIMES executions: the second
    // sweep of a resident array generates no new misses.
    const auto nest = residentLoop();
    const auto machine = makeUnified();
    const auto g = ddg::Ddg::build(nest, machine);
    const auto r = sched::scheduleBaseline(g, machine);
    ASSERT_TRUE(r.ok);
    SimParams one;
    one.maxExecutions = 1;
    const auto first = simulateLoop(g, r.schedule, machine, one);
    const auto all = simulateLoop(g, r.schedule, machine);
    EXPECT_EQ(first.memStats.value("local_misses"),
              all.memStats.value("local_misses"));
}

/** Every field of @p r, the memory counter dump included, as text. */
std::string
describe(const SimResult &r)
{
    return std::to_string(r.computeCycles) + ' ' +
           std::to_string(r.stallCycles) + ' ' +
           std::to_string(r.iterations) + ' ' +
           std::to_string(r.executions) + ' ' +
           std::to_string(r.opsExecuted) + ' ' +
           std::to_string(r.memAccesses) + '\n' + r.memStats.dump("  ");
}

/**
 * Schedule and simulate the whole builtin corpus on @p machine, both
 * heuristics at thresholds 1.0 and 0.0, and fold every SimResult into
 * one string, in a fixed order. @p totals sums each memory counter over
 * the runs, so a caller can check which memory-system paths ran.
 */
std::string
corpusFold(const MachineConfig &machine, StatGroup *totals = nullptr)
{
    static harness::Workbench bench;
    std::string fold;
    for (const char *backend : {"baseline", "rmca"})
        for (const double thr : {1.0, 0.0}) {
            harness::RunConfig cfg;
            cfg.machine = machine;
            cfg.backend = backend;
            cfg.threshold = thr;
            for (const auto &entry : bench.entries()) {
                const auto run = harness::runLoop(*entry, cfg);
                EXPECT_TRUE(run.sched.ok) << run.loop;
                fold += run.loop + ' ' + describe(run.sim);
                if (totals != nullptr)
                    totals->merge(run.sim.memStats);
            }
        }
    return fold;
}

TEST(Simulator, WholeResultFingerprintIsPinned)
{
    // Every field of SimResult — cycles, counts and the full memory
    // counter dump (names and values) — over the 32 builtin loops on
    // the three Table-1 machines, both heuristics, two thresholds. The
    // table1 fingerprint covers only compute + stall; this pins the
    // rest, so a simulator or memory-system rewrite must reproduce it
    // bit for bit.
    std::string fold;
    for (const auto &machine :
         {makeUnified(), makeTwoCluster(), makeFourCluster()})
        fold += corpusFold(machine);
    EXPECT_EQ(fnv1a(fold), 0x4188fc591caca180ULL)
        << std::hex << "0x" << fnv1a(fold);
}

// ------------------------------------------------- characterization pins
//
// The Table-1 machines are direct-mapped, with power-of-two lines and
// set counts, one memory bus and ten MSHR entries, so the pin above
// never runs the memory system's other paths. These pins were recorded
// before the kernel got its fast paths (shift-and-mask indexing, the
// direct-mapped hit, the in-flight table); each one also checks that
// the path it is named for really ran.

/** Pin the corpus fold on @p machine; @p counter must have counted. */
void
expectCorpusPin(const MachineConfig &machine, const char *counter,
                std::uint64_t pin)
{
    StatGroup totals;
    const std::uint64_t fp = fnv1a(corpusFold(machine, &totals));
    EXPECT_GT(totals.value(counter), 0) << counter;
    EXPECT_EQ(fp, pin) << std::hex << "0x" << fp;
}

/** @p base with its line size and per-cluster set count replaced. */
MachineConfig
withGeometry(MachineConfig base, int line_bytes, std::int64_t sets)
{
    base.cacheLineBytes = line_bytes;
    base.totalCacheBytes = sets * line_bytes * base.cacheAssoc *
                           base.nClusters;
    return base;
}

TEST(SimulatorPins, NonPowerOfTwoLineAndSetCount)
{
    expectCorpusPin(withGeometry(makeTwoCluster(), 24, 100),
                    "memory_fills", 0x2e3d533943e2ec8fULL);
}

TEST(SimulatorPins, NonPowerOfTwoSetCount)
{
    expectCorpusPin(withGeometry(makeTwoCluster(), 32, 96),
                    "memory_fills", 0xb5bafb1970862fcaULL);
}

TEST(SimulatorPins, NonPowerOfTwoLineSize)
{
    expectCorpusPin(withGeometry(makeFourCluster(), 48, 64),
                    "memory_fills", 0x112f268dbc214e69ULL);
}

TEST(SimulatorPins, TwoWayLru)
{
    auto machine = makeFourCluster();
    machine.cacheAssoc = 2;
    expectCorpusPin(machine, "local_hits", 0xa46f66e27d785736ULL);
}

TEST(SimulatorPins, FourWayLru)
{
    auto machine = makeTwoCluster();
    machine.cacheAssoc = 4;
    expectCorpusPin(machine, "local_hits", 0x417bdfbbfc9d0592ULL);
}

TEST(SimulatorPins, UnboundedMemoryBuses)
{
    expectCorpusPin(withUnboundedBuses(makeFourCluster(), 1, 2),
                    "remote_hits", 0x196e1f1fc16cacdfULL);
}

TEST(SimulatorPins, ThreeMemoryBuses)
{
    expectCorpusPin(withLimitedBuses(makeFourCluster(), 3, 4),
                    "bus_wait_cycles", 0x32cb9c6de0650318ULL);
}

TEST(SimulatorPins, MshrFullStalls)
{
    auto machine = makeFourCluster();
    machine.mshrEntries = 1;
    expectCorpusPin(machine, "mshr_full_stall_cycles", 0xaf870d15a3346660ULL);
}

/**
 * Store-heavy loop: every array is both read and written a line apart
 * across iterations, and C aliases A's sets in a 4-cluster cache, so
 * spread over clusters it upgrades, invalidates, supplies dirty lines
 * and writes back Modified victims.
 */
LoopNest
storeHeavyLoop()
{
    LoopNestBuilder b("stores");
    b.loop("r", 0, 3);
    b.loop("i", 0, 192);
    const auto A = b.arrayAt("A", {208}, 0x10000);
    const auto B = b.arrayAt("B", {208}, 0x11000);
    const auto C = b.arrayAt("C", {208}, 0x10800);
    const auto la = b.load(A, {affineVar(1, 1, 8)}, "la");
    const auto lb = b.load(B, {affineVar(1)}, "lb");
    const auto lc = b.load(C, {affineVar(1, 1, 4)}, "lc");
    const auto m = b.op(Opcode::FMul, {use(la), use(lb)}, "m");
    const auto a = b.op(Opcode::FAdd, {use(m), use(lc)}, "a");
    b.store(A, {affineVar(1)}, use(m), "sa");
    b.store(B, {affineVar(1, 1, 8)}, use(a), "sb");
    b.store(C, {affineVar(1)}, use(a), "sc");
    return b.build();
}

TEST(SimulatorPins, StoreHeavyLoopCoherenceTraffic)
{
    const auto nest = storeHeavyLoop();
    cme::CmeAnalysis cme(nest);
    StatGroup totals;
    std::string fold;
    for (const auto &machine : {makeTwoCluster(), makeFourCluster()}) {
        const auto g = ddg::Ddg::build(nest, machine);
        for (const bool rmca : {false, true}) {
            const auto r = rmca ? sched::scheduleRmca(g, machine, 0.0, cme)
                                : sched::scheduleBaseline(g, machine);
            ASSERT_TRUE(r.ok);
            const auto res = simulateLoop(g, r.schedule, machine);
            totals.merge(res.memStats);
            fold += describe(res);
        }
    }
    for (const char *counter :
         {"upgrades", "invalidations", "dirty_supplies", "writebacks"})
        EXPECT_GT(totals.value(counter), 0) << counter;
    EXPECT_EQ(fnv1a(fold), 0x369ee0be5b54c8e8ULL) << std::hex << "0x" << fnv1a(fold) << '\n'
                                 << fold;
}

} // namespace
} // namespace mvp::sim
