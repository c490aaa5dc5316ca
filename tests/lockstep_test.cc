/**
 * @file
 * Hand-computed lockstep-stall scenarios and CME equation edge cases.
 *
 * These tests pin the simulator's stall arithmetic to closed forms on
 * loops small enough to reason about exactly, and probe the CME solver
 * where the cold/replacement equations interact (associativity, line
 * size, backward-window capping).
 */

#include <gtest/gtest.h>

#include "cme/oracle.hh"
#include "cme/solver.hh"
#include "ddg/ddg.hh"
#include "ir/builder.hh"
#include "machine/presets.hh"
#include "sched/scheduler.hh"
#include "sim/simulator.hh"

namespace mvp
{
namespace
{

using namespace mvp::ir;

// ------------------------------------------------------------- lockstep

TEST(Lockstep, SingleColdMissStallsExactShortfall)
{
    // One load, one consumer, one iteration: the consumer is scheduled
    // at hit latency but the (cold) miss completes at
    // issue + latCacheHit + memBusLatency + latMainMemory. The machine
    // must stall exactly the shortfall.
    LoopNestBuilder b("one");
    b.loop("i", 0, 1);
    const auto A = b.arrayAt("A", {1}, 0x1000);
    const auto l = b.load(A, {affineVar(0)}, "l");
    b.op(Opcode::FMul, {use(l), liveIn()}, "m");
    const auto nest = b.build();

    const auto machine = makeUnified();
    const auto g = ddg::Ddg::build(nest, machine);
    const auto r = sched::scheduleBaseline(g, machine);
    ASSERT_TRUE(r.ok);
    const auto sim = sim::simulateLoop(g, r.schedule, machine);

    // Consumer scheduled latCacheHit after the load; the actual data
    // needs latCacheHit + memBusLatency + latMainMemory.
    const Cycle shortfall = machine.memBusLatency + machine.latMainMemory;
    EXPECT_EQ(sim.stallCycles, shortfall);
}

TEST(Lockstep, UnconsumedMissCausesNoStall)
{
    // A missing load whose value feeds only a store placed far enough
    // away: nobody waits inside the window, so no stall.
    LoopNestBuilder b("unconsumed");
    b.loop("i", 0, 1);
    const auto A = b.arrayAt("A", {16}, 0x1000);
    b.load(A, {affineVar(0)}, "l");
    b.op(Opcode::FMul, {liveIn(), liveIn()}, "m");
    const auto nest = b.build();
    const auto machine = makeUnified();
    const auto g = ddg::Ddg::build(nest, machine);
    const auto r = sched::scheduleBaseline(g, machine);
    ASSERT_TRUE(r.ok);
    const auto sim = sim::simulateLoop(g, r.schedule, machine);
    EXPECT_EQ(sim.stallCycles, 0);
}

TEST(Lockstep, StallShiftsEveryClusterTogether)
{
    // Two independent chains in different clusters; only one chain's
    // load misses. Lockstep means the whole machine pays once per miss:
    // the total equals the one-chain stall, not double.
    LoopNestBuilder b("pair");
    b.loop("r", 0, 2);
    b.loop("i", 0, 64);
    const auto A = b.arrayAt("A", {64}, 0x10000);   // 256 B, resident
    const auto C = b.arrayAt("C", {64}, 0x1A080);   // staggered
    const auto la = b.load(A, {affineVar(1)}, "la");
    const auto ma = b.op(Opcode::FMul, {use(la), liveIn()}, "ma");
    const auto lc = b.load(C, {affineVar(1)}, "lc");
    const auto mc = b.op(Opcode::FMul, {use(lc), liveIn()}, "mc");
    (void)ma;
    (void)mc;
    const auto nest = b.build();

    const auto machine = makeTwoCluster();
    const auto g = ddg::Ddg::build(nest, machine);
    const auto r = sched::scheduleBaseline(g, machine);
    ASSERT_TRUE(r.ok);
    const auto sim = sim::simulateLoop(g, r.schedule, machine);
    // Both arrays are resident after warm-up: stall only on the cold
    // fills of 8+8 lines, and the second sweep is stall-free.
    EXPECT_EQ(sim.memStats.value("memory_fills"), 16);
    EXPECT_LE(sim.stallCycles,
              16 * (machine.memBusLatency + machine.latMainMemory));
}

TEST(Lockstep, PromotedLoadNeverStallsItsConsumer)
{
    // A load promoted to the miss latency: even on a guaranteed miss
    // the consumer is scheduled late enough, so stalls only come from
    // bus contention beyond the scheduler's knowledge — with unbounded
    // buses, zero.
    LoopNestBuilder b("promoted");
    b.loop("r", 0, 2);
    b.loop("i", 0, 256);
    const auto A = b.arrayAt("A", {256}, 0x10000);
    const auto B = b.arrayAt("B", {256}, 0x12000);   // ping-pong with A
    const auto la = b.load(A, {affineVar(1)}, "la");
    const auto lb = b.load(B, {affineVar(1)}, "lb");
    b.op(Opcode::FMul, {use(la), use(lb)}, "m");
    const auto nest = b.build();

    auto machine = withUnboundedBuses(makeUnified(), 1, 1);
    const auto g = ddg::Ddg::build(nest, machine);
    cme::CmeAnalysis cme(nest);
    const auto r = sched::scheduleBaseline(g, machine, 0.0, &cme);
    ASSERT_TRUE(r.ok);
    // At least the conflicting stream is promoted; the consumer reads
    // both operands at the promoted distance, so even the unpromoted
    // load's misses are covered.
    ASSERT_GE(r.stats.missScheduledLoads, 1);
    const auto sim = sim::simulateLoop(g, r.schedule, machine);
    EXPECT_EQ(sim.stallCycles, 0);
}

TEST(Lockstep, MshrFullStallsAreCounted)
{
    // Ten parallel miss streams against a 2-entry MSHR: issue stalls
    // must appear in the total.
    LoopNestBuilder b("mshr");
    b.loop("i", 0, 64);
    const auto A = b.arrayAt("A", {64 * 10}, 0x10000);
    for (int k = 0; k < 10; ++k) {
        std::string name = "l";
        name += std::to_string(k);
        b.load(A, {affineVar(0, 10, k)}, name);
    }
    const auto nest = b.build();
    auto machine = withUnboundedBuses(makeUnified(), 1, 1);
    machine.mshrEntries = 2;
    const auto g = ddg::Ddg::build(nest, machine);
    const auto r = sched::scheduleBaseline(g, machine);
    ASSERT_TRUE(r.ok);
    const auto sim = sim::simulateLoop(g, r.schedule, machine);
    EXPECT_GT(sim.memStats.value("mshr_full_stall_cycles"), 0);
    EXPECT_GE(sim.stallCycles,
              sim.memStats.value("mshr_full_stall_cycles"));
}

// ---------------------------------------------------------- cme corners

TEST(CmeCorners, LineSizeChangesSpatialRatio)
{
    LoopNestBuilder b("lines");
    b.loop("r", 0, 4);
    b.loop("i", 0, 1024);
    const auto A = b.arrayAt("A", {1024}, 0x10000);   // 4 KB stream
    const auto l = b.load(A, {affineVar(1)}, "l");
    b.op(Opcode::FMul, {use(l), liveIn()}, "m");
    const auto nest = b.build();
    cme::CmeAnalysis cme(nest);
    // In a 2 KB cache the 4 KB array never stays resident: ratio =
    // elemSize/lineBytes.
    EXPECT_NEAR(cme.missRatio({}, l, CacheGeom{2048, 32, 1}), 0.125,
                0.05);
    EXPECT_NEAR(cme.missRatio({}, l, CacheGeom{2048, 64, 1}), 0.0625,
                0.04);
}

TEST(CmeCorners, AssociativityResolvesTwoWayConflict)
{
    LoopNestBuilder b("assoc");
    b.loop("r", 0, 4);
    b.loop("i", 0, 512);
    const auto A = b.arrayAt("A", {512}, 0x10000);
    const auto B = b.arrayAt("B", {512}, 0x10000 + 0x2000);
    const auto la = b.load(A, {affineVar(1)}, "la");
    const auto lb = b.load(B, {affineVar(1)}, "lb");
    b.op(Opcode::FMul, {use(la), use(lb)}, "m");
    const auto nest = b.build();
    cme::CmeAnalysis cme(nest);
    cme::CacheOracle oracle(nest);
    const std::vector<OpId> set{la, lb};
    // Direct-mapped: ping-pong. 2-way: both streams fit.
    const CacheGeom dm{4096, 32, 1};
    const CacheGeom two_way{4096, 32, 2};
    EXPECT_GT(cme.missesPerIteration(set, dm), 1.5);
    EXPECT_LT(cme.missesPerIteration(set, two_way), 0.4);
    // And the solver agrees with the exact oracle in both regimes.
    EXPECT_NEAR(cme.missesPerIteration(set, dm),
                oracle.missesPerIteration(set, dm), 0.3);
    EXPECT_NEAR(cme.missesPerIteration(set, two_way),
                oracle.missesPerIteration(set, two_way), 0.3);
}

TEST(CmeCorners, WindowCapTreatsDistantReuseAsMiss)
{
    // Reuse distance far beyond the walk window: the solver must call
    // it a miss (capacity behaviour) rather than walk forever.
    LoopNestBuilder b("distant");
    b.loop("r", 0, 3);
    b.loop("i", 0, 8192);
    const auto A = b.arrayAt("A", {8192}, 0x10000);   // 32 KB stream
    const auto l = b.load(A, {affineVar(1, 1, 0)}, "l");
    b.op(Opcode::FMul, {use(l), liveIn()}, "m");
    const auto nest = b.build();
    cme::CmeParams params;
    params.maxWalk = 64;   // tiny window
    cme::CmeAnalysis cme(nest, params);
    // Within-line reuse is found inside any window; line-boundary
    // accesses would need an 8K-access walk and must cap out as misses.
    EXPECT_NEAR(cme.missRatio({}, l, CacheGeom{2048, 32, 1}), 0.125,
                0.05);
}

TEST(CmeCorners, StoresCountInTheEquations)
{
    // A store stream interferes like a load stream (write-allocate).
    LoopNestBuilder b("stores");
    b.loop("r", 0, 4);
    b.loop("i", 0, 512);
    const auto A = b.arrayAt("A", {512}, 0x10000);
    const auto B = b.arrayAt("B", {512}, 0x12000);
    const auto la = b.load(A, {affineVar(1)}, "la");
    const auto m = b.op(Opcode::FMul, {use(la), liveIn()}, "m");
    const auto st = b.store(B, {affineVar(1)}, use(m), "sb");
    const auto nest = b.build();
    cme::CmeAnalysis cme(nest);
    const CacheGeom geom{4096, 32, 1};
    const double alone = cme.missRatio({}, la, geom);
    const double with_store = cme.missRatio({st}, la, geom);
    EXPECT_GT(with_store, alone + 0.5);   // the store evicts A's lines
}

} // namespace
} // namespace mvp
