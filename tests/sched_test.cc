/**
 * @file
 * Tests for the modulo-scheduling framework: MRT, MII bounds, the swing
 * ordering, lifetimes, and both schedulers (baseline and RMCA),
 * including the parameterized validity property over machines and
 * thresholds.
 */

#include <gtest/gtest.h>

#include "cme/solver.hh"
#include "harness/motivating.hh"
#include "ir/builder.hh"
#include "machine/presets.hh"
#include "sched/lifetimes.hh"
#include "sched/mii.hh"
#include "sched/mrt.hh"
#include "sched/ordering.hh"
#include "sched/scheduler.hh"

namespace mvp::sched
{
namespace
{

using namespace mvp::ir;

// ------------------------------------------------------------------ MRT

TEST(Mrt, FuCapacityPerSlot)
{
    const auto machine = makeFourCluster();   // 1 FU of each type
    Mrt mrt(machine, 4);
    EXPECT_TRUE(mrt.fuFree(0, 0, FuType::Mem));
    mrt.placeFu(0, 0, FuType::Mem);
    EXPECT_FALSE(mrt.fuFree(0, 0, FuType::Mem));
    EXPECT_TRUE(mrt.fuFree(1, 0, FuType::Mem));     // other slot
    EXPECT_TRUE(mrt.fuFree(0, 1, FuType::Mem));     // other cluster
    EXPECT_TRUE(mrt.fuFree(0, 0, FuType::Int));     // other class
    EXPECT_TRUE(mrt.fuFree(4, 0, FuType::Int));     // wraps mod II
    EXPECT_FALSE(mrt.fuFree(4, 0, FuType::Mem));
    mrt.removeFu(0, 0, FuType::Mem);
    EXPECT_TRUE(mrt.fuFree(0, 0, FuType::Mem));
}

TEST(Mrt, FuLoadTracksPerCluster)
{
    const auto machine = makeTwoCluster();
    Mrt mrt(machine, 3);
    mrt.placeFu(0, 1, FuType::Fp);
    mrt.placeFu(1, 1, FuType::Fp);
    EXPECT_EQ(mrt.fuLoad(1, FuType::Fp), 2);
    EXPECT_EQ(mrt.fuLoad(0, FuType::Fp), 0);
}

TEST(Mrt, BusReservationSpansLatency)
{
    auto machine = makeTwoCluster();
    machine.nRegBuses = 1;
    machine.regBusLatency = 2;
    Mrt mrt(machine, 4);
    const int bus = mrt.findFreeBus(1);
    ASSERT_EQ(bus, 0);
    mrt.reserveBus(bus, 1);   // occupies slots 1 and 2
    EXPECT_EQ(mrt.findFreeBus(1), BUS_NONE);
    EXPECT_EQ(mrt.findFreeBus(2), BUS_NONE);
    EXPECT_EQ(mrt.findFreeBus(0), BUS_NONE); // would cover slots 0,1
    EXPECT_EQ(mrt.findFreeBus(3), 0);    // slots 3,0 free
    mrt.releaseBus(bus, 1);
    EXPECT_EQ(mrt.findFreeBus(1), 0);
    EXPECT_EQ(mrt.busSlotsUsed(), 0);
}

TEST(Mrt, SecondBusUsedWhenFirstBusy)
{
    auto machine = makeTwoCluster();   // 2 buses, latency 1
    Mrt mrt(machine, 2);
    mrt.reserveBus(mrt.findFreeBus(0), 0);
    EXPECT_EQ(mrt.findFreeBus(0), 1);
    mrt.reserveBus(1, 0);
    EXPECT_EQ(mrt.findFreeBus(0), BUS_NONE);
    EXPECT_EQ(mrt.findFreeBus(1), 0);
}

TEST(Mrt, BusLatencyBeyondIiIsStructurallyInfeasible)
{
    auto machine = makeTwoCluster();
    machine.regBusLatency = 4;
    Mrt mrt(machine, 3);
    EXPECT_EQ(mrt.findFreeBus(0), BUS_NONE);
}

TEST(Mrt, UnboundedBusesAlwaysFree)
{
    auto machine = withUnboundedBuses(makeTwoCluster(), 2, 1);
    Mrt mrt(machine, 1);
    EXPECT_EQ(mrt.findFreeBus(0), BUS_UNBOUNDED);
    mrt.reserveBus(BUS_UNBOUNDED, 0);   // no-op
    EXPECT_EQ(mrt.findFreeBus(0), BUS_UNBOUNDED);
}

TEST(Mrt, SlotArithmeticMatchesModulo)
{
    const auto machine = makeTwoCluster();
    Mrt mrt(machine, 5);
    EXPECT_EQ(mrt.slot(0), 0u);
    EXPECT_EQ(mrt.slot(7), 2u);
    EXPECT_EQ(mrt.slot(-1), 4u);
    EXPECT_EQ(mrt.slot(-6), 4u);
    EXPECT_EQ(mrt.nextSlot(4), 0u);
    EXPECT_EQ(mrt.nextSlot(0), 1u);
    EXPECT_EQ(mrt.prevSlot(0), 4u);
    EXPECT_EQ(mrt.prevSlot(3), 2u);
}

TEST(Mrt, SlotVariantsAgreeWithCycleVariants)
{
    auto machine = makeTwoCluster();
    machine.nRegBuses = 2;
    machine.regBusLatency = 2;
    Mrt mrt(machine, 4);
    mrt.placeFu(6, 1, ir::FuType::Mem);   // slot 2
    for (Cycle t = 0; t < 8; ++t)
        EXPECT_EQ(mrt.fuFreeAt(mrt.slot(t), 1, ir::FuType::Mem),
                  mrt.fuFree(t, 1, ir::FuType::Mem));

    mrt.reserveBusAt(0, mrt.slot(3));     // occupies slots 3 and 0
    EXPECT_EQ(mrt.findFreeBusAt(mrt.slot(3)), mrt.findFreeBus(3));
    EXPECT_EQ(mrt.findFreeBusAt(mrt.slot(3)), 1);
    mrt.reserveBusAt(1, mrt.slot(3));
    EXPECT_EQ(mrt.findFreeBus(3), BUS_NONE);
    EXPECT_EQ(mrt.findFreeBus(0), BUS_NONE);   // covers slots 0,1
    EXPECT_EQ(mrt.findFreeBus(1), 0);          // slots 1,2 free
    mrt.releaseBusAt(0, mrt.slot(3));
    mrt.releaseBusAt(1, mrt.slot(3));
    EXPECT_EQ(mrt.busSlotsUsed(), 0);
}

TEST(Mrt, ResetClearsAndResizes)
{
    const auto machine = makeTwoCluster();
    Mrt mrt(machine, 3);
    mrt.placeFu(1, 0, ir::FuType::Int);
    mrt.reserveBus(0, 2);
    EXPECT_EQ(mrt.fuLoad(0, ir::FuType::Int), 1);
    mrt.reset(5);
    EXPECT_EQ(mrt.ii(), 5);
    EXPECT_EQ(mrt.fuLoad(0, ir::FuType::Int), 0);
    EXPECT_EQ(mrt.busSlotsUsed(), 0);
    for (Cycle t = 0; t < 5; ++t)
        EXPECT_TRUE(mrt.fuFree(t, 0, ir::FuType::Int));
}

TEST(Mrt, ManyBusesUseSecondMaskWord)
{
    // More than 64 buses exercises the multi-word occupancy path.
    auto machine = makeTwoCluster();
    machine.nRegBuses = 70;
    machine.regBusLatency = 1;
    Mrt mrt(machine, 2);
    for (int b = 0; b < 70; ++b) {
        EXPECT_EQ(mrt.findFreeBus(0), b);
        mrt.reserveBus(b, 0);
    }
    EXPECT_EQ(mrt.findFreeBus(0), BUS_NONE);
    EXPECT_EQ(mrt.findFreeBus(1), 0);
    mrt.releaseBus(67, 0);
    EXPECT_EQ(mrt.findFreeBus(0), 67);
}

// ------------------------------------------------------------------ MII

TEST(ResMii, BoundByBusiestFuClass)
{
    LoopNestBuilder b("res");
    b.loop("i", 0, 32);
    const auto A = b.array("A", {40});
    // 6 memory ops, 1 FP op: with 4 MEM units total, ResMII = 2.
    std::vector<OpId> loads;
    for (int k = 0; k < 6; ++k)
        loads.push_back(b.load(A, {affineVar(0, 1, k)}));
    b.op(Opcode::FAdd, {use(loads[0]), use(loads[1])});
    const auto nest = b.build();
    EXPECT_EQ(resMii(nest, makeUnified()), 2);
    EXPECT_EQ(resMii(nest, makeTwoCluster()), 2);
    EXPECT_EQ(resMii(nest, makeFourCluster()), 2);
}

TEST(MinII, TakesMaxOfBounds)
{
    LoopNestBuilder b("mix");
    b.loop("i", 0, 32);
    const auto A = b.array("A", {32});
    const auto l = b.load(A, {affineVar(0)});
    b.op(Opcode::FAdd, {use(l), use(b.nextOpId(), 1)});   // RecMII = 2
    const auto nest = b.build();
    const auto machine = makeUnified();
    const auto g = ddg::Ddg::build(nest, machine);
    EXPECT_EQ(resMii(nest, machine), 1);
    EXPECT_EQ(g.recMii(), 2);
    EXPECT_EQ(minII(g, machine), 2);
}

// ------------------------------------------------------------- ordering

TEST(Ordering, CoversAllNodesOnce)
{
    LoopNestBuilder b("cover");
    b.loop("i", 0, 16);
    const auto A = b.array("A", {17});
    const auto l1 = b.load(A, {affineVar(0)});
    const auto l2 = b.load(A, {affineVar(0, 1, 1)});
    const auto m = b.op(Opcode::FMul, {use(l1), use(l2)});
    const auto s = b.op(Opcode::FAdd, {use(m), use(b.nextOpId(), 1)});
    b.store(A, {affineVar(0)}, use(s));
    const auto g = ddg::Ddg::build(b.build(), makeUnified());
    const auto order = computeOrdering(g, g.recMii());
    ASSERT_EQ(order.size(), g.size());
    std::vector<char> seen(g.size(), 0);
    for (OpId v : order) {
        EXPECT_FALSE(seen[static_cast<std::size_t>(v)]);
        seen[static_cast<std::size_t>(v)] = 1;
    }
}

TEST(Ordering, DagNeverFacesBothSides)
{
    // On an acyclic graph the swing ordering must never append a node
    // with both a predecessor and a successor already ordered ([22]).
    LoopNestBuilder b("dag");
    b.loop("i", 0, 16);
    const auto A = b.array("A", {18});
    const auto l1 = b.load(A, {affineVar(0)});
    const auto l2 = b.load(A, {affineVar(0, 1, 1)});
    const auto l3 = b.load(A, {affineVar(0, 1, 2)});
    const auto m1 = b.op(Opcode::FMul, {use(l1), use(l2)});
    const auto m2 = b.op(Opcode::FMul, {use(l2), use(l3)});
    const auto s = b.op(Opcode::FAdd, {use(m1), use(m2)});
    const auto t = b.op(Opcode::FAdd, {use(s), use(l1)});
    b.store(A, {affineVar(0)}, use(t));
    const auto g = ddg::Ddg::build(b.build(), makeUnified());
    const auto order = computeOrdering(g, 2);
    EXPECT_EQ(bothNeighbourCount(g, order), 0);
}

TEST(Ordering, MostCriticalRecurrenceFirst)
{
    LoopNestBuilder b("crit");
    b.loop("i", 0, 16);
    // Slow cycle: fdiv (lat 6) + fadd (lat 2), distance 1 -> RecMII 8.
    const auto d = b.op(Opcode::FDiv, {liveIn(), use(1, 1)}, "d");
    b.op(Opcode::FAdd, {use(d), liveIn()}, "e");
    // Fast cycle: fadd self-loop -> RecMII 2.
    b.op(Opcode::FAdd, {liveIn(), use(b.nextOpId(), 1)}, "f");
    const auto g = ddg::Ddg::build(b.build(), makeUnified());
    const auto order = computeOrdering(g, g.recMii());
    // d or e must come before f.
    std::size_t pos_d = 99;
    std::size_t pos_f = 99;
    for (std::size_t i = 0; i < order.size(); ++i) {
        if (order[i] == 0)
            pos_d = i;
        if (order[i] == 2)
            pos_f = i;
    }
    EXPECT_LT(pos_d, pos_f);
}

// ---------------------------------------------------------- end-to-end

/** Ping-pong loop used across the scheduler tests. */
LoopNest
conflictLoop()
{
    LoopNestBuilder b("conflict");
    b.loop("r", 0, 8);
    b.loop("i", 0, 256);
    const auto B = b.arrayAt("B", {256}, 0x10000);
    const auto C = b.arrayAt("C", {256}, 0x10000 + 0x2000);
    // D is deliberately NOT set-aligned with B/C (offset 0x2480 is no
    // multiple of any cache size), so only the B/C pair ping-pongs.
    const auto D = b.arrayAt("D", {256}, 0x10000 + 0x2480);
    const auto lb = b.load(B, {affineVar(1)}, "lb");
    const auto lc = b.load(C, {affineVar(1)}, "lc");
    const auto m = b.op(Opcode::FMul, {use(lb), use(lc)}, "m");
    b.store(D, {affineVar(1)}, use(m), "sd");
    return b.build();
}

TEST(Scheduler, UnifiedNeedsNoComms)
{
    const auto nest = conflictLoop();
    const auto machine = makeUnified();
    const auto g = ddg::Ddg::build(nest, machine);
    const auto r = scheduleBaseline(g, machine);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.schedule.numComms(), 0u);
    EXPECT_EQ(r.schedule.validate(g, machine), "");
    EXPECT_GE(r.schedule.ii(), r.stats.mii);
}

TEST(Scheduler, AchievesMiiOnSimpleLoop)
{
    const auto nest = conflictLoop();
    const auto machine = makeUnified();
    const auto g = ddg::Ddg::build(nest, machine);
    const auto r = scheduleBaseline(g, machine);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.schedule.ii(), r.stats.mii);   // no recurrences, 4 mem ops
}

TEST(Scheduler, CrossClusterEdgesHaveComms)
{
    const auto nest = conflictLoop();
    const auto machine = makeTwoCluster();
    const auto g = ddg::Ddg::build(nest, machine);
    const auto r = scheduleBaseline(g, machine);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.schedule.validate(g, machine), "");
}

TEST(Scheduler, RmcaSeparatesConflictingLoads)
{
    const auto nest = conflictLoop();
    const auto machine = makeTwoCluster();
    const auto g = ddg::Ddg::build(nest, machine);
    cme::CmeAnalysis cme(nest);
    const auto r = scheduleRmca(g, machine, 1.0, cme);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.schedule.validate(g, machine), "");
    // The two conflicting loads must land in different clusters.
    EXPECT_NE(r.schedule.placed(0).cluster, r.schedule.placed(1).cluster);
    // And the CME prediction for the final partition is nearly no misses
    // beyond the streaming minimum.
    EXPECT_LT(r.stats.predictedMissesPerIter, 0.6);
}

TEST(Scheduler, ThresholdZeroPromotesLikelyMisses)
{
    const auto nest = conflictLoop();
    const auto machine = withUnboundedBuses(makeTwoCluster(), 1, 1);
    const auto g = ddg::Ddg::build(nest, machine);
    cme::CmeAnalysis cme(nest);
    const auto strict = scheduleRmca(g, machine, 1.0, cme);
    const auto eager = scheduleRmca(g, machine, 0.0, cme);
    ASSERT_TRUE(strict.ok && eager.ok);
    EXPECT_EQ(strict.stats.missScheduledLoads, 0);
    EXPECT_GT(eager.stats.missScheduledLoads, 0);
    // Promotion uses the full miss latency on the promoted load.
    bool found = false;
    for (OpId v = 0; v < static_cast<OpId>(g.size()); ++v) {
        const auto &p = eager.schedule.placed(v);
        if (p.missScheduled) {
            EXPECT_EQ(p.outLatency, machine.missLatency());
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(Scheduler, ThresholdRespectsRecurrenceConstraint)
{
    // A load inside a tight recurrence must not adopt the miss latency
    // when that would raise the II.
    LoopNestBuilder b("recload");
    b.loop("r", 0, 4);
    b.loop("i", 1, 129);
    const auto A = b.arrayAt("A", {4, 130}, 0x10000);
    const auto l = b.load(A, {affineVar(0), affineVar(1, 1, -1)}, "l");
    const auto v = b.op(Opcode::FAdd, {use(l), liveIn()}, "v");
    const auto st = b.store(A, {affineVar(0), affineVar(1)}, use(v), "s");
    (void)st;
    const auto nest = b.build();
    const auto machine = withUnboundedBuses(makeTwoCluster(), 1, 1);
    const auto g = ddg::Ddg::build(nest, machine);
    ASSERT_TRUE(g.inRecurrence(l));
    cme::CmeAnalysis cme(nest);
    const auto r = scheduleRmca(g, machine, 0.0, cme);
    ASSERT_TRUE(r.ok) << r.error;
    // The recurrence caps the II: lat(load)+lat(fadd)+lat(store) = 5.
    EXPECT_EQ(r.schedule.placed(l).missScheduled, false);
    EXPECT_LE(r.schedule.ii(), 8);
}

TEST(Scheduler, SingleRegBusSaturationRaisesII)
{
    // Many cross-cluster values with a single 4-cycle bus: the II must
    // grow past the bus occupancy (4 cycles per transfer).
    LoopNestBuilder b("buspressure");
    b.loop("i", 0, 64);
    const auto A = b.arrayAt("A", {70}, 0x10000);
    std::vector<OpId> loads;
    for (int k = 0; k < 4; ++k)
        loads.push_back(b.load(A, {affineVar(0, 1, k)}));
    // A reduction tree forcing values to meet.
    const auto m1 = b.op(Opcode::FMul, {use(loads[0]), use(loads[1])});
    const auto m2 = b.op(Opcode::FMul, {use(loads[2]), use(loads[3])});
    const auto s = b.op(Opcode::FAdd, {use(m1), use(m2)});
    b.store(A, {affineVar(0)}, use(s));
    const auto nest = b.build();

    auto machine = makeFourCluster();   // forces spreading (1 FU each)
    machine.nRegBuses = 1;
    machine.regBusLatency = 4;
    const auto g = ddg::Ddg::build(nest, machine);
    const auto r = scheduleBaseline(g, machine);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.schedule.validate(g, machine), "");
    // Structural floor: a transfer occupies the only bus for 4 cycles,
    // so with at least 2 transfers the II is at least 8... at minimum
    // the II must be >= bus latency.
    EXPECT_GE(r.schedule.ii(), 4);
    if (r.schedule.numComms() >= 2) {
        EXPECT_GE(r.schedule.ii(),
                  static_cast<Cycle>(4 * r.schedule.numComms()));
    }
}

TEST(Scheduler, RegisterPressureForcesHigherII)
{
    // Tiny register files force the scheduler to stretch the II until
    // MaxLive fits.
    LoopNestBuilder b("pressure");
    b.loop("i", 0, 64);
    const auto A = b.arrayAt("A", {80}, 0x10000);
    std::vector<OpId> vals;
    for (int k = 0; k < 6; ++k) {
        const auto l = b.load(A, {affineVar(0, 1, k)});
        vals.push_back(b.op(Opcode::FMul, {use(l), liveIn()}));
    }
    OpId acc = vals[0];
    for (int k = 1; k < 6; ++k)
        acc = b.op(Opcode::FAdd, {use(acc), use(vals[k])});
    b.store(A, {affineVar(0)}, use(acc));
    const auto nest = b.build();

    auto machine = makeUnified();
    const auto g = ddg::Ddg::build(nest, machine);
    const auto normal = scheduleBaseline(g, machine);
    ASSERT_TRUE(normal.ok);

    auto tiny = machine;
    tiny.regsPerCluster = 6;
    const auto squeezed = scheduleBaseline(g, tiny);
    ASSERT_TRUE(squeezed.ok) << squeezed.error;
    EXPECT_EQ(squeezed.schedule.validate(g, tiny), "");
    EXPECT_GE(squeezed.schedule.ii(), normal.schedule.ii());
    for (int ml : squeezed.schedule.maxLive())
        EXPECT_LE(ml, 6);
}

TEST(Scheduler, FailsGracefullyWhenImpossible)
{
    // Two operands must be simultaneously live at their consumer, so one
    // register per cluster can never hold them: every II fails.
    LoopNestBuilder b("impossible");
    b.loop("i", 0, 8);
    const auto A = b.arrayAt("A", {9}, 0x1000);
    const auto l1 = b.load(A, {affineVar(0)});
    const auto l2 = b.load(A, {affineVar(0, 1, 1)});
    const auto s = b.op(Opcode::FAdd, {use(l1), use(l2)});
    b.store(A, {affineVar(0)}, use(s));
    const auto nest = b.build();
    auto machine = makeTwoCluster();
    machine.regsPerCluster = 1;   // hopeless
    const auto g = ddg::Ddg::build(nest, machine);
    SchedulerOptions opt;
    opt.maxII = 16;
    auto r = ClusteredModuloScheduler(g, machine, opt).run();
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("no feasible II"), std::string::npos);
}

// ------------------------------------------------------ reservation table

TEST(ScheduleText, MotivatingLoopTablesArePinned)
{
    // The exact modulo reservation tables fig3_motivating prints:
    // stage-annotated ops per cluster and slot, "*" on miss-scheduled
    // loads, and the register-bus column (an empty one keeps its
    // leading space).
    const auto nest = harness::motivatingLoop();
    const auto machine = harness::motivatingMachine();
    const auto g = ddg::Ddg::build(nest, machine);
    cme::CmeAnalysis cme(nest);

    const auto base = scheduleBaseline(g, machine);
    ASSERT_TRUE(base.ok) << base.error;
    EXPECT_EQ(base.schedule.toString(g, machine),
              "II=3 SC=4 comms=1\n"
              "  0 | LD1(0) MUL1(1)           | LD3(0) MUL2(1)           "
              "| C%5->0\n"
              "  1 | LD2(0) ADD(2)            | LD4(0)                   "
              "| \n"
              "  2 | ST(3)                    |                          "
              "| C%5->0\n");

    const auto rmca = scheduleRmca(g, machine, 1.0, cme);
    ASSERT_TRUE(rmca.ok) << rmca.error;
    EXPECT_EQ(rmca.schedule.toString(g, machine),
              "II=4 SC=3 comms=2\n"
              "  0 | LD1(0) MUL1(1)           | LD2(0)                   "
              "| C%3->0\n"
              "  1 | LD3(0) ADD(2)            | LD4(0)                   "
              "| C%3->0\n"
              "  2 | MUL2(1)                  |                          "
              "| C%1->0\n"
              "  3 | ST(2)                    |                          "
              "| C%1->0\n");

    // Threshold 0 schedules every load for a miss.
    const auto eager = scheduleRmca(g, machine, 0.0, cme);
    ASSERT_TRUE(eager.ok) << eager.error;
    EXPECT_EQ(eager.schedule.toString(g, machine),
              "II=4 SC=6 comms=2\n"
              "  0 | LD1(0)* MUL1(4)          | LD2(0)*                  "
              "| C%3->0\n"
              "  1 | LD3(0)* ADD(5)           | LD4(0)*                  "
              "| C%3->0\n"
              "  2 | MUL2(4)                  |                          "
              "| C%1->0\n"
              "  3 | ST(5)                    |                          "
              "| C%1->0\n");
}

// --------------------------------------------------------- lifetimes

TEST(Lifetimes, ChainLifetimeMatchesHandCount)
{
    LoopNestBuilder b("lt");
    b.loop("i", 0, 16);
    const auto A = b.arrayAt("A", {16}, 0x1000);
    const auto l = b.load(A, {affineVar(0)});
    const auto m = b.op(Opcode::FMul, {use(l), liveIn()});
    b.store(A, {affineVar(0)}, use(m));
    const auto nest = b.build();
    const auto machine = makeUnified();
    const auto g = ddg::Ddg::build(nest, machine);
    const auto r = scheduleBaseline(g, machine);
    ASSERT_TRUE(r.ok);
    const auto lt = computeLifetimes(g, r.schedule, machine);
    ASSERT_EQ(lt.maxLivePerCluster.size(), 1u);
    // II = 1; the load's value lives from t_l+2 to t_m, the mul's from
    // t_m+2 to t_store; at II=1 each overlapping cycle costs a register.
    EXPECT_GE(lt.maxLivePerCluster[0], 2);
    EXPECT_LE(lt.maxLivePerCluster[0], 8);
}

TEST(Lifetimes, RemoteValuesCostRegistersInBothClusters)
{
    const auto nest = conflictLoop();
    const auto machine = makeTwoCluster();
    const auto g = ddg::Ddg::build(nest, machine);
    const auto r = scheduleBaseline(g, machine);
    ASSERT_TRUE(r.ok);
    if (r.schedule.numComms() > 0) {
        const auto lt = computeLifetimes(g, r.schedule, machine);
        EXPECT_GT(lt.maxLivePerCluster[0] + lt.maxLivePerCluster[1], 2);
    }
}

// ----------------------------------------------- parameterized validity

struct SchedCase
{
    const char *name;
    int clusters;
    bool rmca;
    double threshold;
    bool unbounded;
};

class ScheduleValidity : public ::testing::TestWithParam<SchedCase>
{
};

TEST_P(ScheduleValidity, ConflictLoopScheduleIsLegal)
{
    const auto &param = GetParam();
    const auto nest = conflictLoop();
    auto machine = makeConfig(param.clusters);
    if (param.unbounded)
        machine = withUnboundedBuses(machine, 2, 2);
    const auto g = ddg::Ddg::build(nest, machine);
    cme::CmeAnalysis cme(nest);

    SchedulerOptions opt;
    opt.memoryAware = param.rmca;
    opt.missThreshold = param.threshold;
    opt.locality = &cme;
    auto r = ClusteredModuloScheduler(g, machine, opt).run();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.schedule.validate(g, machine), "") << machine.summary();
    EXPECT_GE(r.schedule.ii(), r.stats.mii);
    for (int ml : r.schedule.maxLive())
        EXPECT_LE(ml, machine.regsPerCluster);
}

INSTANTIATE_TEST_SUITE_P(
    Machines, ScheduleValidity,
    ::testing::Values(
        SchedCase{"unified_base", 1, false, 1.0, false},
        SchedCase{"unified_thr0", 1, true, 0.0, false},
        SchedCase{"two_base", 2, false, 1.0, false},
        SchedCase{"two_base_thr0", 2, false, 0.0, false},
        SchedCase{"two_rmca", 2, true, 1.0, false},
        SchedCase{"two_rmca_thr025", 2, true, 0.25, false},
        SchedCase{"two_rmca_thr0_unb", 2, true, 0.0, true},
        SchedCase{"four_base", 4, false, 1.0, false},
        SchedCase{"four_rmca", 4, true, 1.0, false},
        SchedCase{"four_rmca_thr0", 4, true, 0.0, false},
        SchedCase{"four_rmca_unb", 4, true, 0.75, true}),
    [](const auto &info) { return std::string(info.param.name); });

} // namespace
} // namespace mvp::sched
