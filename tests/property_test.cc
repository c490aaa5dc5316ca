/**
 * @file
 * Cross-cutting properties over the whole pipeline, swept across
 * workloads, machines, schedulers and thresholds:
 *
 *  - every schedule validates and respects mII;
 *  - the simulator's compute cycles equal the paper's closed form
 *    NTIMES * (NITER + SC - 1) * II, and op counts are exact;
 *  - VLIW expansion contains exactly SC instances of every operation;
 *  - everything is bit-deterministic run-to-run;
 *  - the schedule validator catches every class of corruption
 *    (dependence, FU, bus, comm, register-pressure violations);
 *  - strided addresses (start + k * stride) equal addressOf at every
 *    point, on the builtin corpus, generated loops and nests with
 *    negative coefficients and non-unit steps.
 */

#include <gtest/gtest.h>

#include "cme/solver.hh"
#include "ddg/ddg.hh"
#include "gen/generator.hh"
#include "ir/builder.hh"
#include "machine/presets.hh"
#include "sched/scheduler.hh"
#include "sim/simulator.hh"
#include "vliw/kernel.hh"
#include "workloads/workloads.hh"

namespace mvp
{
namespace
{

struct PipelineCase
{
    std::string bench;
    std::size_t loop_index;
    int clusters;
    bool rmca;
    double threshold;

    std::string name() const
    {
        return bench + "_" + std::to_string(loop_index) + "_" +
               std::to_string(clusters) + "c_" +
               (rmca ? "rmca" : "base") + "_t" +
               std::to_string(static_cast<int>(threshold * 100));
    }
};

class PipelineProperty : public ::testing::TestWithParam<PipelineCase>
{
};

TEST_P(PipelineProperty, EndToEndInvariants)
{
    const auto &param = GetParam();
    const auto bench = workloads::benchmarkByName(param.bench);
    ASSERT_LT(param.loop_index, bench.loops.size());
    const auto &nest = bench.loops[param.loop_index];
    const auto machine = makeConfig(param.clusters);
    const auto graph = ddg::Ddg::build(nest, machine);
    cme::CmeAnalysis cme(nest);

    sched::SchedulerOptions opt;
    opt.memoryAware = param.rmca;
    opt.missThreshold = param.threshold;
    opt.locality = &cme;
    auto r = sched::ClusteredModuloScheduler(graph, machine, opt).run();
    ASSERT_TRUE(r.ok) << r.error;

    // 1. Static legality.
    EXPECT_EQ(r.schedule.validate(graph, machine), "");
    EXPECT_GE(r.schedule.ii(), r.stats.mii);
    for (int ml : r.schedule.maxLive())
        EXPECT_LE(ml, machine.regsPerCluster);

    // 2. The NCYCLE_compute closed form (§2.2).
    const auto sim = sim::simulateLoop(graph, r.schedule, machine);
    const Cycle expected =
        nest.outerExecutions() *
        (nest.innerTripCount() + r.schedule.stageCount() - 1) *
        r.schedule.ii();
    EXPECT_EQ(sim.computeCycles, expected);
    EXPECT_EQ(sim.opsExecuted,
              static_cast<std::int64_t>(nest.size()) *
                  nest.innerTripCount() * nest.outerExecutions());
    EXPECT_EQ(sim.memAccesses,
              static_cast<std::int64_t>(nest.memoryOps().size()) *
                  nest.innerTripCount() * nest.outerExecutions());

    // 3. VLIW expansion: SC instances of every op.
    const auto img =
        vliw::KernelImage::generate(graph, r.schedule, machine);
    const int sc = r.schedule.stageCount();
    std::vector<int> instances(nest.size(), 0);
    auto count_block = [&](const std::vector<vliw::VliwInstr> &block) {
        for (const auto &instr : block)
            for (const auto &cw : instr.clusters)
                for (const auto &units : cw.fu)
                    for (const auto &slot : units)
                        if (!slot.isNop())
                            ++instances[static_cast<std::size_t>(
                                slot.op)];
    };
    count_block(img.prologue());
    count_block(img.kernel());
    count_block(img.epilogue());
    for (std::size_t v = 0; v < nest.size(); ++v)
        EXPECT_EQ(instances[v], sc) << "op " << v;

    // 4. Determinism.
    auto r2 = sched::ClusteredModuloScheduler(graph, machine, opt).run();
    ASSERT_TRUE(r2.ok);
    EXPECT_EQ(r2.schedule.ii(), r.schedule.ii());
    for (std::size_t v = 0; v < nest.size(); ++v) {
        EXPECT_EQ(r2.schedule.placed(static_cast<OpId>(v)).time,
                  r.schedule.placed(static_cast<OpId>(v)).time);
        EXPECT_EQ(r2.schedule.placed(static_cast<OpId>(v)).cluster,
                  r.schedule.placed(static_cast<OpId>(v)).cluster);
    }
    const auto sim2 = sim::simulateLoop(graph, r2.schedule, machine);
    EXPECT_EQ(sim2.totalCycles(), sim.totalCycles());
}

std::vector<PipelineCase>
pipelineCases()
{
    std::vector<PipelineCase> cases;
    // Two loops from each suite; alternate scheduler/threshold/machine
    // combinations so the sweep stays fast but covers the space.
    int salt = 0;
    for (const auto &name : workloads::benchmarkNames()) {
        for (std::size_t li : {0u, 2u}) {
            const int clusters = (salt % 2 == 0) ? 2 : 4;
            const bool rmca = (salt / 2) % 2 == 0;
            const double thr = (salt % 3 == 0) ? 0.0
                               : (salt % 3 == 1) ? 0.25
                                                 : 1.0;
            cases.push_back({name, li, clusters, rmca, thr});
            ++salt;
        }
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, PipelineProperty,
                         ::testing::ValuesIn(pipelineCases()),
                         [](const auto &info) {
                             return info.param.name();
                         });

// ------------------------------------------- validator mutation tests

struct Fixture
{
    ir::LoopNest nest;
    MachineConfig machine;
    std::unique_ptr<ddg::Ddg> graph;
    sched::ModuloSchedule schedule;

    Fixture()
        : nest(makeNest()), machine(makeTwoCluster())
    {
        graph = std::make_unique<ddg::Ddg>(
            ddg::Ddg::build(nest, machine));
        auto r = sched::scheduleBaseline(*graph, machine);
        EXPECT_TRUE(r.ok);
        schedule = std::move(r.schedule);
        EXPECT_EQ(schedule.validate(*graph, machine), "");
    }

    static ir::LoopNest makeNest()
    {
        using namespace mvp::ir;
        LoopNestBuilder b("mutate");
        b.loop("i", 0, 64);
        const auto A = b.arrayAt("A", {66}, 0x10000);
        const auto B = b.arrayAt("B", {66}, 0x12000);
        const auto la = b.load(A, {affineVar(0)}, "la");
        const auto lb = b.load(B, {affineVar(0, 1, 1)}, "lb");
        const auto m = b.op(Opcode::FMul, {use(la), use(lb)}, "m");
        b.store(A, {affineVar(0)}, use(m), "s");
        return b.build();
    }
};

/**
 * Check LoopNest::stridedAddressOf against addressOf for every memory
 * op over the first, second, middle and last innermost-loop executions.
 */
void
expectStridedAddressesExact(const ir::LoopNest &nest)
{
    const ir::IterationSpace space(nest);
    const std::int64_t inner = nest.innerTripCount();
    const std::int64_t execs = nest.outerExecutions();
    std::vector<std::int64_t> ivs;
    std::vector<std::int64_t> point;
    for (const std::int64_t exec : {std::int64_t{0}, std::int64_t{1},
                                    execs / 2, execs - 1}) {
        if (exec >= execs)
            continue;
        for (const OpId op : nest.memoryOps()) {
            const ir::AffineRef &ref = *nest.op(op).memRef;
            space.at(exec * inner, ivs);
            const ir::StridedAddress addr = nest.stridedAddressOf(ref, ivs);
            for (std::int64_t k = 0; k < inner; ++k) {
                space.at(exec * inner + k, point);
                ASSERT_EQ(addr.at(k), nest.addressOf(ref, point))
                    << nest.name() << " op " << op << " execution "
                    << exec << " iteration " << k;
            }
        }
    }
}

TEST(StridedAddress, MatchesAddressOfEverywhere)
{
    for (const auto &named : workloads::allLoops())
        expectStridedAddressesExact(named.nest);
    for (std::uint64_t i = 0; i < 200; ++i)
        expectStridedAddressesExact(
            gen::generateScenario(gen::deriveSeed(0xd1ff, i)).nest);

    // The generator emits unit steps and positive coefficients only:
    // cover negative coefficients (descending addresses, so a stride
    // that wraps mod 2^64), non-unit steps, non-zero lower bounds and
    // wide elements by hand.
    ir::LoopNestBuilder b("negative");
    b.loop("r", 1, 7, 2);
    b.loop("i", 3, 61, 3);
    const auto A = b.array("A", {8, 128});
    const auto B = b.array("B", {200}, 8);
    const auto l = b.load(A, {ir::AffineExpr{{-1, 0}, 6},
                              ir::AffineExpr{{0, -2}, 125}});
    const auto m = b.load(B, {ir::AffineExpr{{3, 1}, 0}});
    const auto s = b.op(ir::Opcode::FAdd, {ir::use(l), ir::use(m)});
    b.store(B, {ir::AffineExpr{{-5, -3}, 205}}, ir::use(s));
    expectStridedAddressesExact(b.build());
}

TEST(ValidatorMutation, DependenceViolationCaught)
{
    Fixture f;
    // Pull the consumer of the loads before them.
    f.schedule.placed(2).time = 0;
    const std::string err = f.schedule.validate(*f.graph, f.machine);
    EXPECT_NE(err.find("->"), std::string::npos);
}

TEST(ValidatorMutation, MissingCommCaught)
{
    Fixture f;
    if (f.schedule.comms().empty())
        GTEST_SKIP() << "schedule needed no communication";
    f.schedule.comms().clear();
    const std::string err = f.schedule.validate(*f.graph, f.machine);
    EXPECT_NE(err.find("without a comm"), std::string::npos);
}

TEST(ValidatorMutation, FuOversubscriptionCaught)
{
    Fixture f;
    // Force both loads into the same cluster/slot plus the store: 3 MEM
    // ops in one slot of a 2-MEM cluster.
    auto &p0 = f.schedule.placed(0);
    auto &p1 = f.schedule.placed(1);
    auto &p3 = f.schedule.placed(3);
    p1.cluster = p0.cluster;
    p1.time = p0.time;
    p3.cluster = p0.cluster;
    p3.time = p0.time;
    const std::string err = f.schedule.validate(*f.graph, f.machine);
    EXPECT_NE(err.find("oversubscribes"), std::string::npos);
}

TEST(ValidatorMutation, EarlyCommCaught)
{
    Fixture f;
    if (f.schedule.comms().empty())
        GTEST_SKIP() << "schedule needed no communication";
    f.schedule.comms()[0].xferStart = -5;
    const std::string err = f.schedule.validate(*f.graph, f.machine);
    EXPECT_NE(err.find("before the value is produced"),
              std::string::npos);
}

TEST(ValidatorMutation, DoubleBookedBusCaught)
{
    Fixture f;
    if (f.schedule.comms().empty())
        GTEST_SKIP() << "schedule needed no communication";
    // Duplicate the comm onto the same bus and slot for a different
    // producer (op 1).
    auto copy = f.schedule.comms()[0];
    copy.producer = copy.producer == 0 ? 1 : 0;
    copy.from = f.schedule.placed(copy.producer).cluster;
    copy.to = copy.from == 0 ? 1 : 0;
    copy.xferStart =
        f.schedule.placed(copy.producer).time + 1000;   // same slot mod?
    // Align modulo slots with the original reservation.
    copy.xferStart = f.schedule.comms()[0].xferStart + f.schedule.ii();
    f.schedule.comms().push_back(copy);
    const std::string err = f.schedule.validate(*f.graph, f.machine);
    EXPECT_NE(err.find("double-booked"), std::string::npos);
}

TEST(ValidatorMutation, RegisterOverflowCaught)
{
    Fixture f;
    f.schedule.setMaxLive({999, 1});
    const std::string err = f.schedule.validate(*f.graph, f.machine);
    EXPECT_NE(err.find("registers"), std::string::npos);
}

TEST(ValidatorMutation, BadClusterCaught)
{
    Fixture f;
    f.schedule.placed(0).cluster = 7;
    const std::string err = f.schedule.validate(*f.graph, f.machine);
    EXPECT_NE(err.find("invalid cluster"), std::string::npos);
}

} // namespace
} // namespace mvp
