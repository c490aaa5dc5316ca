/**
 * @file
 * The exact branch-and-bound backend and the backend registry.
 *
 *  - Property sweep over every workload loop and clustered machine:
 *    the exact search settles within its default node budget, its II
 *    never exceeds the RMCA heuristic's (the acceptance gap property),
 *    never undercuts MII, and every exact schedule passes the same
 *    MRT/bus/lifetime validity checks as the golden RMCA schedules.
 *  - Optimality certificates: II == MII always carries provenOptimal;
 *    a completed pressure search never does worse than a heuristic
 *    schedule at the same II.
 *  - Graceful degradation: a starved budget reports "gap unknown"
 *    instead of a wrong answer.
 *  - Refutation lifting: exhausted II probes persist as certified
 *    lower bounds; pruning toggles never change the answer (nor, with
 *    the tiebreak off, the first feasible leaf); the node-based
 *    tiebreak budget is reproducible and never reads as a budget
 *    failure.
 *  - Registry: built-in names resolve, unknown ones do not, runtime
 *    registration works, and the verify backend fills the gap stats.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "cme/solver.hh"
#include "ddg/ddg.hh"
#include "machine/presets.hh"
#include "sched/backend.hh"
#include "sched/exact/bnb.hh"
#include "workloads/workloads.hh"

namespace mvp::sched
{
namespace
{

int
sumMaxLive(const ModuloSchedule &s)
{
    return std::accumulate(s.maxLive().begin(), s.maxLive().end(), 0);
}

/** The acceptance property: exact II <= rmca II on every loop the
 * search settles within budget (here: all of them), with full
 * validity. */
TEST(ExactVsRmcaGap, ExactNeverWorseAndAlwaysValid)
{
    int solved = 0;
    for (const auto &wl : workloads::allLoops()) {
        const auto &nest = wl.nest;
        cme::CmeAnalysis cme(nest);
        for (int nc : {1, 2, 4}) {
            const auto machine = makeConfig(nc);
            const auto graph = ddg::Ddg::build(nest, machine);
            const std::string label = wl.benchmark + "/" + nest.name() +
                                      "/c" + std::to_string(nc);

            const auto ex = exact::scheduleExact(graph, machine);
            ASSERT_TRUE(ex.ok) << label << ": " << ex.error
                               << " (nodes " << ex.stats.searchNodes
                               << ")";
            ++solved;

            // Same validity bar as the golden RMCA schedules:
            // dependences, FU capacity, bus occupancy, comms,
            // register pressure.
            EXPECT_EQ(ex.schedule.validate(graph, machine), "")
                << label;
            EXPECT_GE(ex.schedule.ii(), ex.stats.mii) << label;
            EXPECT_GE(ex.schedule.ii(), ex.stats.iiLowerBound) << label;
            for (int ml : ex.schedule.maxLive())
                EXPECT_LE(ml, machine.regsPerCluster) << label;

            // II == lower bound must carry the certificate.
            EXPECT_EQ(ex.stats.provenOptimal,
                      ex.schedule.ii() == ex.stats.iiLowerBound)
                << label;

            const auto rm = scheduleRmca(graph, machine, 0.25, cme);
            ASSERT_TRUE(rm.ok) << label;
            EXPECT_LE(ex.schedule.ii(), rm.schedule.ii()) << label;

            // A completed pressure search at the heuristic's II is at
            // least as register-lean as the heuristic (whose schedule
            // lies inside the search space).
            const auto base = scheduleBaseline(graph, machine);
            ASSERT_TRUE(base.ok) << label;
            EXPECT_LE(ex.schedule.ii(), base.schedule.ii()) << label;
            if (ex.stats.pressureOptimal &&
                ex.schedule.ii() == base.schedule.ii()) {
                EXPECT_LE(sumMaxLive(ex.schedule),
                          sumMaxLive(base.schedule))
                    << label;
            }
        }
    }
    // The sweep really covered the suite (8 benchmarks x 4 loops x 3
    // machines).
    EXPECT_EQ(solved, 96);
}

TEST(ExactBackend, Deterministic)
{
    const auto bench = workloads::makeHydro2d();
    const auto machine = makeTwoCluster();
    const auto graph = ddg::Ddg::build(bench.loops[0], machine);
    const auto a = exact::scheduleExact(graph, machine);
    const auto b = exact::scheduleExact(graph, machine);
    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    EXPECT_EQ(a.schedule.ii(), b.schedule.ii());
    EXPECT_EQ(a.stats.searchNodes, b.stats.searchNodes);
    for (std::size_t v = 0; v < graph.size(); ++v) {
        EXPECT_EQ(a.schedule.placed(static_cast<OpId>(v)).time,
                  b.schedule.placed(static_cast<OpId>(v)).time);
        EXPECT_EQ(a.schedule.placed(static_cast<OpId>(v)).cluster,
                  b.schedule.placed(static_cast<OpId>(v)).cluster);
    }
}

TEST(ExactBackend, StarvedBudgetDegradesGracefully)
{
    const auto bench = workloads::makeApplu();
    const auto machine = makeFourCluster();
    const auto graph = ddg::Ddg::build(bench.loops[1], machine);
    exact::BnbOptions opt;
    opt.nodeBudget = 3;
    const auto r = exact::scheduleExact(graph, machine, opt);
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(r.stats.budgetExhausted);
    EXPECT_FALSE(r.stats.provenOptimal);
    EXPECT_NE(r.error.find("budget"), std::string::npos);
}

TEST(ExactBackend, TiebreakOffStopsAtFirstSchedule)
{
    const auto bench = workloads::makeSwim();
    const auto machine = makeTwoCluster();
    const auto graph = ddg::Ddg::build(bench.loops[0], machine);
    exact::BnbOptions all;
    exact::BnbOptions first;
    first.tiebreakPressure = false;
    const auto a = exact::scheduleExact(graph, machine, all);
    const auto b = exact::scheduleExact(graph, machine, first);
    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    EXPECT_EQ(a.schedule.ii(), b.schedule.ii());
    EXPECT_LE(b.stats.searchNodes, a.stats.searchNodes);
    EXPECT_LE(sumMaxLive(a.schedule), sumMaxLive(b.schedule));
    EXPECT_FALSE(b.stats.pressureOptimal);
}

/** Refutation lifting: when the minimal feasible II sits above MII,
 * the exhausted probes below it persist as a certified lower bound —
 * the certificate is lb == II, not lb == MII. */
TEST(ExactEngine, RefutedProbesLiftTheLowerBound)
{
    int lifted = 0;
    for (const auto &wl : workloads::allLoops()) {
        for (int nc : {2, 4}) {
            const auto machine = makeConfig(nc);
            const auto graph = ddg::Ddg::build(wl.nest, machine);
            const auto r = exact::scheduleExact(graph, machine);
            ASSERT_TRUE(r.ok) << wl.nest.name();
            if (!r.stats.provenOptimal ||
                r.schedule.ii() == r.stats.mii)
                continue;
            // Optimality above MII can only come from refutations.
            EXPECT_EQ(r.stats.iiLowerBound, r.schedule.ii())
                << wl.nest.name() << "/c" << nc;
            EXPECT_GT(r.stats.iiAttempts, 1)
                << wl.nest.name() << "/c" << nc;
            ++lifted;
        }
    }
    // The property must not hold vacuously.
    EXPECT_GT(lifted, 0);
}

/** Pruning is invisible in the answer: conflict learning may only
 * change node counts, never the II, the bound or the certificate.
 * With the pressure tiebreak off (the first feasible leaf wins) the
 * leaf itself — every placement — is identical too. */
TEST(ExactEngine, PruningTogglesNeverChangeTheAnswer)
{
    for (const auto &wl : workloads::allLoops()) {
        for (int nc : {1, 2, 4}) {
            const auto machine = makeConfig(nc);
            const auto graph = ddg::Ddg::build(wl.nest, machine);
            for (const bool tiebreak : {true, false}) {
                const std::string label =
                    wl.benchmark + "/" + wl.nest.name() + "/c" +
                    std::to_string(nc) + " tiebreak " +
                    std::to_string(tiebreak);
                exact::ExactOptions learning;
                learning.tiebreakPressure = tiebreak;
                exact::ExactOptions plain = learning;
                plain.conflictLearning = false;
                const auto a =
                    exact::scheduleExact(graph, machine, learning);
                const auto b =
                    exact::scheduleExact(graph, machine, plain);
                ASSERT_TRUE(a.ok) << label << ": " << a.error;
                ASSERT_TRUE(b.ok) << label << ": " << b.error;
                EXPECT_EQ(a.schedule.ii(), b.schedule.ii()) << label;
                EXPECT_EQ(a.stats.iiLowerBound, b.stats.iiLowerBound)
                    << label;
                EXPECT_EQ(a.stats.provenOptimal, b.stats.provenOptimal)
                    << label;
                if (tiebreak)
                    continue;
                for (std::size_t v = 0; v < graph.size(); ++v) {
                    const auto pa =
                        a.schedule.placed(static_cast<OpId>(v));
                    const auto pb =
                        b.schedule.placed(static_cast<OpId>(v));
                    EXPECT_EQ(pa.time, pb.time) << label << " op " << v;
                    EXPECT_EQ(pa.cluster, pb.cluster)
                        << label << " op " << v;
                }
            }
        }
    }
}

/** The tiebreak allowance is node-based so its outcome is a pure
 * function of the inputs: two runs agree exactly, and running out of
 * allowance ends the phase without reading as a budget failure. */
TEST(ExactEngine, TiebreakBudgetIsDeterministicAndBenign)
{
    const auto bench = workloads::makeSwim();
    const auto machine = makeTwoCluster();
    const auto graph = ddg::Ddg::build(bench.loops[0], machine);

    exact::ExactOptions opt;
    opt.tiebreakBudget = 1;
    const auto a = exact::scheduleExact(graph, machine, opt);
    const auto b = exact::scheduleExact(graph, machine, opt);
    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    EXPECT_FALSE(a.stats.budgetExhausted);
    EXPECT_FALSE(a.stats.pressureOptimal);
    EXPECT_EQ(a.stats.searchNodes, b.stats.searchNodes);
    for (std::size_t v = 0; v < graph.size(); ++v) {
        EXPECT_EQ(a.schedule.placed(static_cast<OpId>(v)).time,
                  b.schedule.placed(static_cast<OpId>(v)).time);
        EXPECT_EQ(a.schedule.placed(static_cast<OpId>(v)).cluster,
                  b.schedule.placed(static_cast<OpId>(v)).cluster);
    }

    // The full-allowance run finds an at-least-as-lean schedule and
    // the same II (the certificate precedes the tiebreak).
    const auto full = exact::scheduleExact(graph, machine);
    ASSERT_TRUE(full.ok);
    EXPECT_EQ(full.schedule.ii(), a.schedule.ii());
}

TEST(BackendRegistry, BuiltinsResolve)
{
    auto &reg = BackendRegistry::instance();
    for (const char *name : {"baseline", "rmca", "exact", "verify"}) {
        EXPECT_TRUE(reg.has(name)) << name;
        const auto backend = reg.create(name);
        ASSERT_NE(backend, nullptr);
        EXPECT_EQ(backend->name(), name);
    }
    EXPECT_FALSE(reg.has("simulated-annealing"));
    // The registry is a process-wide singleton other tests may extend
    // (RuntimeRegistration adds one), so check containment and order,
    // not exact contents.
    const auto names = reg.names();
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
    for (const char *name : {"baseline", "exact", "rmca", "verify"})
        EXPECT_NE(std::find(names.begin(), names.end(), name),
                  names.end())
            << name;
}

TEST(BackendRegistry, RuntimeRegistration)
{
    struct Null : SchedulerBackend
    {
        std::string_view name() const override { return "null"; }
        ScheduleResult schedule(const ddg::Ddg &, const MachineConfig &,
                                const SchedulerOptions &,
                                SchedContext &) const override
        {
            ScheduleResult r;
            r.error = "null backend never schedules";
            return r;
        }
    };
    auto &reg = BackendRegistry::instance();
    reg.add("null", [] { return std::make_unique<Null>(); });
    EXPECT_TRUE(reg.has("null"));
    const auto bench = workloads::makeSwim();
    const auto machine = makeTwoCluster();
    const auto graph = ddg::Ddg::build(bench.loops[0], machine);
    const auto r =
        scheduleWithBackend("null", graph, machine, SchedulerOptions{});
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("null backend"), std::string::npos);
}

TEST(BackendRegistry, HeuristicBackendsMatchDirectEngines)
{
    const auto bench = workloads::makeTomcatv();
    const auto machine = makeTwoCluster();
    const auto &nest = bench.loops[0];
    const auto graph = ddg::Ddg::build(nest, machine);
    cme::CmeAnalysis cme(nest);

    SchedulerOptions opt;
    opt.missThreshold = 0.25;
    opt.locality = &cme;
    const auto via_reg = scheduleWithBackend("rmca", graph, machine, opt);
    const auto direct = scheduleRmca(graph, machine, 0.25, cme);
    ASSERT_TRUE(via_reg.ok);
    ASSERT_TRUE(direct.ok);
    EXPECT_EQ(via_reg.schedule.ii(), direct.schedule.ii());
    for (std::size_t v = 0; v < graph.size(); ++v) {
        EXPECT_EQ(via_reg.schedule.placed(static_cast<OpId>(v)).time,
                  direct.schedule.placed(static_cast<OpId>(v)).time);
        EXPECT_EQ(
            via_reg.schedule.placed(static_cast<OpId>(v)).cluster,
            direct.schedule.placed(static_cast<OpId>(v)).cluster);
    }
}

TEST(VerifyBackend, ReportsTheGap)
{
    const auto bench = workloads::makeHydro2d();
    const auto machine = makeTwoCluster();
    const auto &nest = bench.loops[0];   // hydro2d.eos: a known gap
    const auto graph = ddg::Ddg::build(nest, machine);
    cme::CmeAnalysis cme(nest);

    SchedulerOptions opt;
    opt.missThreshold = 0.25;
    opt.locality = &cme;
    const auto r = scheduleWithBackend("verify", graph, machine, opt);
    ASSERT_TRUE(r.ok);
    ASSERT_TRUE(r.stats.gapKnown);
    EXPECT_GE(r.stats.exactII, r.stats.mii);
    EXPECT_EQ(r.stats.iiGap, r.schedule.ii() - r.stats.exactII);
    EXPECT_GE(r.stats.iiGap, 0);
    // The verify result is the *heuristic* schedule (verify measures,
    // it does not replace).
    const auto rm = scheduleRmca(graph, machine, 0.25, cme);
    ASSERT_TRUE(rm.ok);
    EXPECT_EQ(r.schedule.ii(), rm.schedule.ii());
}

} // namespace
} // namespace mvp::sched
