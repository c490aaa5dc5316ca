/**
 * @file
 * The SAT scheduling backend: the embedded CDCL engine on crafted CNF
 * (propagation, learning, assumption cores, budget degradation), the
 * placement encoder's round trip through the full schedule checker,
 * and the engine-agreement contracts the differential pipeline rides
 * on:
 *
 *  - sat II == exact II (and the same lower bound and certificate) on
 *    all 96 builtin loop x machine combos;
 *  - gap tables byte-identical at jobs 1, 2 and 8;
 *  - an expired wall-clock budget degrades through the exact engine's
 *    error contract, verbatim.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ddg/ddg.hh"
#include "harness/driver.hh"
#include "harness/gapstudy.hh"
#include "machine/presets.hh"
#include "sched/backend.hh"
#include "sched/exact/bnb.hh"
#include "sched/sat/sat.hh"
#include "sched/sat/solver.hh"
#include "workloads/workloads.hh"

namespace mvp::sched
{
namespace
{

using sat::mkLit;
using sat::SolveResult;

/** Pigeonhole principle PHP(n+1, n): UNSAT, and for n >= 3 hard
 * enough that resolution needs genuine conflict analysis. */
void
addPigeonhole(sat::Solver &s, int pigeons, int holes)
{
    std::vector<std::vector<sat::Var>> p(
        static_cast<std::size_t>(pigeons));
    for (auto &row : p)
        for (int h = 0; h < holes; ++h)
            row.push_back(s.newVar());
    for (int i = 0; i < pigeons; ++i) {
        std::vector<sat::Lit> some;
        for (int h = 0; h < holes; ++h)
            some.push_back(mkLit(p[static_cast<std::size_t>(i)]
                                  [static_cast<std::size_t>(h)]));
        ASSERT_TRUE(s.addClause(some));
    }
    for (int h = 0; h < holes; ++h)
        for (int i = 0; i < pigeons; ++i)
            for (int j = i + 1; j < pigeons; ++j)
                ASSERT_TRUE(s.addClause(
                    {~mkLit(p[static_cast<std::size_t>(i)]
                             [static_cast<std::size_t>(h)]),
                     ~mkLit(p[static_cast<std::size_t>(j)]
                             [static_cast<std::size_t>(h)])}));
}

TEST(CdclSolver, UnitPropagationChains)
{
    sat::Solver s;
    const sat::Var a = s.newVar();
    const sat::Var b = s.newVar();
    const sat::Var c = s.newVar();
    ASSERT_TRUE(s.addClause({mkLit(a)}));
    ASSERT_TRUE(s.addClause({~mkLit(a), mkLit(b)}));
    ASSERT_TRUE(s.addClause({~mkLit(b), mkLit(c)}));
    ASSERT_EQ(s.solve(), SolveResult::Sat);
    EXPECT_TRUE(s.modelValue(a));
    EXPECT_TRUE(s.modelValue(b));
    EXPECT_TRUE(s.modelValue(c));
    // Everything is forced from the root: no branching happened.
    EXPECT_EQ(s.stats().decisions, 0);
    EXPECT_GE(s.stats().propagations, 3);
}

TEST(CdclSolver, LearnsFromConflictsAndRefutes)
{
    sat::Solver s;
    addPigeonhole(s, 4, 3);
    ASSERT_EQ(s.solve(), SolveResult::Unsat);
    // A refutation of PHP cannot be pure propagation: the engine must
    // have analysed conflicts and learned clauses along the way.
    EXPECT_GT(s.stats().conflicts, 0);
    EXPECT_GT(s.stats().learned, 0);
    EXPECT_GT(s.stats().decisions, 0);
    // Root-level UNSAT is permanent.
    EXPECT_EQ(s.solve(), SolveResult::Unsat);
}

TEST(CdclSolver, SatisfiableModelRespectsEveryClause)
{
    // 3 pigeons into 3 holes is satisfiable; the model must place
    // each pigeon and never share a hole.
    sat::Solver s;
    addPigeonhole(s, 3, 3);
    ASSERT_EQ(s.solve(), SolveResult::Sat);
    for (int i = 0; i < 3; ++i) {
        int placed = 0;
        for (int h = 0; h < 3; ++h)
            placed += s.modelValue(static_cast<sat::Var>(i * 3 + h));
        EXPECT_GE(placed, 1) << "pigeon " << i;
    }
    for (int h = 0; h < 3; ++h) {
        int occupants = 0;
        for (int i = 0; i < 3; ++i)
            occupants += s.modelValue(static_cast<sat::Var>(i * 3 + h));
        EXPECT_LE(occupants, 1) << "hole " << h;
    }
}

TEST(CdclSolver, AssumptionCoresNameTheCulprits)
{
    sat::Solver s;
    const sat::Var x = s.newVar();
    const sat::Var y = s.newVar();
    const sat::Var z = s.newVar();
    ASSERT_TRUE(s.addClause({~mkLit(x), ~mkLit(y)}));
    ASSERT_EQ(s.solve({mkLit(x), mkLit(y), mkLit(z)}),
              SolveResult::Unsat);
    const auto &core = s.conflictCore();
    ASSERT_FALSE(core.empty());
    for (const sat::Lit l : core) {
        EXPECT_TRUE(sat::var(l) == x || sat::var(l) == y)
            << "core var " << sat::var(l);
        EXPECT_NE(sat::var(l), z);
    }
    // The formula itself is satisfiable: dropping an assumption
    // recovers Sat, on the same incremental solver.
    EXPECT_EQ(s.solve({mkLit(x), mkLit(z)}), SolveResult::Sat);
    EXPECT_TRUE(s.modelValue(x));
    EXPECT_FALSE(s.modelValue(y));
}

TEST(CdclSolver, ConflictBudgetDegradesToUnknown)
{
    sat::Solver s;
    addPigeonhole(s, 6, 5);
    s.setConflictBudget(1);
    EXPECT_EQ(s.solve(), SolveResult::Unknown);
    EXPECT_TRUE(s.budgetHit());
    // Lifting the cap finishes the refutation; nothing was corrupted
    // by the aborted attempt.
    s.setConflictBudget(0);
    EXPECT_EQ(s.solve(), SolveResult::Unsat);
}

TEST(CdclSolver, SolvesAreBitReproducible)
{
    // Two fresh solvers fed the same clause sequence take the same
    // path: identical models and identical work counters.
    sat::Solver a, b;
    addPigeonhole(a, 3, 3);
    addPigeonhole(b, 3, 3);
    ASSERT_EQ(a.solve(), SolveResult::Sat);
    ASSERT_EQ(b.solve(), SolveResult::Sat);
    for (sat::Var v = 0; v < 9; ++v)
        EXPECT_EQ(a.modelValue(v), b.modelValue(v)) << "var " << v;
    EXPECT_EQ(a.stats().decisions, b.stats().decisions);
    EXPECT_EQ(a.stats().conflicts, b.stats().conflicts);
    EXPECT_EQ(a.stats().propagations, b.stats().propagations);
}

TEST(SatBackend, RegisteredNextToTheBnbAlias)
{
    auto &reg = BackendRegistry::instance();
    ASSERT_TRUE(reg.has("sat"));
    ASSERT_TRUE(reg.has("bnb"));
    EXPECT_EQ(reg.create("sat")->name(), "sat");
    EXPECT_EQ(reg.create("bnb")->name(), "bnb");
}

/** The headline contract: both exact engine families certify the same
 * minimal II, lower bound and certificate on every builtin combo. The
 * schedules themselves may differ (the CDCL engine runs no pressure
 * tiebreak), so placements are deliberately not compared. */
TEST(SatBackend, CertifiesTheSameIIAsTheBranchAndBound)
{
    int solved = 0;
    for (const auto &wl : workloads::allLoops()) {
        for (int nc : {1, 2, 4}) {
            const auto machine = makeConfig(nc);
            const auto graph = ddg::Ddg::build(wl.nest, machine);
            const std::string label = wl.benchmark + "/" +
                                      wl.nest.name() + "/c" +
                                      std::to_string(nc);
            // No wall clock on either engine: under TSan/Debug the
            // slowest combos outlive the default budget, and this
            // test compares certificates, not degradation points.
            exact::ExactOptions bopt;
            bopt.timeBudgetMs = -1;
            SatOptions sopt;
            sopt.timeBudgetMs = -1;
            const auto bnb =
                exact::scheduleExact(graph, machine, bopt);
            const auto satr = scheduleSatExact(graph, machine, sopt);
            ASSERT_EQ(bnb.ok, satr.ok) << label;
            ASSERT_TRUE(satr.ok) << label << ": " << satr.error;
            EXPECT_EQ(satr.schedule.ii(), bnb.schedule.ii()) << label;
            EXPECT_EQ(satr.stats.iiLowerBound, bnb.stats.iiLowerBound)
                << label;
            EXPECT_EQ(satr.stats.provenOptimal, bnb.stats.provenOptimal)
                << label;
            EXPECT_EQ(satr.stats.mii, bnb.stats.mii) << label;
            ++solved;
        }
    }
    EXPECT_EQ(solved, 96);
}

/** Encoder round trip: every decoded model must survive the full
 * schedule checker (dependences, FU capacity, buses, MaxLive) — the
 * encoding is allowed to under-approximate only where the backend
 * blocks and re-solves, never in what it finally returns. */
TEST(SatBackend, DecodedModelsPassFullValidation)
{
    for (const char *name : {"tomcatv", "swim", "apsi"}) {
        const auto bench = workloads::benchmarkByName(name);
        for (const auto &nest : bench.loops) {
            for (int nc : {2, 4}) {
                const auto machine = makeConfig(nc);
                const auto graph = ddg::Ddg::build(nest, machine);
                const std::string label = std::string(name) + "/" +
                                          nest.name() + "/c" +
                                          std::to_string(nc);
                const auto r = scheduleSatExact(graph, machine, {});
                ASSERT_TRUE(r.ok) << label << ": " << r.error;
                EXPECT_EQ(r.schedule.validate(graph, machine), "")
                    << label;
                EXPECT_EQ(r.stats.comms,
                          static_cast<int>(r.schedule.numComms()))
                    << label;
            }
        }
    }
}

/** The determinism contract behind every report: the sat gap table is
 * a pure function of (workloads, machine, options), not of how many
 * workers the sweep sharded loops across. */
TEST(SatBackend, GapTableByteIdenticalAcrossJobCounts)
{
    harness::Workbench bench({"tomcatv", "swim", "hydro2d"});
    const auto machine = makeTwoCluster();

    std::string reference;
    for (int jobs : {1, 2, 8}) {
        harness::ParallelDriver driver(jobs);
        harness::GapOptions options;
        options.exactBackend = "sat";
        const auto study =
            harness::runGapStudy(bench, machine, options, driver);
        EXPECT_EQ(study.unknown(), 0) << "jobs " << jobs;
        const std::string table = harness::formatGapTable(study);
        if (reference.empty())
            reference = table;
        else
            EXPECT_EQ(table, reference) << "jobs " << jobs;
    }
}

/** An expired wall-clock budget reports "gap unknown" through the
 * exact engine's contract, in the exact engine's words — reports diff
 * the backends verbatim. */
TEST(SatBackend, StarvedBudgetMatchesTheSerialContract)
{
    const auto bench = workloads::makeApplu();
    const auto machine = makeFourCluster();
    const auto graph = ddg::Ddg::build(bench.loops[1], machine);
    SchedulerOptions opt;
    opt.timeBudgetMs = 0;
    const auto r = scheduleWithBackend("sat", graph, machine, opt);
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(r.stats.budgetExhausted);
    EXPECT_FALSE(r.stats.provenOptimal);

    const auto s = scheduleWithBackend("exact", graph, machine, opt);
    EXPECT_FALSE(s.ok);
    EXPECT_EQ(r.error, s.error);

    // Verify mode degrades to "gap unknown", not to a failure.
    SchedulerOptions vopt;
    vopt.timeBudgetMs = 0;
    vopt.exactBackend = "sat";
    const auto v = scheduleWithBackend("verify", graph, machine, vopt);
    ASSERT_TRUE(v.ok) << v.error;
    EXPECT_FALSE(v.stats.gapKnown);
}

/** The deterministic conflict cap is the CDCL analogue of the node
 * budget: capped out means Unknown ("gap unknown"), never a wrong
 * answer, and the cap's effect is reproducible. */
TEST(SatBackend, ConflictCapNeverChangesTheAnswer)
{
    const auto bench = workloads::makeSwim();
    const auto machine = makeFourCluster();
    const auto graph = ddg::Ddg::build(bench.loops[0], machine);
    const auto ref = scheduleSatExact(graph, machine, {});
    ASSERT_TRUE(ref.ok);
    for (const std::int64_t cap : {std::int64_t{1}, std::int64_t{0}}) {
        SatOptions o;
        o.conflictBudget = cap;
        const auto r = scheduleSatExact(graph, machine, o);
        if (!r.ok) {
            // Capped out before settling: the documented degradation.
            EXPECT_TRUE(r.stats.budgetExhausted);
            continue;
        }
        EXPECT_EQ(r.schedule.ii(), ref.schedule.ii()) << "cap " << cap;
        EXPECT_EQ(r.schedule.validate(graph, machine), "");
    }
}

} // namespace
} // namespace mvp::sched
