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
 *    error contract, verbatim;
 *  - the lazy resource cuts replace whole-model blocking on the loops
 *    and scenarios that used to re-solve hundreds of times, without
 *    cutting off a valid schedule.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <random>
#include <string>
#include <vector>

#include "ddg/ddg.hh"
#include "gen/generator.hh"
#include "harness/driver.hh"
#include "harness/gapstudy.hh"
#include "machine/presets.hh"
#include "obs/metrics.hh"
#include "sched/backend.hh"
#include "sched/exact/bnb.hh"
#include "sched/sat/sat.hh"
#include "sched/sat/solver.hh"
#include "sched_fingerprint.hh"
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

/** Everything a solve leaves observable: verdict, model, core and the
 * work counters. */
struct SolveOutcome
{
    SolveResult result = SolveResult::Unknown;
    std::vector<bool> model;
    std::vector<int> core;
    sat::SolverStats stats;
};

SolveOutcome
outcomeOf(const sat::Solver &s, SolveResult r)
{
    SolveOutcome o{r, {}, {}, s.stats()};
    if (r == SolveResult::Sat)
        for (sat::Var v = 0; v < s.nVars(); ++v)
            o.model.push_back(s.modelValue(v));
    for (const sat::Lit l : s.conflictCore())
        o.core.push_back(l.x);
    return o;
}

void
expectSameOutcome(const SolveOutcome &a, const SolveOutcome &b,
                  const std::string &label)
{
    EXPECT_EQ(a.result, b.result) << label;
    EXPECT_EQ(a.model, b.model) << label;
    EXPECT_EQ(a.core, b.core) << label;
    EXPECT_EQ(a.stats.conflicts, b.stats.conflicts) << label;
    EXPECT_EQ(a.stats.propagations, b.stats.propagations) << label;
    EXPECT_EQ(a.stats.decisions, b.stats.decisions) << label;
    EXPECT_EQ(a.stats.learned, b.stats.learned) << label;
    EXPECT_EQ(a.stats.learnedLits, b.stats.learnedLits) << label;
    EXPECT_EQ(a.stats.restarts, b.stats.restarts) << label;
}

/** Random 3-CNF over @p vars variables, @p clauses clauses, fixed
 * seed: the same clause sequence on every call. */
void
addRandom3Sat(sat::Solver &s, int vars, int clauses, std::uint32_t seed)
{
    std::mt19937 rng(seed);
    std::vector<sat::Var> v;
    for (int i = 0; i < vars; ++i)
        v.push_back(s.newVar());
    for (int c = 0; c < clauses; ++c) {
        std::vector<sat::Lit> cl;
        for (int k = 0; k < 3; ++k)
            cl.push_back(mkLit(v[rng() % static_cast<std::uint32_t>(vars)],
                               (rng() & 1) != 0));
        if (!s.addClause(cl))
            return;
    }
}

/** The formulas a reused solver is compared on: UNSAT outright, UNSAT
 * under assumptions (a core), and random satisfiable and unsatisfiable
 * instances. Each leaves the solver's outcome for comparison. */
std::vector<SolveOutcome>
solveReferenceFormulas(sat::Solver &s, bool reset_between)
{
    std::vector<SolveOutcome> out;
    const auto next = [&] {
        if (reset_between)
            s.reset();
        else
            s = sat::Solver();
    };
    next();
    addPigeonhole(s, 6, 5);
    out.push_back(outcomeOf(s, s.solve()));
    next();
    addPigeonhole(s, 4, 4);
    const sat::Var x = s.newVar();
    const sat::Var y = s.newVar();
    EXPECT_TRUE(s.addClause({~mkLit(x), ~mkLit(y)}));
    out.push_back(outcomeOf(s, s.solve({mkLit(x), mkLit(0), mkLit(y)})));
    next();
    addRandom3Sat(s, 150, 600, 7);
    out.push_back(outcomeOf(s, s.solve()));
    next();
    addRandom3Sat(s, 100, 460, 11);
    out.push_back(outcomeOf(s, s.solve()));
    return out;
}

/** reset() is invisible: a solver that has held a larger formula
 * (and ended root-UNSAT, past its deadline and under a conflict cap)
 * solves every reference formula with a fresh solver's model, core
 * and counters. */
TEST(CdclSolver, ResetSolverTakesTheFreshSolversPath)
{
    sat::Solver fresh;
    const auto want = solveReferenceFormulas(fresh, false);
    ASSERT_EQ(want[0].result, SolveResult::Unsat);
    ASSERT_EQ(want[1].result, SolveResult::Unsat);
    ASSERT_FALSE(want[1].core.empty());
    ASSERT_EQ(want[2].result, SolveResult::Sat);
    ASSERT_EQ(want[3].result, SolveResult::Unsat);

    sat::Solver reused;
    addRandom3Sat(reused, 3000, 9000, 3);
    ASSERT_EQ(reused.solve(), SolveResult::Sat);
    addPigeonhole(reused, 5, 4);
    ASSERT_EQ(reused.solve(), SolveResult::Unsat);
    ASSERT_FALSE(reused.okay());
    reused.setDeadline(std::chrono::steady_clock::now());
    reused.setConflictBudget(3);

    const auto got = solveReferenceFormulas(reused, true);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        expectSameOutcome(got[i], want[i], "formula " + std::to_string(i));
}

/** One unbudgeted sat search with metrics on, plus the two counters
 * that say how often the checker sent the solver back. */
struct SatRun
{
    ScheduleResult result;
    std::int64_t blocked = 0;
    std::int64_t refinements = 0;
};

SatRun
runSatWithMetrics(const ddg::Ddg &graph, const MachineConfig &machine)
{
    obs::Registry::instance().enable();
    SchedContext ctx;
    SchedulerOptions opt;
    opt.timeBudgetMs = -1;
    SatRun run{scheduleSatExact(graph, machine, opt, ctx)};
    run.blocked = ctx.metrics.det("sat.blocked_models");
    run.refinements = ctx.metrics.det("sat.refinements");
    // Keep the counts out of the process-wide registry.
    ctx.metrics.clear();
    obs::Registry::instance().disable();
    return run;
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
            SchedulerOptions opt;
            opt.timeBudgetMs = -1;
            const auto bnb = exact::scheduleExact(graph, machine, opt);
            const auto satr = scheduleSatExact(graph, machine, opt);
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
 * refines or blocks and re-solves, never in what it finally returns.
 * All eight benchmarks, so applu.rhs and su2cor.matvec (where the
 * pressure cuts fire) are covered. */
TEST(SatBackend, DecodedModelsPassFullValidation)
{
    for (const auto &bench : workloads::allBenchmarks()) {
        for (const auto &nest : bench.loops) {
            for (int nc : {2, 4}) {
                const auto machine = makeConfig(nc);
                const auto graph = ddg::Ddg::build(nest, machine);
                const std::string label =
                    nest.name() + "/c" + std::to_string(nc);
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

/** applu.rhs on four clusters at II=2 is register-bound: the pressure
 * cuts settle it in a handful of refinements where whole-model
 * blocking re-solved 643 times. */
TEST(SatBackend, PressureCutsReplaceBlocking)
{
    const auto bench = workloads::makeApplu();
    const auto machine = makeFourCluster();
    const auto &nest = bench.loops[0];
    ASSERT_EQ(nest.name(), "applu.rhs");
    const auto graph = ddg::Ddg::build(nest, machine);
    const SatRun run = runSatWithMetrics(graph, machine);
    ASSERT_TRUE(run.result.ok) << run.result.error;
    EXPECT_EQ(run.result.schedule.ii(), 2);
    EXPECT_TRUE(run.result.stats.provenOptimal);
    EXPECT_EQ(run.result.schedule.validate(graph, machine), "");
    EXPECT_EQ(run.blocked, 0);
    EXPECT_GE(run.refinements, 1);
    EXPECT_LE(run.refinements, 8);
}

/** At bus latency >= 2 per-slot occupancy admits arc sets no bus
 * assignment can colour (three 2-cycle transfers on two buses at
 * II=3); the arc cap rules them out up front. Scenario 31 of the CI
 * fuzz seed (2 clusters, 2 buses, latency 2) blocked 8,600 models
 * without it. Sweeping the seed's first 64 scenarios keeps the cap
 * honest: one transfer fewer per bus makes sat miss the B&B's II on
 * several of them. */
TEST(SatBackend, BusArcCapReplacesBlocking)
{
    const auto pinned = gen::generateScenario(gen::deriveSeed(0xd1ff, 31));
    ASSERT_EQ(pinned.machine.nClusters, 2);
    ASSERT_EQ(pinned.machine.nRegBuses, 2);
    ASSERT_EQ(pinned.machine.regBusLatency, 2);
    int swept = 0;
    for (std::uint64_t i = 0; i < 64; ++i) {
        const auto sc = gen::generateScenario(gen::deriveSeed(0xd1ff, i));
        if (sc.machine.nClusters == 1 || sc.machine.unboundedRegBuses ||
            sc.machine.regBusLatency < 2)
            continue;
        const std::string label = "scenario " + std::to_string(i);
        const auto graph = ddg::Ddg::build(sc.nest, sc.machine);
        const SatRun run = runSatWithMetrics(graph, sc.machine);
        SchedulerOptions bopt;
        bopt.timeBudgetMs = -1;
        const auto bnb = exact::scheduleExact(graph, sc.machine, bopt);
        ASSERT_TRUE(run.result.ok) << label << ": " << run.result.error;
        ASSERT_TRUE(bnb.ok) << label << ": " << bnb.error;
        EXPECT_EQ(run.result.schedule.ii(), bnb.schedule.ii()) << label;
        EXPECT_EQ(run.result.stats.provenOptimal, bnb.stats.provenOptimal)
            << label;
        EXPECT_EQ(run.result.schedule.validate(graph, sc.machine), "")
            << label;
        EXPECT_EQ(run.blocked, 0) << label;
        ++swept;
    }
    EXPECT_GE(swept, 8);
}

/** Soundness guard for the cuts: on scenario 715 of seed 0xbeef the
 * B&B claims II=5 is optimal, yet an II=3 schedule exists at MII. The
 * sat engine must keep finding it — a cut that over-constrains would
 * push it to a larger II, which the sat==bnb agreement test, whose
 * corpus has no such divergence, would not notice. */
TEST(SatBackend, FindsTheMiiScheduleTheBranchAndBoundMisses)
{
    const auto sc = gen::generateScenario(gen::deriveSeed(0xbeef, 715));
    const auto graph = ddg::Ddg::build(sc.nest, sc.machine);
    const SatRun run = runSatWithMetrics(graph, sc.machine);
    ASSERT_TRUE(run.result.ok) << run.result.error;
    EXPECT_EQ(run.result.stats.mii, 3);
    EXPECT_EQ(run.result.schedule.ii(), 3);
    EXPECT_TRUE(run.result.stats.provenOptimal);
    EXPECT_EQ(run.result.schedule.validate(graph, sc.machine), "");
}

/** The cuts must admit every schedule the checker accepts. With a
 * 6-register file most 2-cluster builtin loops are register-bound, so
 * the cuts fire on nearly all of them; any valid schedule the B&B
 * finds bounds the sat II from above. The B&B's own certificate is
 * not trusted: here it claims II=3 optimal for su2cor.matvec, which
 * has an II=2 schedule (ROADMAP). */
TEST(SatBackend, PressureCutsNeverCutOffAValidSchedule)
{
    auto machine = makeTwoCluster();
    machine.regsPerCluster = 6;
    std::int64_t refinements = 0;
    for (const auto &wl : workloads::allLoops()) {
        const auto graph = ddg::Ddg::build(wl.nest, machine);
        const std::string &label = wl.nest.name();
        SchedulerOptions bopt;
        bopt.timeBudgetMs = -1;
        const auto bnb = exact::scheduleExact(graph, machine, bopt);
        const SatRun run = runSatWithMetrics(graph, machine);
        ASSERT_TRUE(bnb.ok) << label << ": " << bnb.error;
        ASSERT_TRUE(run.result.ok) << label << ": " << run.result.error;
        EXPECT_LE(run.result.schedule.ii(), bnb.schedule.ii()) << label;
        EXPECT_TRUE(run.result.stats.provenOptimal) << label;
        EXPECT_EQ(run.result.schedule.validate(graph, machine), "")
            << label;
        EXPECT_EQ(run.blocked, 0) << label;
        refinements += run.refinements;
    }
    EXPECT_GT(refinements, 0);
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

/** The work cap (searchBudget), counted in conflicts by the CDCL
 * engine: capped out means Unknown ("gap unknown"), never a wrong
 * answer, and the cap's effect is reproducible. */
TEST(SatBackend, ConflictCapNeverChangesTheAnswer)
{
    const auto bench = workloads::makeSwim();
    const auto machine = makeFourCluster();
    const auto graph = ddg::Ddg::build(bench.loops[0], machine);
    const auto ref = scheduleSatExact(graph, machine, {});
    ASSERT_TRUE(ref.ok);
    for (const std::int64_t cap : {std::int64_t{1}, std::int64_t{0}}) {
        SchedulerOptions o;
        o.searchBudget = cap;
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

/** The deterministic sat.* counters one search folds. */
const char *const SAT_COUNTERS[] = {
    "sat.searches",      "sat.conflicts",        "sat.propagations",
    "sat.decisions",     "sat.learned_clauses",  "sat.learned_lits",
    "sat.restarts",      "sat.vars",             "sat.ii_attempts",
    "sat.ii_refuted",    "sat.lifts",            "sat.blocked_models",
    "sat.refinements",   "sat.encodings_too_large",
    "sat.budget_exhausted",
};

/** One sat search through @p ctx (metrics on), with the counters it
 * folded; the context's shard is emptied for the next search. */
struct Certification
{
    ScheduleResult result;
    std::vector<std::int64_t> counters;
};

Certification
certify(const ddg::Ddg &graph, const MachineConfig &machine,
        const SchedulerOptions &options, SchedContext &ctx)
{
    Certification c{scheduleSatExact(graph, machine, options, ctx), {}};
    for (const char *name : SAT_COUNTERS)
        c.counters.push_back(ctx.metrics.det(name));
    ctx.metrics.clear();
    return c;
}

void
expectSameCertification(const Certification &got,
                        const Certification &want,
                        const std::string &label)
{
    EXPECT_EQ(got.result.ok, want.result.ok) << label;
    EXPECT_EQ(got.result.schedule.ii(), want.result.schedule.ii()) << label;
    EXPECT_EQ(got.result.stats.provenOptimal,
              want.result.stats.provenOptimal)
        << label;
    EXPECT_EQ(got.result.stats.searchNodes, want.result.stats.searchNodes)
        << label;
    EXPECT_EQ(fingerprintResult(got.result), fingerprintResult(want.result))
        << label;
    for (std::size_t i = 0; i < std::size(SAT_COUNTERS); ++i)
        EXPECT_EQ(got.counters[i], want.counters[i])
            << label << ": " << SAT_COUNTERS[i];
}

/** The context's solver and encoder buffers are reused across
 * searches, and that reuse is invisible: every certification of the
 * builtin corpus on both clustered machines, in either order through
 * one context, matches the same search through a fresh context. */
TEST(SatBackend, OneContextCertifiesLikeFreshContexts)
{
    obs::Registry::instance().enable();
    const MachineConfig machines[] = {makeTwoCluster(), makeFourCluster()};
    const auto loops = workloads::allLoops();
    std::vector<ddg::Ddg> graphs;
    std::vector<const MachineConfig *> machine_of;
    std::vector<std::string> labels;
    for (const auto &wl : loops)
        for (const MachineConfig &m : machines) {
            graphs.push_back(ddg::Ddg::build(wl.nest, m));
            machine_of.push_back(&m);
            labels.push_back(wl.nest.name() + "/" + m.name);
        }
    ASSERT_EQ(graphs.size(), 64u);
    // No wall clock: a deadline under TSan/Debug would make the
    // comparison depend on timing.
    SchedulerOptions opt;
    opt.timeBudgetMs = -1;

    std::vector<Certification> fresh;
    for (std::size_t i = 0; i < graphs.size(); ++i) {
        SchedContext ctx;
        fresh.push_back(certify(graphs[i], *machine_of[i], opt, ctx));
        ASSERT_TRUE(fresh.back().result.ok) << labels[i];
    }
    for (const bool reversed : {false, true}) {
        SchedContext ctx;
        for (std::size_t k = 0; k < graphs.size(); ++k) {
            const std::size_t i = reversed ? graphs.size() - 1 - k : k;
            expectSameCertification(
                certify(graphs[i], *machine_of[i], opt, ctx), fresh[i],
                labels[i] + (reversed ? " (reversed)" : ""));
        }
    }
    obs::Registry::instance().disable();
}

/** Nothing one search leaves in the context reaches the next: after a
 * search capped at 20 conflicts, one whose deadline had already
 * passed, and a solver left root-UNSAT, an unbudgeted search on the
 * same context certifies exactly as it does alone. */
TEST(SatBackend, NoSearchLeaksIntoTheNext)
{
    obs::Registry::instance().enable();
    const auto bench = workloads::makeSwim();
    const auto machine = makeFourCluster();
    const auto graph = ddg::Ddg::build(bench.loops[2], machine);
    SchedulerOptions plain;
    plain.timeBudgetMs = -1;
    SchedContext alone;
    const Certification want = certify(graph, machine, plain, alone);
    ASSERT_TRUE(want.result.ok);
    // Enough work that the solver polls its deadline (sat.propagations)
    // and outlasts the conflict cap below.
    ASSERT_GT(want.counters[2], 10'000);
    ASSERT_GT(want.result.stats.searchNodes, 20);

    {
        SchedContext ctx;
        SchedulerOptions capped = plain;
        capped.searchBudget = 20;
        EXPECT_TRUE(
            certify(graph, machine, capped, ctx).result.stats.budgetExhausted);
        expectSameCertification(certify(graph, machine, plain, ctx), want,
                                "after a capped search");
    }
    {
        SchedContext ctx;
        SchedulerOptions expired;
        expired.timeBudgetMs = 0;
        EXPECT_TRUE(certify(graph, machine, expired, ctx)
                        .result.stats.budgetExhausted);
        expectSameCertification(certify(graph, machine, plain, ctx), want,
                                "after an expired deadline");
    }
    {
        SchedContext ctx;
        sat::Solver &s = ctx.satSolver;
        const sat::Var x = s.newVar();
        ASSERT_TRUE(s.addClause({mkLit(x)}));
        EXPECT_FALSE(s.addClause({~mkLit(x)}));
        ASSERT_FALSE(s.okay());
        expectSameCertification(certify(graph, machine, plain, ctx), want,
                                "after a root-UNSAT solver");
    }
    obs::Registry::instance().disable();
}

} // namespace
} // namespace mvp::sched
