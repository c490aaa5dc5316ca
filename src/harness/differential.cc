#include "harness/differential.hh"

#include <algorithm>
#include <cmath>

#include "cme/oracle.hh"
#include "cme/provider.hh"
#include "cme/solver.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "ddg/ddg.hh"
#include "sched/backend.hh"
#include "sim/simulator.hh"
#include "text/format.hh"
#include "vliw/kernel.hh"

namespace mvp::harness
{

namespace
{

/**
 * Run every check of one scenario. Pure function of (seed, options);
 * the first failed check wins and later (dependent) checks are
 * skipped. Library bugs that trip mvp_fatal/mvp_assert inside a check
 * still abort the whole sweep with their own diagnostic — this
 * function only *reports* contract violations the stack is expected
 * to catch gracefully.
 */
ScenarioOutcome
runScenario(std::uint64_t seed, const DiffOptions &options,
            sched::SchedContext &ctx)
{
    ScenarioOutcome out;
    out.seed = seed;

    const gen::Scenario sc = gen::generateScenario(seed, options.gen);
    out.loop = sc.nest.name();
    out.machine = sc.machine.name;
    out.ops = static_cast<int>(sc.nest.size());
    out.clusters = sc.machine.nClusters;

    // --- 1. text round trip: parse(print(x)) reprints byte-identically
    // (a parse failure on printed text is a frontend bug and fatals
    // with the grammar diagnostic). ---
    const std::string loop_text = text::printLoop(sc.nest);
    if (text::printLoop(text::parseLoop(loop_text, out.loop)) !=
        loop_text) {
        out.failure = "text round-trip mismatch (loop)";
        return out;
    }
    const std::string mach_text = text::printMachine(sc.machine);
    if (text::printMachine(text::parseMachine(mach_text, out.machine)) !=
        mach_text) {
        out.failure = "text round-trip mismatch (machine)";
        return out;
    }

    // --- 2. rmca schedule + full validation ---
    const ddg::Ddg graph = ddg::Ddg::build(sc.nest, sc.machine);
    auto streams = std::make_shared<cme::StreamCache>(sc.nest);
    const auto locality = cme::LocalityRegistry::instance().bind(
        options.locality, sc.nest, streams);

    sched::SchedulerOptions sopt;
    sopt.missThreshold = options.threshold;
    sopt.locality = locality.get();
    const auto rmca = sched::scheduleWithBackend("rmca", graph,
                                                 sc.machine, sopt, ctx);
    if (!rmca.ok) {
        out.failure = "rmca scheduling failed: " + rmca.error;
        return out;
    }
    out.mii = rmca.stats.mii;
    out.rmcaII = rmca.schedule.ii();
    const std::string err = rmca.schedule.validate(graph, sc.machine);
    if (!err.empty()) {
        out.failure = "invalid rmca schedule: " + err;
        return out;
    }

    // --- 3. exact cross-check: on budget-converged scenarios the
    // certified minimal II can never exceed the heuristic's. ---
    if (options.checkExact) {
        sched::SchedulerOptions eopt = sopt;
        eopt.searchBudget = options.searchBudget;
        eopt.timeBudgetMs = options.timeBudgetMs;
        const auto exact = sched::certifyWithBackend(
            options.exactBackend, graph, sc.machine, eopt, ctx);
        if (exact.ok && exact.stats.provenOptimal) {
            out.exactSettled = true;
            out.exactII = exact.schedule.ii();
            const std::string exact_err =
                exact.schedule.validate(graph, sc.machine);
            if (!exact_err.empty()) {
                out.failure = "invalid exact schedule: " + exact_err;
                return out;
            }
            if (out.exactII > out.rmcaII) {
                out.failure = strprintf(
                    "exact II %lld exceeds rmca II %lld",
                    static_cast<long long>(out.exactII),
                    static_cast<long long>(out.rmcaII));
                return out;
            }
            if (exact.stats.iiLowerBound > out.exactII) {
                out.failure = strprintf(
                    "exact lower bound %lld exceeds its own II %lld",
                    static_cast<long long>(exact.stats.iiLowerBound),
                    static_cast<long long>(out.exactII));
                return out;
            }
        }

        // --- 3b. engine cross-check: the CDCL backend and the branch
        // and bound search entirely different spaces (learned clauses
        // vs. enumeration with pruning), so agreement is strong
        // evidence both certify the true minimum. Wherever both settle
        // they must report the same II; a certificate on one side and
        // an infeasibility verdict on the other is the worst possible
        // divergence. Budget-starved runs on either side are skipped,
        // not failed — absence of an answer is not a wrong answer. ---
        if (options.checkSat) {
            const auto satr = sched::scheduleWithBackend(
                "sat", graph, sc.machine, eopt, ctx);
            const bool bnb_cert = exact.ok && exact.stats.provenOptimal;
            const bool sat_cert = satr.ok && satr.stats.provenOptimal;
            const bool bnb_infeas =
                !exact.ok && !exact.stats.budgetExhausted;
            const bool sat_infeas =
                !satr.ok && !satr.stats.budgetExhausted;
            std::string diverged;
            if (bnb_cert && sat_infeas)
                diverged = strprintf(
                    "exact certified II %lld but sat proved "
                    "infeasibility",
                    static_cast<long long>(exact.schedule.ii()));
            else if (bnb_infeas && sat_cert)
                diverged = strprintf(
                    "exact proved infeasibility but sat certified "
                    "II %lld",
                    static_cast<long long>(satr.schedule.ii()));
            else if (bnb_cert && sat_cert &&
                     satr.schedule.ii() != exact.schedule.ii())
                diverged = strprintf(
                    "sat II %lld != exact II %lld",
                    static_cast<long long>(satr.schedule.ii()),
                    static_cast<long long>(exact.schedule.ii()));
            else if (sat_cert) {
                const std::string sat_err =
                    satr.schedule.validate(graph, sc.machine);
                if (!sat_err.empty())
                    diverged = "invalid sat schedule: " + sat_err;
            }
            if (!diverged.empty()) {
                // Dump the scenario verbatim: the text round-trip of
                // stage 1 guarantees these strings reproduce the
                // instance exactly, independent of the generator.
                out.failure = "sat/exact divergence: " + diverged +
                              "\n--- loop ---\n" + loop_text +
                              "--- machine ---\n" + mach_text;
                return out;
            }
        }
    }

    // --- 4. kernel image: II body, (SC-1)*II ramps ---
    const auto image =
        vliw::KernelImage::generate(graph, rmca.schedule, sc.machine);
    out.stages = image.stageCount();
    const auto ii = static_cast<std::size_t>(out.rmcaII);
    const auto ramp = static_cast<std::size_t>(out.stages - 1) * ii;
    if (image.ii() != out.rmcaII || image.kernel().size() != ii ||
        image.prologue().size() != ramp ||
        image.epilogue().size() != ramp ||
        image.stageCount() != rmca.schedule.stageCount()) {
        out.failure = strprintf(
            "kernel image shape mismatch: ii=%lld sc=%d kernel=%zu "
            "prologue=%zu epilogue=%zu",
            static_cast<long long>(image.ii()), image.stageCount(),
            image.kernel().size(), image.prologue().size(),
            image.epilogue().size());
        return out;
    }

    // --- 5. lockstep simulation: the §2.2 compute-cycle identity,
    // with NTIMES/NITER from the nest and SC from the kernel image ---
    const auto sim =
        sim::simulateLoop(graph, rmca.schedule, sc.machine);
    out.simCompute = sim.computeCycles;
    out.simStall = sim.stallCycles;
    const Cycle expected =
        sc.nest.outerExecutions() *
        ((sc.nest.innerTripCount() + out.stages - 1) * out.rmcaII);
    if (sim.computeCycles != expected) {
        out.failure = strprintf(
            "compute cycles %lld != NTIMES*(NITER+SC-1)*II = %lld",
            static_cast<long long>(sim.computeCycles),
            static_cast<long long>(expected));
        return out;
    }
    if (sim.iterations !=
        sc.nest.outerExecutions() * sc.nest.innerTripCount()) {
        out.failure = "simulator iteration count mismatch";
        return out;
    }

    // --- 6. CME solver vs exact oracle over the full memory set on
    // the scenario's per-cluster cache: bitwise where the solver is
    // exhaustive, CI-bounded where it sampled. ---
    cme::CmeAnalysis solver(sc.nest, {}, streams);
    cme::CacheOracle oracle(sc.nest, streams);
    const std::vector<OpId> mem = sc.nest.memoryOps();
    const CacheGeom geom = sc.machine.clusterCacheGeom();
    const bool exhaustive =
        ir::IterationSpace(sc.nest).points() <=
        solver.params().maxSamples;
    for (const OpId op : mem) {
        const auto est = solver.estimateRatio(mem, op, geom);
        const double exact = oracle.missRatio(mem, op, geom);
        const double tol =
            exhaustive ? 1e-12
                       : std::max(0.15, 4.0 * est.ciHalfWidth);
        if (std::fabs(est.ratio - exact) > tol) {
            out.failure = strprintf(
                "CME/oracle divergence on op %d: %.6f vs %.6f "
                "(tol %.6f, %s)",
                op, est.ratio, exact, tol,
                exhaustive ? "exhaustive" : "sampled");
            return out;
        }
    }
    out.cmeMisses = solver.missesPerIteration(mem, geom);
    out.oracleMisses = oracle.missesPerIteration(mem, geom);
    const double set_tol =
        exhaustive ? 1e-9 : 0.15 * static_cast<double>(mem.size());
    if (std::fabs(out.cmeMisses - out.oracleMisses) > set_tol) {
        out.failure = strprintf(
            "CME/oracle set divergence: %.6f vs %.6f misses/iter",
            out.cmeMisses, out.oracleMisses);
        return out;
    }
    return out;
}

} // namespace

int
DiffReport::passed() const
{
    return static_cast<int>(std::count_if(
        rows.begin(), rows.end(),
        [](const ScenarioOutcome &r) { return r.failure.empty(); }));
}

int
DiffReport::failed() const
{
    return static_cast<int>(rows.size()) - passed();
}

int
DiffReport::exactSettled() const
{
    return static_cast<int>(std::count_if(
        rows.begin(), rows.end(),
        [](const ScenarioOutcome &r) { return r.exactSettled; }));
}

int
DiffReport::rmcaOptimal() const
{
    return static_cast<int>(std::count_if(
        rows.begin(), rows.end(), [](const ScenarioOutcome &r) {
            return r.exactSettled && r.rmcaII == r.exactII;
        }));
}

std::string
DiffReport::serialise() const
{
    std::string out;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const ScenarioOutcome &r = rows[i];
        out += strprintf(
            "scenario=%zu seed=%llu loop=%s machine=%s ops=%d "
            "clusters=%d mii=%lld rmca_ii=%lld exact_ii=%lld "
            "settled=%d stages=%d compute=%lld stall=%lld "
            "cme=%.6f oracle=%.6f status=%s\n",
            i, static_cast<unsigned long long>(r.seed), r.loop.c_str(),
            r.machine.c_str(), r.ops, r.clusters,
            static_cast<long long>(r.mii),
            static_cast<long long>(r.rmcaII),
            static_cast<long long>(r.exactII), r.exactSettled ? 1 : 0,
            r.stages, static_cast<long long>(r.simCompute),
            static_cast<long long>(r.simStall), r.cmeMisses,
            r.oracleMisses,
            r.failure.empty() ? "ok" : r.failure.c_str());
    }
    out += strprintf("total scenarios=%zu passed=%d failed=%d "
                     "exact_settled=%d rmca_optimal=%d\n",
                     rows.size(), passed(), failed(), exactSettled(),
                     rmcaOptimal());
    return out;
}

std::string
DiffReport::summary() const
{
    std::string out = strprintf(
        "differential sweep: %zu scenarios, %d passed, %d failed; "
        "exact settled on %d (rmca II-optimal on %d)\n",
        rows.size(), passed(), failed(), exactSettled(), rmcaOptimal());
    if (options.checkExact) {
        const std::string clock =
            options.timeBudgetMs < 0
                ? std::string("no deadline")
                : strprintf("%lld ms wall-clock/scenario",
                            static_cast<long long>(
                                options.timeBudgetMs));
        out += strprintf(
            "gap unknown on %d scenarios (certifying engine: %s; "
            "budget: %s, %lld nodes/II attempt)\n",
            static_cast<int>(rows.size()) - exactSettled(),
            options.exactBackend.c_str(), clock.c_str(),
            static_cast<long long>(options.searchBudget));
    }
    for (std::size_t i = 0; i < rows.size(); ++i)
        if (!rows[i].failure.empty())
            out += strprintf("  FAIL scenario %zu (seed %llu, %s on "
                             "%s): %s\n",
                             i,
                             static_cast<unsigned long long>(
                                 rows[i].seed),
                             rows[i].loop.c_str(),
                             rows[i].machine.c_str(),
                             rows[i].failure.c_str());
    return out;
}

DiffReport
runDifferential(const DiffOptions &options, ParallelDriver &driver)
{
    mvp_assert(options.scenarios >= 1, "differential sweep wants >= 1 "
               "scenario");
    // Resolve the provider on the main thread: an unknown name is a
    // configuration error whose fatal must not fire inside a worker.
    (void)cme::LocalityRegistry::instance().create(options.locality);

    DiffReport report;
    report.options = options;
    report.rows.resize(static_cast<std::size_t>(options.scenarios));
    driver.run(report.rows.size(),
               [&](std::size_t i, sched::SchedContext &ctx) {
                   report.rows[i] = runScenario(
                       gen::deriveSeed(options.seed, i), options, ctx);
               });
    return report;
}

DiffReport
runDifferential(const DiffOptions &options)
{
    ParallelDriver driver;
    return runDifferential(options, driver);
}

} // namespace mvp::harness
