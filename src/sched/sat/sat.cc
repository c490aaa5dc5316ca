#include "sched/sat/sat.hh"

#include <algorithm>
#include <chrono>
#include <string>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sched/lifetimes.hh"
#include "sched/mii.hh"
#include "sched/ordering.hh"
#include "sched/sat/encode.hh"
#include "sched/sat/solver.hh"

namespace mvp::sched
{

namespace
{

/** Per-loop search state: one incremental solver across all II probes. */
struct SatSearch
{
    const ddg::Ddg &graph;
    const MachineConfig &machine;
    const SatOptions &options;
    SchedContext &ctx;

    sat::Solver solver;
    bool deadline_on = false;
    std::chrono::steady_clock::time_point deadline{};

    // Telemetry mirrored on the B&B counter names where the concept
    // matches (attempts, refutations, lifts, budget ends) plus the
    // SAT-specific work counters.
    std::int64_t ii_refuted = 0;
    std::int64_t fu_refuted = 0;
    std::int64_t lifts = 0;
    std::int64_t blocked_models = 0;
    std::int64_t too_large = 0;
    bool budget_hit = false;

    SatSearch(const ddg::Ddg &g, const MachineConfig &m,
              const SatOptions &o, SchedContext &c)
        : graph(g), machine(m), options(o), ctx(c)
    {
    }

    bool deadlineExpired() const
    {
        return deadline_on &&
               std::chrono::steady_clock::now() >= deadline;
    }

    /** Same per-class FU counting refutation the B&B applies. */
    bool resourcesFit(Cycle ii, const int (&op_count)[ir::NUM_FU_TYPES])
        const
    {
        for (int f = 0; f < ir::NUM_FU_TYPES; ++f) {
            const auto type = static_cast<ir::FuType>(f);
            const int capacity =
                static_cast<int>(ii) * machine.totalFus(type);
            if (op_count[f] > capacity)
                return false;
        }
        return true;
    }

    void foldMetrics(const ScheduleResult &result)
    {
        if (!obs::metricsOn())
            return;
        // A sat search is a pure function of (loop, machine, options)
        // within budget, so its counts are deterministic.
        auto &m = ctx.metrics;
        const auto c = [&](const char *name) -> std::int64_t & {
            return m.det(std::string("sat.") + name);
        };
        const sat::SolverStats &st = solver.stats();
        c("searches") += 1;
        c("conflicts") += st.conflicts;
        c("propagations") += st.propagations;
        c("decisions") += st.decisions;
        c("learned_clauses") += st.learned;
        c("learned_lits") += st.learnedLits;
        c("restarts") += st.restarts;
        c("vars") += solver.nVars();
        c("ii_attempts") += result.stats.iiAttempts;
        c("ii_refuted") += ii_refuted;
        c("fu_refuted") += fu_refuted;
        c("lifts") += lifts;
        c("blocked_models") += blocked_models;
        c("encodings_too_large") += too_large;
        if (budget_hit)
            c("budget_exhausted") += 1;
    }

    ScheduleResult run();
};

ScheduleResult
SatSearch::run()
{
    MVP_TRACE_SPAN("sat", graph.loop().name());
    ScheduleResult result;
    result.stats.resMii = resMii(graph.loop(), machine);
    result.stats.recMii = graph.recMii();
    result.stats.mii =
        std::max(result.stats.resMii, result.stats.recMii);
    result.stats.iiLowerBound = result.stats.mii;
    if (graph.size() == 0) {
        result.error = "empty loop";
        return result;
    }

    // Same placement order as the heuristic and the B&B (computed once
    // at MII): the encoding's anchor and cluster symmetry break hang
    // off this order, so both exact engines certify over the same
    // placement space.
    computeOrdering(graph, result.stats.mii, ctx.order, ctx.ordering);

    int op_count[ir::NUM_FU_TYPES] = {};
    for (std::size_t v = 0; v < graph.size(); ++v)
        ++op_count[static_cast<int>(
            graph.loop().op(static_cast<OpId>(v)).fuType())];

    if (options.timeBudgetMs >= 0) {
        deadline_on = true;
        deadline = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(options.timeBudgetMs);
    }
    if (deadline_on)
        solver.setDeadline(deadline);
    solver.setConflictBudget(options.conflictBudget);

    // Same abort allowance as the B&B: up to this many II attempts may
    // burn their whole conflict cap (or overflow the variable budget)
    // without settling before the search gives up; the wall-clock
    // deadline instead ends the search at the first aborted attempt.
    constexpr int MAX_ABORTED_ATTEMPTS = 4;
    int aborted_attempts = 0;

    bool found = false;
    ModuloSchedule best;

    for (Cycle ii = result.stats.mii; ii <= options.maxII; ++ii) {
        MVP_TRACE_SPAN("sat-ii", graph.loop().name(),
                       static_cast<std::int64_t>(ii));
        ++result.stats.iiAttempts;

        if (!resourcesFit(ii, op_count)) {
            ++fu_refuted;
            if (result.stats.iiLowerBound == ii) {
                result.stats.iiLowerBound = ii + 1;
                ++lifts;
            }
            mvp_verbose("sat: loop '", graph.loop().name(),
                        "' II=", ii, " refuted by FU counting");
            continue;
        }
        if (deadlineExpired()) {
            budget_hit = true;
            break;
        }

        sat::IiEncoding enc(graph, machine, ctx.order, ii);
        const sat::IiEncoding::Status st = enc.build(solver);
        if (st == sat::IiEncoding::Status::Infeasible) {
            // Statically refuted (empty window hull): as certified as
            // an UNSAT answer, without paying for a solve.
            ++ii_refuted;
            if (result.stats.iiLowerBound == ii) {
                result.stats.iiLowerBound = ii + 1;
                ++lifts;
            }
            mvp_verbose("sat: loop '", graph.loop().name(),
                        "' II=", ii, " statically refuted");
            continue;
        }
        if (st == sat::IiEncoding::Status::TooLarge) {
            // Variable budget overflow: the II is neither certified
            // feasible nor refuted, exactly a burned search budget —
            // the lower bound must not rise past it.
            ++too_large;
            budget_hit = true;
            if (++aborted_attempts >= MAX_ABORTED_ATTEMPTS)
                break;
            continue;
        }

        // Solve/decode/validate loop: the bus and register
        // cardinalities under-approximate the checker (encode.hh), so
        // a model the full validation rejects is blocked and the probe
        // re-solved; UNSAT needs no such care.
        bool attempt_done = false;
        bool stop_search = false;
        while (!attempt_done) {
            const sat::SolveResult r = solver.solve({enc.activation()});
            if (r == sat::SolveResult::Sat) {
                ModuloSchedule cand;
                bool good = enc.decode(solver, cand);
                if (good) {
                    const LifetimeStats lt = computeLifetimes(
                        graph, cand, machine, ctx.lifetimes);
                    for (int ml : lt.maxLivePerCluster)
                        if (ml > machine.regsPerCluster)
                            good = false;
                    if (good &&
                        !cand.validate(graph, machine).empty())
                        good = false;
                    if (good)
                        cand.setMaxLive(lt.maxLivePerCluster);
                }
                if (!good) {
                    ++blocked_models;
                    enc.blockModel(solver);
                    continue;
                }
                best = std::move(cand);
                found = true;
                result.ok = true;
                result.stats.provenOptimal =
                    ii == result.stats.iiLowerBound;
                attempt_done = true;
            } else if (r == sat::SolveResult::Unsat) {
                // Refuted: retire the probe's activation so its
                // clauses go inert, and lift the lower bound while
                // refutations are gapless from MII.
                solver.addClause({~enc.activation()});
                ++ii_refuted;
                if (result.stats.iiLowerBound == ii) {
                    result.stats.iiLowerBound = ii + 1;
                    ++lifts;
                }
                mvp_verbose("sat: loop '", graph.loop().name(),
                            "' II=", ii, " refuted (",
                            solver.stats().conflicts, " conflicts)");
                attempt_done = true;
            } else {
                // Unknown: a budget fired. An expired deadline ends
                // the search outright; a conflict-cap abort moves on
                // (a larger II is usually much easier) until the abort
                // allowance is spent.
                budget_hit = true;
                if (deadlineExpired() ||
                    ++aborted_attempts >= MAX_ABORTED_ATTEMPTS)
                    stop_search = true;
                attempt_done = true;
            }
        }
        if (found || stop_search)
            break;
    }

    result.stats.searchNodes = solver.stats().conflicts;
    result.stats.budgetExhausted = budget_hit;
    foldMetrics(result);
    if (!result.ok) {
        result.error =
            budget_hit
                ? "exact search budget exhausted before any schedule "
                  "was found for loop '" +
                      graph.loop().name() + "'"
                : "no feasible II up to " +
                      std::to_string(options.maxII) + " for loop '" +
                      graph.loop().name() + "'";
        return result;
    }

    // decode() already normalised times to >= 0 and assigned buses;
    // MaxLive was attached from the validating lifetime pass.
    result.schedule = std::move(best);
    result.stats.comms = static_cast<int>(result.schedule.numComms());
    return result;
}

} // namespace

ScheduleResult
scheduleSatExact(const ddg::Ddg &graph, const MachineConfig &machine,
                 const SatOptions &options, SchedContext &ctx)
{
    return SatSearch(graph, machine, options, ctx).run();
}

ScheduleResult
scheduleSatExact(const ddg::Ddg &graph, const MachineConfig &machine,
                 const SatOptions &options)
{
    SchedContext ctx;
    return scheduleSatExact(graph, machine, options, ctx);
}

} // namespace mvp::sched
