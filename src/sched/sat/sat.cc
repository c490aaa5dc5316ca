#include "sched/sat/sat.hh"

#include <string>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sched/ladder.hh"
#include "sched/lifetimes.hh"
#include "sched/ordering.hh"
#include "sched/sat/encode.hh"
#include "sched/sat/solver.hh"

namespace mvp::sched
{

namespace
{

/**
 * Per-loop search state: one incremental solver across all II probes,
 * driven up the II ladder by climbIiLadder() (sched/ladder.hh). The
 * solver is the context's, reset here so the search takes a fresh
 * solver's path; each probe encodes into the context's buffers.
 */
struct SatSearch final : IiProber
{
    const ddg::Ddg &graph;
    const MachineConfig &machine;
    const SchedulerOptions &options;
    SchedContext &ctx;

    sat::Solver &solver;
    SearchClock *clock = nullptr;
    ModuloSchedule best;

    // Telemetry mirrored on the B&B counter names where the concept
    // matches (attempts, refutations, lifts, budget ends) plus the
    // SAT-specific work counters.
    std::int64_t ii_refuted = 0;
    std::int64_t blocked_models = 0;
    std::int64_t refinements = 0;
    std::int64_t too_large = 0;

    SatSearch(const ddg::Ddg &g, const MachineConfig &m,
              const SchedulerOptions &o, SchedContext &c)
        : graph(g), machine(m), options(o), ctx(c), solver(c.satSolver)
    {
        solver.reset();
    }

    void begin(Cycle mii, SearchClock &c) override
    {
        // Same placement order as the heuristic and the B&B (computed
        // once at MII): the encoding's anchor and cluster symmetry
        // break hang off this order, so both exact engines certify
        // over the same placement space.
        computeOrdering(graph, mii, ctx.order, ctx.ordering);
        clock = &c;
        if (c.on())
            solver.setDeadline(c.deadline());
        solver.setConflictBudget(options.searchBudget);
    }

    Probe probe(Cycle ii) override;

    void finish(ScheduleResult &result) override
    {
        result.stats.searchNodes = solver.stats().conflicts;
        foldMetrics(result);
        if (!result.ok)
            return;
        // decode() already normalised times to >= 0 and assigned
        // buses; MaxLive was attached from the validating lifetime
        // pass.
        result.schedule = std::move(best);
        result.stats.comms =
            static_cast<int>(result.schedule.numComms());
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
        c("lifts") += result.stats.iiLowerBound - result.stats.mii;
        c("blocked_models") += blocked_models;
        c("refinements") += refinements;
        c("encodings_too_large") += too_large;
        if (result.stats.budgetExhausted)
            c("budget_exhausted") += 1;
    }
};

Probe
SatSearch::probe(Cycle ii)
{
    MVP_TRACE_SPAN("sat-ii", graph.loop().name(),
                   static_cast<std::int64_t>(ii));
    if (clock->expired())
        return Probe::Aborted;

    sat::IiEncoding enc(graph, machine, ctx.order, ii, ctx.satEncoding);
    const sat::IiEncoding::Status st = enc.build(solver);
    if (st == sat::IiEncoding::Status::Infeasible) {
        // Statically refuted (empty window hull): as certified as an
        // UNSAT answer, without paying for a solve.
        ++ii_refuted;
        mvp_verbose("sat: loop '", graph.loop().name(), "' II=", ii,
                    " statically refuted");
        return Probe::Refuted;
    }
    if (st == sat::IiEncoding::Status::TooLarge) {
        // Variable budget overflow: the II is neither certified
        // feasible nor refuted, exactly a burned search budget.
        ++too_large;
        return Probe::Aborted;
    }

    // Solve/decode/check loop: each register file a model
    // over-subscribes gets its exact pressure cut, any other checker
    // rejection (the bus cardinalities under-approximate, encode.hh)
    // is blocked, and the probe re-solves.
    for (;;) {
        const sat::SolveResult r = solver.solve({enc.activation()});
        if (r == sat::SolveResult::Unknown)
            return Probe::Aborted;   // the conflict cap or the deadline
        if (r == sat::SolveResult::Unsat) {
            // Refuted: retire the probe's activation so its clauses
            // go inert.
            solver.addClause({~enc.activation()});
            ++ii_refuted;
            mvp_verbose("sat: loop '", graph.loop().name(), "' II=", ii,
                        " refuted (", solver.stats().conflicts,
                        " conflicts)");
            return Probe::Refuted;
        }
        ModuloSchedule cand;
        bool good = enc.decode(solver, cand);
        const std::int64_t cuts = refinements;
        if (good) {
            const LifetimeStats lt =
                computeLifetimes(graph, cand, machine, ctx.lifetimes);
            const std::vector<Cycle> &live = ctx.lifetimes.live;
            for (Cycle k = 0; k < static_cast<Cycle>(live.size()); ++k)
                if (live[static_cast<std::size_t>(k)] >
                    machine.regsPerCluster) {
                    good = false;
                    refinements += enc.refinePressure(
                        solver, static_cast<ClusterId>(k / ii), k % ii);
                }
            if (good && !cand.validate(graph, machine).empty())
                good = false;
            if (good)
                cand.setMaxLive(lt.maxLivePerCluster);
        }
        if (good) {
            best = std::move(cand);
            return Probe::Feasible;
        }
        if (refinements == cuts) {
            ++blocked_models;
            enc.blockModel(solver);
        }
    }
}

} // namespace

ScheduleResult
scheduleSatExact(const ddg::Ddg &graph, const MachineConfig &machine,
                 const SchedulerOptions &options, SchedContext &ctx)
{
    MVP_TRACE_SPAN("sat", graph.loop().name());
    SatSearch search(graph, machine, options, ctx);
    return climbIiLadder(graph, machine, options, search);
}

ScheduleResult
scheduleSatExact(const ddg::Ddg &graph, const MachineConfig &machine,
                 const SchedulerOptions &options)
{
    SchedContext ctx;
    return scheduleSatExact(graph, machine, options, ctx);
}

} // namespace mvp::sched
