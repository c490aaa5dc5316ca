/**
 * @file
 * Unified assign-and-schedule modulo scheduler for multiVLIWprocessors.
 *
 * One engine implements both schedulers of the paper:
 *
 *  - Baseline ([22]): cluster selection for every operation maximises the
 *    profit from output register edges (equivalently: most already-placed
 *    register neighbours in the cluster), tie-broken on workload balance.
 *  - RMCA (this paper): memory operations instead choose the cluster
 *    where the Cache Miss Equations report the smallest increase in
 *    misses; ties fall back to the register heuristic.
 *
 * Independently of cluster selection, a load whose CME miss ratio in its
 * chosen cluster exceeds the threshold is scheduled with the cache-miss
 * latency (binding prefetching), unless that would make the current II
 * infeasible through a recurrence.
 *
 * An operation that cannot be placed (no FU slot, saturated buses) or a
 * register file overflowing MaxLive aborts the attempt; the II is then
 * increased and everything except the node ordering restarts (§4.1).
 */

#ifndef MVP_SCHED_SCHEDULER_HH
#define MVP_SCHED_SCHEDULER_HH

#include <cstdint>
#include <string>

#include "cme/locality.hh"
#include "ddg/ddg.hh"
#include "machine/machine.hh"
#include "sched/context.hh"
#include "sched/schedule.hh"

namespace mvp::sched
{

/**
 * A per-II work cap large enough for the exact engines to settle every
 * loop of the default workbench. The scheduler itself defaults to no
 * cap (SchedulerOptions::searchBudget = 0); callers pass this when they
 * want a machine-independent, deterministic starvation point.
 */
constexpr std::int64_t DEFAULT_SEARCH_BUDGET = 2'000'000;

/**
 * Default wall-clock budget of the exact search, in milliseconds; one
 * shared constant so the scheduler, harness, benches and docs cannot
 * drift apart. Negative disables the deadline entirely; 0 is an
 * already-expired deadline (deterministic immediate degradation).
 */
constexpr std::int64_t DEFAULT_TIME_BUDGET_MS = 10'000;

/**
 * Default node allowance of the register-pressure tiebreak phase
 * (nodes charged after the first feasible schedule at the minimal II).
 * Deliberately node-based, not wall-clock: the tiebreak's outcome
 * (which schedule, pressureOptimal) then stays a pure function of
 * (loop, machine, options), which is what keeps gap tables and
 * differential reports byte-identical across machines and job counts.
 * The II certificate itself is never affected — it is decided before
 * the tiebreak starts. Exhausting the allowance ends the phase with the
 * best schedule seen (pressureOptimal == false); it is not a budget
 * failure, so budgetExhausted stays false.
 */
constexpr std::int64_t DEFAULT_TIEBREAK_BUDGET = 150'000;

/** Scheduler configuration. */
struct SchedulerOptions
{
    /** RMCA cluster selection for memory operations. */
    bool memoryAware = false;

    /**
     * Miss-latency scheduling threshold in [0, 1]: a load is promoted to
     * the miss latency when its miss ratio is strictly greater. 1.0
     * disables promotion (always hit latency); 0.0 promotes every load
     * with a non-zero miss ratio, the scheme of [21].
     */
    double missThreshold = 1.0;

    /**
     * Bound locality analysis; consulted when memoryAware or
     * missThreshold < 1. Not owned. When null, the registry backends
     * (sched/backend.hh) bind localityProvider to the loop for the
     * duration of the call; constructing ClusteredModuloScheduler
     * directly still requires a non-null analysis.
     */
    cme::LocalityAnalysis *locality = nullptr;

    /**
     * Locality provider by registry name (cme/provider.hh: "cme",
     * "oracle", or anything registered at runtime) — the
     * fallback the registry backends bind when `locality` is null.
     * Callers on a hot path should bind once
     * and pass `locality` instead: a per-call binding rebuilds the
     * analysis (and its memo) every schedule.
     */
    std::string localityProvider = "cme";

    /** Give up (fail the loop) beyond this II. */
    Cycle maxII = 512;

    /**
     * Work cap of the exact backends per II attempt, in each engine's
     * own unit: candidate placements for the branch and bound, CDCL
     * conflicts per solve for "sat"; 0 = uncapped, the default,
     * leaving timeBudgetMs in charge. An attempt that runs out is
     * neither feasible nor refuted: the II is skipped rather than
     * proven, later schedules lose the optimality certificate ("gap
     * unknown"), and a capped pressure tiebreak keeps the best
     * schedule seen. Unlike the deadline, the cap is deterministic.
     * Ignored by the heuristic backends.
     */
    std::int64_t searchBudget = 0;

    /**
     * Wall-clock budget of the exact search in milliseconds (whole
     * search, all II attempts). Negative = unlimited, 0 = expired on
     * entry; degradation is the same "gap unknown" path as the work
     * cap. Ignored by the heuristic backends.
     */
    std::int64_t timeBudgetMs = DEFAULT_TIME_BUDGET_MS;

    /**
     * Exact engine the verify backend certifies the heuristic against:
     * "exact" (branch and bound, the default), "bnb" or "sat". Any
     * registered backend name works; "verify" itself falls back to
     * "exact".
     */
    std::string exactBackend = "exact";

    /**
     * Unused: nothing reads this field. It stays only because the
     * benchmark's serve workload still assigns it; it goes once that
     * assignment does.
     */
    int searchJobs = 0;
};

/** Static quantities the scheduler reports alongside the schedule. */
struct SchedStats
{
    Cycle resMii = 0;
    Cycle recMii = 0;
    Cycle mii = 0;
    int iiAttempts = 0;
    int comms = 0;                    ///< register communications/iteration
    int missScheduledLoads = 0;
    int orderingBothNeighbours = 0;   ///< ordering-quality metric of [22]
    double predictedMissesPerIter = 0.0;   ///< CME estimate, all clusters

    /** @name Exact-backend / verify-mode fields (zero for heuristics) */
    /// @{
    /** II carries an optimality certificate (II == proven lower bound). */
    bool provenOptimal = false;
    /** Tightest II lower bound established (MII, raised by refutation). */
    Cycle iiLowerBound = 0;
    /** Register-pressure tiebreak search ran to completion. */
    bool pressureOptimal = false;
    /** Work charged: B&B candidates evaluated, or CDCL conflicts. */
    std::int64_t searchNodes = 0;
    /** A work cap or the deadline cut the search short ("gap
     * unknown"). */
    bool budgetExhausted = false;
    /**
     * The wall-clock deadline was found expired: the outcome depends
     * on load, so it is not a pure function of the inputs (a capped
     * search without this flag still is).
     */
    bool deadlineHit = false;
    /** Verify mode: the exact backend solved within budget. */
    bool gapKnown = false;
    /** Verify mode: II of the exact schedule (0 when unsolved). */
    Cycle exactII = 0;
    /** Verify mode: heuristic II - exact II (>= 0 when gapKnown). */
    Cycle iiGap = 0;
    /// @}
};

/** Scheduling outcome. */
struct ScheduleResult
{
    bool ok = false;
    std::string error;
    ModuloSchedule schedule;
    SchedStats stats;
};

/**
 * The scheduling engine. Construct once per loop and call run().
 */
class ClusteredModuloScheduler
{
  public:
    ClusteredModuloScheduler(const ddg::Ddg &graph,
                             const MachineConfig &machine,
                             SchedulerOptions options);

    /**
     * Schedule the loop using the caller's scratch context; never
     * throws, reports failure in the result. A warm context makes the
     * run allocation-free; one context must not serve two schedulers
     * concurrently.
     */
    ScheduleResult run(SchedContext &ctx);

    /** Convenience: run with a transient context. */
    ScheduleResult run();

  private:
    const ddg::Ddg &graph_;
    const MachineConfig &machine_;
    SchedulerOptions options_;
};

/** Convenience: baseline scheduler ([22]) with a miss threshold. */
ScheduleResult scheduleBaseline(const ddg::Ddg &graph,
                                const MachineConfig &machine,
                                double miss_threshold = 1.0,
                                cme::LocalityAnalysis *locality = nullptr);

/** Convenience: RMCA scheduler with a miss threshold. */
ScheduleResult scheduleRmca(const ddg::Ddg &graph,
                            const MachineConfig &machine,
                            double miss_threshold,
                            cme::LocalityAnalysis &locality);

} // namespace mvp::sched

#endif // MVP_SCHED_SCHEDULER_HH
