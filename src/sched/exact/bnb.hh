/**
 * @file
 * Exact modulo scheduling by conflict-driven branch and bound.
 *
 * The search enumerates, at a fixed II, every (cluster, cycle) placement
 * of every operation over the same candidate windows the heuristic
 * scheduler scans — both call the placement kernel of sched/window.hh
 * (SMS direction rule, at most II slots per op, with cross-cluster
 * transfers booked earliest-fit on the register buses) — backtracking
 * through the modulo reservation table. The II iterates
 * upward from MII until a feasible schedule exists; the first feasible
 * II is minimal over the enumerated placement space, which contains
 * every schedule the heuristic family (baseline and RMCA, any
 * threshold) can emit — so the reported heuristic-vs-exact II gap is
 * exact for this scheduler family.
 *
 * Certificate semantics: a schedule found at II == MII is optimal in
 * the absolute sense (the resource/recurrence lower bound is the
 * certificate). When lower IIs were instead ruled out by exhausting
 * the search (refutation lifting), the provenOptimal flag is relative
 * to the enumerated placement space — the compact per-op windows and
 * earliest-fit transfer rule could in principle exclude an exotic
 * schedule (e.g. one that spreads lifetimes across extra stages to
 * duck under the register limit), so such a certificate proves "no
 * scheduler of this family can do better", not absolute infeasibility
 * below.
 *
 * Pruning, strongest first:
 *  - incremental register pressure (exact/pressure.hh): lifetime
 *    intervals only grow along a DFS path, so a partial schedule whose
 *    per-cluster MaxLive already exceeds the register file — or whose
 *    summed MaxLive already reaches the incumbent during the tiebreak —
 *    is cut without visiting its subtree;
 *  - conflict-driven backjumping: every refuted candidate cites the
 *    earlier decisions implicated in its failure (window-defining
 *    neighbours, FU-slot occupants, booked transfers); when an op's
 *    candidates are exhausted the union of citations names the deepest
 *    decision worth revisiting, skipping the unimplicated levels in
 *    between, and an empty union certifies the whole II infeasible on
 *    the spot (lifted into the iiLowerBound that persists across II
 *    probes);
 *  - MII = max(ResMII, RecMII) floors the II iteration (so every
 *    FU class always fits the reservation table), dependence windows
 *    cap candidates per op at II cycles, and bus saturation fails
 *    candidates before commit.
 *
 * Once a feasible schedule is found at the minimal II, the search keeps
 * running to minimise the register-pressure tiebreak (summed MaxLive).
 * The II ladder and its budgets are sched/ladder.hh's: the node cap
 * (SchedulerOptions::searchBudget, candidate placements per II
 * attempt) and the wall-clock deadline (timeBudgetMs, polled on the
 * node-charging path) both degrade the search gracefully — the best
 * schedule so far is returned with provenOptimal == false ("gap
 * unknown").
 */

#ifndef MVP_SCHED_EXACT_BNB_HH
#define MVP_SCHED_EXACT_BNB_HH

#include "ddg/ddg.hh"
#include "machine/machine.hh"
#include "sched/scheduler.hh"

namespace mvp::sched::exact
{

/**
 * Branch-and-bound search toggles. The budgets and maxII are the
 * SchedulerOptions ones, shared with the sat engine.
 */
struct ExactOptions
{
    /**
     * After the minimal II is secured, keep searching that II for the
     * schedule with the smallest summed MaxLive (the tiebreak of the
     * exact-scheduling literature). Off = stop at the first feasible
     * schedule.
     */
    bool tiebreakPressure = true;

    /** Conflict-driven backjumping (loops of <= 64 ops). */
    bool conflictLearning = true;
};

/**
 * Schedule @p graph exactly under @p options' budgets and maxII,
 * drawing ordering/lifetime scratch from @p ctx. Never throws; failure
 * (no feasible II within maxII, or a budget exhausted before any
 * schedule was found) is reported in the result. The stats fields
 * filled in: resMii, recMii, mii, iiAttempts, comms, provenOptimal,
 * iiLowerBound, pressureOptimal, searchNodes, budgetExhausted,
 * deadlineHit.
 *
 * Node charging is interleaving-independent: every child the search
 * considers is charged exactly once (see Searcher::chargeNode), so
 * under a pure node cap the degradation point is a pure function of
 * (loop, machine, options) — identical whether loops are swept
 * serially or sharded across a thread pool. The wall-clock budget
 * trades that reproducibility of the *cutoff point* for a
 * machine-meaningful bound; results that settle within the budget are
 * deterministic either way.
 */
ScheduleResult scheduleExact(const ddg::Ddg &graph,
                             const MachineConfig &machine,
                             const SchedulerOptions &options,
                             SchedContext &ctx,
                             const ExactOptions &toggles = {});

/** scheduleExact with a transient context. */
ScheduleResult scheduleExact(const ddg::Ddg &graph,
                             const MachineConfig &machine,
                             const SchedulerOptions &options = {},
                             const ExactOptions &toggles = {});

} // namespace mvp::sched::exact

#endif // MVP_SCHED_EXACT_BNB_HH
