/**
 * @file
 * The II ladder both exact engines climb (§4.1): start at MII, probe
 * one II at a time, raise the II when a probe fails.
 *
 * climbIiLadder() owns the policy the branch and bound (exact/bnb.cc)
 * and the CDCL engine (sat/sat.cc) share, so their certificates agree
 * by construction:
 *
 *  - MII = max(ResMII, RecMII) seeds the ladder and iiLowerBound;
 *  - a refuted probe lifts iiLowerBound while refutations are gapless
 *    from MII;
 *  - the first feasible II is the answer, provenOptimal when it meets
 *    the lower bound (an aborted probe on the way left the bound
 *    behind, so the schedule is then best-in-budget, not proven);
 *  - an aborted probe moves on to a larger II (usually much easier)
 *    until MAX_ABORTED_ATTEMPTS probes have aborted, while an expired
 *    deadline ends the search outright (time does not come back at a
 *    larger II).
 *
 * Budgets come from SchedulerOptions alone: searchBudget caps each
 * probe's work in the engine's own unit (B&B candidate nodes, CDCL
 * conflicts; 0 = uncapped), timeBudgetMs is the deadline of the whole
 * search. Either one firing degrades the search to "gap unknown"
 * (budgetExhausted); only the deadline makes the outcome depend on
 * load (deadlineHit).
 */

#ifndef MVP_SCHED_LADDER_HH
#define MVP_SCHED_LADDER_HH

#include <chrono>
#include <cstdint>

#include "ddg/ddg.hh"
#include "machine/machine.hh"
#include "sched/scheduler.hh"

namespace mvp::sched
{

/**
 * The whole-search wall-clock deadline (SchedulerOptions::timeBudgetMs;
 * negative = none, 0 = expired on entry). Every check that finds it
 * expired is recorded, and becomes SchedStats::deadlineHit.
 */
class SearchClock
{
  public:
    explicit SearchClock(std::int64_t budget_ms)
        : on_(budget_ms >= 0),
          deadline_(std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(budget_ms))
    {
    }

    bool on() const { return on_; }
    std::chrono::steady_clock::time_point deadline() const
    {
        return deadline_;
    }

    bool expired()
    {
        if (!on_ || std::chrono::steady_clock::now() < deadline_)
            return false;
        hit_ = true;
        return true;
    }

    /** Some check found the deadline expired. */
    bool hit() const { return hit_; }

  private:
    bool on_;
    bool hit_ = false;
    std::chrono::steady_clock::time_point deadline_;
};

/** Verdict of one fixed-II probe. */
enum class Probe
{
    Feasible,   ///< a schedule exists at this II (the engine holds it)
    Refuted,    ///< no schedule at this II in the engine's space
    Aborted,    ///< a budget fired first: neither found nor refuted
};

/** One exact engine, as the ladder drives it. */
class IiProber
{
  public:
    /** Once, before the first probe: MII is known, the clock runs. */
    virtual void begin(Cycle mii, SearchClock &clock) = 0;

    /** Search one II. */
    virtual Probe probe(Cycle ii) = 0;

    /**
     * A budget cut a probe short that still returned Feasible (the
     * B&B's register-pressure tiebreak); aborted probes count anyway.
     */
    virtual bool budgetHit() const { return false; }

    /**
     * Once, after the last probe, with the ladder's verdict: set
     * searchNodes, fold the engine's counters and, when ok, attach the
     * schedule and its comms.
     */
    virtual void finish(ScheduleResult &result) = 0;
};

/**
 * Climb the ladder for @p graph on @p machine under @p options' budgets
 * and maxII. Fills resMii, recMii, mii, iiLowerBound, iiAttempts, ok,
 * provenOptimal, budgetExhausted, deadlineHit and, on failure, the
 * error; then hands the result to @p prober's finish(). An empty loop
 * fails before begin().
 */
ScheduleResult climbIiLadder(const ddg::Ddg &graph,
                             const MachineConfig &machine,
                             const SchedulerOptions &options,
                             IiProber &prober);

} // namespace mvp::sched

#endif // MVP_SCHED_LADDER_HH
