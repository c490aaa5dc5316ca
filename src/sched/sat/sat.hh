/**
 * @file
 * SAT-based exact modulo scheduler: the second exact engine family.
 *
 * Probes IIs upward from MII exactly like the branch-and-bound, but
 * answers each probe with the embedded CDCL solver (solver.hh) on the
 * placement encoding of encode.hh. One incremental Solver per loop
 * hosts all probes: each II's clauses are guarded by an activation
 * literal, a probe solves under that single assumption, a refuted
 * probe is retired with the negated activation unit, and learned
 * clauses carry across probes.
 *
 * Certificates and reporting mirror the B&B contract bit for bit:
 * UNSAT lifts iiLowerBound while refutations are gapless from MII,
 * provenOptimal = (ii == iiLowerBound) at the first feasible II,
 * wall-clock budgets degrade to "gap unknown" (budgetExhausted) with
 * the same error strings — so verify/gap-study tooling consumes either
 * engine interchangeably. The schedule itself generally differs from
 * the B&B winner (no register-pressure tiebreak): only the II and the
 * certificate are comparable, which is what the differential harness
 * asserts.
 */

#ifndef MVP_SCHED_SAT_SAT_HH
#define MVP_SCHED_SAT_SAT_HH

#include "common/types.hh"
#include "ddg/ddg.hh"
#include "machine/machine.hh"
#include "sched/context.hh"
#include "sched/scheduler.hh"

namespace mvp::sched
{

/** Options of the SAT exact backend (the sat-specific knobs). */
struct SatOptions
{
    /** Give up raising the II past this. */
    Cycle maxII = 512;

    /**
     * Per-II-attempt conflict cap; 0 = uncapped. The deterministic
     * budget (mirrors the B&B's node budget): an attempt that burns
     * its cap is aborted, and after four aborted attempts the search
     * reports "gap unknown".
     */
    std::int64_t conflictBudget = 0;

    /** Wall-clock budget (ms) for the whole search; < 0 = none. */
    std::int64_t timeBudgetMs = DEFAULT_TIME_BUDGET_MS;
};

/** Run the SAT exact scheduler with the caller's scratch context. */
ScheduleResult scheduleSatExact(const ddg::Ddg &graph,
                                const MachineConfig &machine,
                                const SatOptions &options,
                                SchedContext &ctx);

/** scheduleSatExact with a transient context. */
ScheduleResult scheduleSatExact(const ddg::Ddg &graph,
                                const MachineConfig &machine,
                                const SatOptions &options);

} // namespace mvp::sched

#endif // MVP_SCHED_SAT_SAT_HH
