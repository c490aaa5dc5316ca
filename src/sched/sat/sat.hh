/**
 * @file
 * SAT-based exact modulo scheduler: the second exact engine family.
 *
 * Climbs the same II ladder as the branch and bound (sched/ladder.hh),
 * but answers each probe with the embedded CDCL solver (solver.hh) on the
 * placement encoding of encode.hh. One incremental Solver per loop
 * hosts all probes: each II's clauses are guarded by an activation
 * literal, a probe solves under that single assumption, a refuted
 * probe is retired with the negated activation unit, and learned
 * clauses carry across probes. The solver and the encoder's buffers
 * are the SchedContext's, reset() when a search starts, so a warm
 * context encodes and solves without regrowing them.
 *
 * Certificates and reporting are the B&B's because the ladder is
 * shared: UNSAT lifts iiLowerBound while refutations are gapless from
 * MII, provenOptimal = (ii == iiLowerBound) at the first feasible II,
 * budgets degrade to "gap unknown" (budgetExhausted) with the same
 * error strings — so verify/gap-study tooling consumes either engine
 * interchangeably. The schedule itself generally differs from
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

/**
 * Run the SAT exact scheduler under @p options' budgets and maxII
 * (searchBudget caps the conflicts of each solve; a probe re-solves
 * after a pressure cut or a blocked model), with the caller's scratch
 * context.
 */
ScheduleResult scheduleSatExact(const ddg::Ddg &graph,
                                const MachineConfig &machine,
                                const SchedulerOptions &options,
                                SchedContext &ctx);

/** scheduleSatExact with a transient context. */
ScheduleResult scheduleSatExact(const ddg::Ddg &graph,
                                const MachineConfig &machine,
                                const SchedulerOptions &options = {});

} // namespace mvp::sched

#endif // MVP_SCHED_SAT_SAT_HH
