/**
 * @file
 * Pluggable scheduler backends.
 *
 * A SchedulerBackend turns (DDG, machine, options) into a
 * ScheduleResult; the registry maps stable string names to factories so
 * the harness, benches, examples and tests select schedulers by name
 * instead of hard-wiring engine types. Built-in backends:
 *
 *  - "baseline"  the register-affinity heuristic of [22];
 *  - "rmca"      the paper's memory-aware heuristic;
 *  - "exact"     the branch-and-bound scheduler of sched/exact/ that
 *                provably minimises II (register pressure as tiebreak)
 *                within a node budget;
 *  - "verify"    runs the heuristic (rmca) and the exact backend on the
 *                same loop and reports the II optimality gap in the
 *                returned stats (gapKnown / exactII / iiGap), keeping
 *                the heuristic schedule as the result.
 *
 * Out-of-tree code can register additional backends through
 * BackendRegistry::add().
 */

#ifndef MVP_SCHED_BACKEND_HH
#define MVP_SCHED_BACKEND_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/registry.hh"
#include "sched/scheduler.hh"

namespace mvp::sched
{

/** One scheduling engine behind a stable name. */
class SchedulerBackend
{
  public:
    virtual ~SchedulerBackend() = default;

    /** The registry name this backend was created under. */
    virtual std::string_view name() const = 0;

    /**
     * Schedule the loop using the caller's scratch context; never
     * throws, reports failure in the result. Options the backend does
     * not understand are ignored; docs/schedulers.md lists the
     * fields each backend reads.
     *
     * The context makes reentrancy explicit: a backend instance holds
     * no mutable state, so any number of schedule() calls may run
     * concurrently as long as each supplies its own SchedContext (the
     * parallel experiment driver keeps one per worker thread).
     */
    virtual ScheduleResult schedule(const ddg::Ddg &graph,
                                    const MachineConfig &machine,
                                    const SchedulerOptions &options,
                                    SchedContext &ctx) const = 0;

    /** schedule() with a transient context. */
    ScheduleResult schedule(const ddg::Ddg &graph,
                            const MachineConfig &machine,
                            const SchedulerOptions &options) const
    {
        SchedContext ctx;
        return schedule(graph, machine, options, ctx);
    }
};

/** Factory of one backend kind. */
using BackendFactory =
    std::function<std::unique_ptr<SchedulerBackend>()>;

/**
 * Name -> factory registry. The built-in backends are registered on
 * first access; add() extends it at runtime.
 */
class BackendRegistry
{
  public:
    /** The process-wide registry (built-ins pre-registered). */
    static BackendRegistry &instance();

    /** Register (or replace) a backend under @p name. */
    void add(std::string name, BackendFactory factory);

    /** True when @p name resolves to a backend. */
    bool has(const std::string &name) const;

    /** Instantiate @p name; fatal() on unknown names. */
    std::unique_ptr<SchedulerBackend> create(
        const std::string &name) const;

    /** All registered names, sorted. */
    std::vector<std::string> names() const;

  private:
    BackendRegistry();

    NamedFactoryTable<BackendFactory> table_;
};

/**
 * Convenience: schedule @p graph with the backend registered under
 * @p backend_name, using the caller's scratch context.
 */
ScheduleResult scheduleWithBackend(const std::string &backend_name,
                                   const ddg::Ddg &graph,
                                   const MachineConfig &machine,
                                   const SchedulerOptions &options,
                                   SchedContext &ctx);

/** scheduleWithBackend with a transient context. */
ScheduleResult scheduleWithBackend(const std::string &backend_name,
                                   const ddg::Ddg &graph,
                                   const MachineConfig &machine,
                                   const SchedulerOptions &options);

} // namespace mvp::sched

#endif // MVP_SCHED_BACKEND_HH
