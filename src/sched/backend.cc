#include "sched/backend.hh"

#include <memory>

#include "cme/provider.hh"
#include "common/logging.hh"
#include "sched/exact/bnb.hh"
#include "sched/sat/sat.hh"

namespace mvp::sched
{

namespace
{

/**
 * Bind the named locality provider to the loop when @p opt needs a
 * locality analysis but carries none. Returns the owning pointer the
 * caller must keep alive for the schedule call (nullptr when @p opt
 * already has an analysis or does not need one).
 */
std::unique_ptr<cme::LocalityAnalysis>
bindFallbackLocality(SchedulerOptions &opt, const ddg::Ddg &graph)
{
    if (opt.locality != nullptr ||
        (!opt.memoryAware && opt.missThreshold >= 1.0))
        return nullptr;
    auto bound = cme::LocalityRegistry::instance().bind(
        opt.localityProvider.empty() ? "cme" : opt.localityProvider,
        graph.loop());
    opt.locality = bound.get();
    return bound;
}

/** Map the generic scheduler options onto the exact engine's knobs. */
exact::ExactOptions
exactOptionsFrom(const SchedulerOptions &options)
{
    exact::ExactOptions bnb;
    bnb.maxII = options.maxII;
    bnb.nodeBudget = options.searchBudget;
    bnb.timeBudgetMs = options.timeBudgetMs;
    return bnb;
}

/** Map the generic scheduler options onto the SAT engine's knobs. */
SatOptions
satOptionsFrom(const SchedulerOptions &options)
{
    SatOptions sat;
    sat.maxII = options.maxII;
    sat.conflictBudget = options.satConflictBudget;
    sat.timeBudgetMs = options.timeBudgetMs;
    return sat;
}

/** The two heuristic engines share one wrapper; only memoryAware
 * differs. */
class HeuristicBackend : public SchedulerBackend
{
  public:
    HeuristicBackend(std::string_view name, bool memory_aware)
        : name_(name), memory_aware_(memory_aware)
    {
    }

    std::string_view name() const override { return name_; }

    ScheduleResult schedule(const ddg::Ddg &graph,
                            const MachineConfig &machine,
                            const SchedulerOptions &options,
                            SchedContext &ctx) const override
    {
        SchedulerOptions opt = options;
        opt.memoryAware = memory_aware_;
        const auto bound = bindFallbackLocality(opt, graph);
        return ClusteredModuloScheduler(graph, machine, opt).run(ctx);
    }

  private:
    std::string_view name_;
    bool memory_aware_;
};

/** The serial branch and bound, registered as "exact" and its
 * engine-explicit alias "bnb" (the gap-study engine sweep addresses
 * the two exact families as bnb vs sat). */
class ExactBackend : public SchedulerBackend
{
  public:
    explicit ExactBackend(std::string_view name) : name_(name) {}

    std::string_view name() const override { return name_; }

    ScheduleResult schedule(const ddg::Ddg &graph,
                            const MachineConfig &machine,
                            const SchedulerOptions &options,
                            SchedContext &ctx) const override
    {
        return exact::scheduleExact(graph, machine,
                                    exactOptionsFrom(options), ctx);
    }

  private:
    std::string_view name_;
};

/**
 * The SAT exact engine (sched/sat/): CDCL over the placement encoding,
 * certifying the same IIs as the branch and bound — the schedule
 * itself may differ (no register-pressure tiebreak), the II, lower
 * bound and certificate agree.
 */
class SatBackend : public SchedulerBackend
{
  public:
    std::string_view name() const override { return "sat"; }

    ScheduleResult schedule(const ddg::Ddg &graph,
                            const MachineConfig &machine,
                            const SchedulerOptions &options,
                            SchedContext &ctx) const override
    {
        return scheduleSatExact(graph, machine, satOptionsFrom(options),
                                ctx);
    }
};

/**
 * Runs the rmca heuristic and the exact scheduler on the same loop and
 * reports the II optimality gap of the heuristic. The heuristic
 * schedule is the one returned (verify is a *measurement* mode, not a
 * better scheduler); the gap fields land in the stats.
 */
class VerifyBackend : public SchedulerBackend
{
  public:
    std::string_view name() const override { return "verify"; }

    ScheduleResult schedule(const ddg::Ddg &graph,
                            const MachineConfig &machine,
                            const SchedulerOptions &options,
                            SchedContext &ctx) const override
    {
        SchedulerOptions heur_opt = options;
        heur_opt.memoryAware = true;
        const auto bound = bindFallbackLocality(heur_opt, graph);
        ScheduleResult res =
            ClusteredModuloScheduler(graph, machine, heur_opt).run(ctx);

        // The certifying engine is pluggable ("exact"/"bnb" or "sat");
        // "verify" itself falls back to "exact" rather than recursing.
        const std::string &inner =
            options.exactBackend == "verify" || options.exactBackend.empty()
                ? "exact"
                : options.exactBackend;
        const ScheduleResult ex =
            scheduleWithBackend(inner, graph, machine, options, ctx);

        res.stats.searchNodes = ex.stats.searchNodes;
        res.stats.budgetExhausted = ex.stats.budgetExhausted;
        res.stats.iiLowerBound = ex.stats.iiLowerBound;
        if (ex.ok) {
            res.stats.gapKnown = true;
            res.stats.exactII = ex.schedule.ii();
            res.stats.provenOptimal = ex.stats.provenOptimal;
            if (res.ok)
                res.stats.iiGap =
                    res.schedule.ii() - ex.schedule.ii();
        }
        return res;
    }
};

} // namespace

BackendRegistry::BackendRegistry()
{
    add("baseline", [] {
        return std::make_unique<HeuristicBackend>("baseline", false);
    });
    add("rmca", [] {
        return std::make_unique<HeuristicBackend>("rmca", true);
    });
    add("exact",
        [] { return std::make_unique<ExactBackend>("exact"); });
    add("bnb", [] { return std::make_unique<ExactBackend>("bnb"); });
    add("sat", [] { return std::make_unique<SatBackend>(); });
    add("verify", [] { return std::make_unique<VerifyBackend>(); });
}

BackendRegistry &
BackendRegistry::instance()
{
    static BackendRegistry registry;
    return registry;
}

void
BackendRegistry::add(std::string name, BackendFactory factory)
{
    table_.add(std::move(name), std::move(factory));
}

bool
BackendRegistry::has(const std::string &name) const
{
    return table_.has(name);
}

std::unique_ptr<SchedulerBackend>
BackendRegistry::create(const std::string &name) const
{
    return table_.get(name, "scheduler backend")();
}

std::vector<std::string>
BackendRegistry::names() const
{
    return table_.names();
}

ScheduleResult
scheduleWithBackend(const std::string &backend_name,
                    const ddg::Ddg &graph, const MachineConfig &machine,
                    const SchedulerOptions &options, SchedContext &ctx)
{
    return BackendRegistry::instance()
        .create(backend_name)
        ->schedule(graph, machine, options, ctx);
}

ScheduleResult
scheduleWithBackend(const std::string &backend_name,
                    const ddg::Ddg &graph, const MachineConfig &machine,
                    const SchedulerOptions &options)
{
    SchedContext ctx;
    return scheduleWithBackend(backend_name, graph, machine, options,
                               ctx);
}

} // namespace mvp::sched
