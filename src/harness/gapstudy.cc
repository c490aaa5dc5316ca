#include "harness/gapstudy.hh"

#include <chrono>
#include <map>

#include "cme/provider.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "common/table.hh"
#include "sched/backend.hh"

namespace mvp::harness
{

int
GapStudy::known() const
{
    int n = 0;
    for (const auto &r : rows)
        n += r.gapKnown ? 1 : 0;
    return n;
}

int
GapStudy::unknown() const
{
    return static_cast<int>(rows.size()) - known();
}

int
GapStudy::tight() const
{
    int n = 0;
    for (const auto &r : rows)
        n += (r.gapKnown && r.gap == 0) ? 1 : 0;
    return n;
}

Cycle
GapStudy::totalGap() const
{
    Cycle g = 0;
    for (const auto &r : rows)
        if (r.gapKnown)
            g += r.gap;
    return g;
}

GapStudy
runGapStudy(Workbench &bench, const MachineConfig &machine,
            const GapOptions &options, ParallelDriver &driver)
{
    // Unknown names fail here, on the main thread, before fan-out.
    (void)cme::LocalityRegistry::instance().create(options.locality);
    const auto &entries = bench.entries();
    auto verify = sched::BackendRegistry::instance().create("verify");

    GapStudy study;
    study.options = options;
    study.rows.resize(entries.size());
    // Failures are recorded per item and reported after the pool
    // joins: a fatal inside a worker would std::exit() under the
    // feet of its siblings.
    std::vector<std::string> errors(entries.size());
    driver.run(entries.size(), [&](std::size_t i,
                                   sched::SchedContext &ctx) {
        auto &entry = *entries[i];
        sched::SchedulerOptions opt;
        opt.missThreshold = options.threshold;
        opt.locality = &entry.locality.get(options.locality);
        opt.searchBudget = options.searchBudget;
        opt.timeBudgetMs = options.timeBudgetMs;
        opt.exactBackend = options.exactBackend;
        const auto res =
            verify->schedule(*entry.ddg, machine, opt, ctx);
        if (!res.ok) {
            errors[i] = "gap study: heuristic failed for '" +
                        entry.nest.name() + "': " + res.error;
            return;
        }

        GapRow &row = study.rows[i];
        row.benchmark = entry.benchmark;
        row.loop = entry.nest.name();
        row.mii = res.stats.mii;
        row.heuristicII = res.schedule.ii();
        row.gapKnown = res.stats.gapKnown;
        row.exactII = res.stats.exactII;
        row.gap = res.stats.iiGap;
        row.provenOptimal = res.stats.provenOptimal;
        row.searchNodes = res.stats.searchNodes;
    });
    for (const std::string &err : errors)
        if (!err.empty())
            mvp_fatal(err);
    harvestLocalityMetrics(bench);
    return study;
}

std::vector<EngineOutcome>
runEngineComparison(Workbench &bench, const MachineConfig &machine,
                    const GapOptions &options,
                    const std::vector<std::string> &engines,
                    ParallelDriver &driver)
{
    std::vector<EngineOutcome> outcomes;
    for (const std::string &engine : engines) {
        // Unknown names fail here, on the main thread, with the
        // registry's own name-listing diagnostic.
        (void)sched::BackendRegistry::instance().create(engine);
        GapOptions opt = options;
        opt.exactBackend = engine;
        const auto start = std::chrono::steady_clock::now();
        const GapStudy study =
            runGapStudy(bench, machine, opt, driver);
        EngineOutcome out;
        out.engine = engine;
        out.loops = static_cast<int>(study.rows.size());
        out.certified = study.known();
        out.unknown = study.unknown();
        out.totalGap = study.totalGap();
        for (const GapRow &r : study.rows)
            out.searchNodes += r.searchNodes;
        out.wallMs = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count();
        outcomes.push_back(out);
    }
    return outcomes;
}

std::string
formatEngineComparison(const std::vector<EngineOutcome> &outcomes)
{
    TextTable table({"engine", "loops", "certified", "unknown",
                     "total gap", "work (nodes/conflicts)",
                     "wall (ms)"});
    table.setTitle("Certifying-engine comparison");
    for (const EngineOutcome &o : outcomes)
        table.addRow({o.engine, std::to_string(o.loops),
                      std::to_string(o.certified),
                      std::to_string(o.unknown),
                      std::to_string(o.totalGap),
                      std::to_string(o.searchNodes),
                      strprintf("%.1f", o.wallMs)});
    std::string out = table.render() + "\n";
    for (const EngineOutcome &o : outcomes)
        out += strprintf(
            "engine=%s loops=%d certified=%d unknown=%d gap=%lld "
            "nodes=%lld wall_ms=%.1f\n",
            o.engine.c_str(), o.loops, o.certified, o.unknown,
            static_cast<long long>(o.totalGap),
            static_cast<long long>(o.searchNodes), o.wallMs);
    return out;
}

std::string
formatGapTable(const GapStudy &study)
{
    TextTable table({"benchmark", "loop", "MII", "rmca II", "exact II",
                     "gap", "certificate"});
    table.setTitle("RMCA optimality gap");
    std::string last_bench;
    for (const auto &r : study.rows) {
        if (!last_bench.empty() && r.benchmark != last_bench)
            table.addRule();
        last_bench = r.benchmark;
        table.addRow(
            {r.benchmark, r.loop, std::to_string(r.mii),
             std::to_string(r.heuristicII),
             r.gapKnown ? std::to_string(r.exactII) : "?",
             r.gapKnown ? std::to_string(r.gap) : "unknown",
             !r.gapKnown        ? "budget exhausted"
             : r.provenOptimal  ? "proven (II == lower bound)"
                                : "best found in budget"});
    }

    // Per-benchmark aggregates.
    struct Agg
    {
        int loops = 0;
        int known = 0;
        int tight = 0;
        Cycle gap = 0;
    };
    std::map<std::string, Agg> aggs;
    std::vector<std::string> bench_order;
    for (const auto &r : study.rows) {
        if (!aggs.count(r.benchmark))
            bench_order.push_back(r.benchmark);
        auto &a = aggs[r.benchmark];
        ++a.loops;
        if (r.gapKnown) {
            ++a.known;
            a.gap += r.gap;
            if (r.gap == 0)
                ++a.tight;
        }
    }
    TextTable sum({"benchmark", "loops", "gap known", "rmca optimal",
                   "total gap (II cycles)"});
    sum.setTitle("Per-workload summary");
    for (const auto &name : bench_order) {
        const Agg &a = aggs.at(name);
        sum.addRow({name, std::to_string(a.loops),
                    std::to_string(a.known), std::to_string(a.tight),
                    std::to_string(a.gap)});
    }
    sum.addRule();
    sum.addRow({"all", std::to_string(study.rows.size()),
                std::to_string(study.known()),
                std::to_string(study.tight()),
                std::to_string(study.totalGap())});

    // The "gap unknown" count and the budget that produced it belong
    // in the report: a table where every gap is known under a 10 ms
    // clock and one where half are unknown under 10 s are different
    // results, not different renderings.
    const GapOptions &o = study.options;
    std::string budget =
        o.timeBudgetMs < 0
            ? "no deadline"
            : std::to_string(o.timeBudgetMs) + " ms wall-clock/loop";
    if (o.searchBudget > 0)
        budget += ", " + std::to_string(o.searchBudget) +
                  " nodes/II attempt";
    std::string tail = strprintf(
        "gap unknown on %d of %zu loops (certifying engine: %s; "
        "budget: %s)\n",
        study.unknown(), study.rows.size(), o.exactBackend.c_str(),
        budget.c_str());

    return table.render() + "\n" + sum.render() + "\n" + tail;
}

} // namespace mvp::harness
