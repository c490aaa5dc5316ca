/**
 * @file
 * The `table1` workload: the paper's Table-1 sweep — every builtin
 * loop on the unified, 2-cluster and 4-cluster machines under the
 * baseline and RMCA schedulers at four miss thresholds (768 items per
 * pass) — sharded across a 2-worker ParallelDriver. Each pass runs on
 * a fresh Workbench, so first-touch CME queries are paid the way one
 * fig5/fig6 invocation pays them. Its time is dominated by sim and
 * cold cme; it runs no exact, sat, text or svc code.
 */

#include <algorithm>
#include <cstdio>
#include <optional>

#include "bench.hh"
#include "common/strutil.hh"
#include "harness/experiment.hh"
#include "machine/presets.hh"
#include "sched/backend.hh"

namespace perfbench
{
namespace
{

using namespace mvp;

/** The pinned fold of the 24 suite tables (sweep_bench's table1). */
constexpr std::uint64_t TABLE1_FINGERPRINT = 0x681960411cb6c089ULL;
constexpr int WORKERS = 2;

/** The suite table of one configuration (harness::runSuite's merge). */
harness::SuiteResult
mergeSuite(std::vector<harness::LoopRunResult>::const_iterator first,
           std::vector<harness::LoopRunResult>::const_iterator last)
{
    harness::SuiteResult suite;
    for (auto it = first; it != last; ++it) {
        suite.compute += it->sim.computeCycles;
        suite.stall += it->sim.stallCycles;
        auto &per = suite.perBenchmark[it->benchmark];
        per.first += it->sim.computeCycles;
        per.second += it->sim.stallCycles;
        suite.loops.push_back(*it);
    }
    return suite;
}

class Table1 final : public Workload
{
  public:
    explicit Table1(const Args &args) : driver_(WORKERS)
    {
        for (const auto &machine :
             {makeUnified(), makeTwoCluster(), makeFourCluster()})
            for (const char *backend : {"baseline", "rmca"})
                for (const double thr : {1.00, 0.75, 0.25, 0.00}) {
                    harness::RunConfig cfg;
                    cfg.machine = machine;
                    cfg.backend = backend;
                    cfg.threshold = thr;
                    configs_.push_back(cfg);
                }
        seed_ = args.seed;
    }

    int workers() const override { return WORKERS; }

    void layerMetrics(const std::vector<Span> &spans, std::int64_t from,
                      std::int64_t to, int passes,
                      std::vector<Metric> &out) override;

    double setup(bool traced) override
    {
        const std::int64_t start = nowNs();
        ready_ = prepareWorkbench(traced);
        return static_cast<double>(nowNs() - start) / 1e9;
    }

    void pass(bool traced, Tally &tally) override
    {
        const std::unique_ptr<harness::Workbench> bench = std::move(ready_);
        const auto &entries = bench->entries();
        const std::size_t per = entries.size();
        const std::size_t n = per * configs_.size();
        if (order_.size() != n)
            order_ = permutation(n, seed_);

        std::vector<harness::LoopRunResult> results(n);
        std::vector<double> ms(n);
        const std::int64_t start = nowNs();
        driver_.run(n, [&](std::size_t k, sched::SchedContext &ctx) {
            const std::size_t i = order_[k];
            harness::Workbench::Entry &entry = *entries[i % per];
            const harness::RunConfig &cfg = configs_[i / per];
            const std::int64_t t0 = nowNs();
            if (traced) {
                Scope item(SpanKind::Item, static_cast<std::int64_t>(i));
                results[i] = harness::runLoop(entry, cfg, {}, ctx);
            } else {
                results[i] = harness::runLoop(entry, cfg, {}, ctx);
            }
            ms[i] = msSince(t0);
        });
        tally.notePass(start, n);

        // Checks, outside the timed region.
        std::string tables;
        for (std::size_t c = 0; c < configs_.size(); ++c)
            tables += harness::formatSuiteResult(
                mergeSuite(results.begin() + static_cast<long>(c * per),
                           results.begin() +
                               static_cast<long>((c + 1) * per)));
        const std::uint64_t fp = fnv1a(tables);
        if (fp != TABLE1_FINGERPRINT)
            std::fprintf(stderr,
                         "table1: suite tables fold to 0x%016llx, "
                         "expected 0x%016llx\n",
                         static_cast<unsigned long long>(fp),
                         static_cast<unsigned long long>(
                             TABLE1_FINGERPRINT));
        std::int64_t cycles = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const harness::LoopRunResult &r = results[i];
            const harness::RunConfig &cfg = configs_[i / per];
            bool ok = fp == TABLE1_FINGERPRINT && r.sched.ok;
            if (ok) {
                // runLoop validated this schedule too; the span here
                // stands in for that call's time.
                std::optional<Scope> span;
                if (traced)
                    span.emplace(SpanKind::Validate,
                                 static_cast<std::int64_t>(i));
                const std::string err = r.sched.schedule.validate(
                    *entries[i % per]->ddg, cfg.machine);
                span.reset();
                if (!err.empty()) {
                    std::fprintf(stderr, "table1: invalid schedule: %s\n",
                                 err.c_str());
                    ok = false;
                }
            }
            cycles += r.sim.computeCycles + r.sim.stallCycles;
            tally.addItem(cfg.backend, ms[i], ok);
        }
        tally.notePassCycles(cycles, static_cast<std::int64_t>(n));
    }

  private:
    harness::ParallelDriver driver_;
    std::vector<harness::RunConfig> configs_;
    std::uint64_t seed_ = 0;
    std::vector<std::size_t> order_;
    std::unique_ptr<harness::Workbench> ready_;
};

/**
 * An item's self time — its span minus the wrapped scheduler spans
 * under it — is runLoop's validate plus simulate; sim time is that
 * minus the validate spans the checks record.
 */
void
Table1::layerMetrics(const std::vector<Span> &spans, std::int64_t from,
                     std::int64_t to, int passes, std::vector<Metric> &out)
{
    const LayerTotals run = aggregate(spans, from, to);
    const KindTotals &item = run[static_cast<std::size_t>(SpanKind::Item)];
    const KindTotals &validate =
        run[static_cast<std::size_t>(SpanKind::Validate)];
    const double sim_ns = static_cast<double>(item.selfNs - validate.totalNs);
    const double per = std::max(1, passes);
    setMetric(out, "sim.simulate.calls", static_cast<double>(item.calls) / per);
    setMetric(out, "sim.simulate.self_ms", sim_ns / 1e6 / per);
    setMetric(out, "sim.simulate.share",
              item.totalNs > 0 ? sim_ns / static_cast<double>(item.totalNs)
                               : 0.0);
}

} // namespace

std::unique_ptr<Workload>
makeTable1(const Args &args)
{
    return std::make_unique<Table1>(args);
}

} // namespace perfbench
