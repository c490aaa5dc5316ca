/**
 * @file
 * Reproduction of Figure 5: an unbounded number of register and memory
 * buses, sweeping the bus latencies.
 *
 * Axes, exactly as in the paper:
 *  - configurations: Unified, 2-cluster, 4-cluster (Table 1)
 *  - register-bus latency LRB in {1, 2, 4} (clustered only)
 *  - memory-bus latency LMB in {1, 2, 4}
 *  - scheduler: Baseline vs RMCA
 *  - cache-miss threshold in {1.00, 0.75, 0.25, 0.00}
 *
 * Each paper bar = one row here: NCYCLE_compute and NCYCLE_stall summed
 * over the eight benchmark suites, normalised to the Unified machine at
 * threshold 1.00. The paper's claims to check:
 *  - RMCA <= Baseline everywhere;
 *  - lower thresholds raise compute and cut stall; at 0.00 stall ~ 0;
 *  - at threshold 0.00 clustered totals approach the unified ones.
 *
 * The whole grid is one runSuiteSweep: every (loop, configuration)
 * point is an independent work item sharded over --jobs workers
 * (default: all cores), and the emitted table is byte-identical at any
 * job count.
 *
 * Usage: fig5_unbounded [--jobs N]
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "common/table.hh"
#include "harness/experiment.hh"
#include "harness/flags.hh"
#include "machine/presets.hh"

using namespace mvp;
using harness::RunConfig;

namespace
{

const double THRESHOLDS[] = {1.00, 0.75, 0.25, 0.00};

} // namespace

int
main(int argc, char **argv)
{
    harness::parseObservabilityFlags(argc, argv);
    harness::ParallelDriver driver(harness::parseJobsFlag(argc, argv));
    RunConfig base;
    harness::parseLocalityFlag(argc, argv, base.locality);
    harness::rejectUnknownFlags(argc, argv,
                                {"--jobs", "--locality", "--log-level",
                                 "--metrics", "--trace"});
    harness::Workbench bench;

    // --- Collect every configuration of the figure, then sweep once:
    // the sharded item space is (configs x loops). ---
    struct Row
    {
        MachineConfig machine;
        Cycle lrb;
        Cycle lmb;
        const char *sched;
        double thr;
        bool ruleAfter = false;
    };
    std::vector<Row> rows;
    auto add = [&](const MachineConfig &machine, Cycle lrb, Cycle lmb,
                   const char *sched, double thr) -> Row & {
        rows.push_back({machine, lrb, lmb, sched, thr});
        return rows.back();
    };

    // Unified: the four threshold bars (scheduler identical for one
    // cluster; bus latencies are irrelevant to register traffic).
    for (double thr : THRESHOLDS)
        add(withUnboundedBuses(makeUnified(), 1, 1), 1, 1, "rmca", thr);
    rows.back().ruleAfter = true;

    for (int clusters : {2, 4}) {
        for (Cycle lrb : {1, 2, 4}) {
            for (Cycle lmb : {1, 2, 4}) {
                const auto machine = withUnboundedBuses(
                    makeConfig(clusters), lrb, lmb);
                for (const char *sched : {"baseline", "rmca"})
                    for (double thr : THRESHOLDS)
                        add(machine, lrb, lmb, sched, thr);
                rows.back().ruleAfter = true;
            }
        }
    }

    std::vector<RunConfig> configs;
    configs.reserve(rows.size());
    for (const Row &row : rows) {
        RunConfig cfg = base;
        cfg.machine = row.machine;
        cfg.backend = row.sched;
        cfg.threshold = row.thr;
        configs.push_back(cfg);
    }
    const auto results =
        harness::runSuiteSweep(bench, configs, {}, driver);

    // Normaliser: unified machine, threshold 1.00 (the first row).
    const double norm = static_cast<double>(results[0].total());

    TextTable table({"config", "LRB", "LMB", "sched", "thr", "compute",
                     "stall", "total", "norm"});
    table.setTitle(
        "Figure 5: unbounded buses, cycles normalised to unified@1.00");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &row = rows[i];
        const auto &res = results[i];
        table.addRow({row.machine.isClustered()
                          ? std::to_string(row.machine.nClusters) +
                                "-cluster"
                          : "unified",
                      row.machine.isClustered() ? std::to_string(row.lrb)
                                                : "-",
                      std::to_string(row.lmb),
                      row.sched == std::string("rmca") ? "RMCA"
                                                       : "Baseline",
                      fmtDouble(row.thr, 2),
                      std::to_string(res.compute),
                      std::to_string(res.stall),
                      std::to_string(res.total()),
                      fmtDouble(static_cast<double>(res.total()) / norm,
                                3)});
        if (row.ruleAfter)
            table.addRule();
    }
    std::printf("%s\n", table.render().c_str());

    // Paper-claim summary at the reference point LRB=1, LMB=1. The
    // needed points are rows of the grid above: find them by key.
    auto find = [&](int clusters, const char *sched,
                    double thr) -> const harness::SuiteResult & {
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const Row &row = rows[i];
            if (row.machine.nClusters == clusters && row.lrb == 1 &&
                row.lmb == 1 && row.thr == thr &&
                row.sched == std::string(sched))
                return results[i];
        }
        mvp_fatal("figure grid is missing a summary point");
    };
    std::printf("checks (LRB=1, LMB=1):\n");
    for (int clusters : {2, 4}) {
        const auto &rb = find(clusters, "baseline", 0.0);
        const auto &rr = find(clusters, "rmca", 0.0);
        const auto &rr1 = find(clusters, "rmca", 1.0);
        std::printf("  %d-cluster thr=0.00: RMCA/Baseline = %.3f "
                    "(<= 1 expected), stall share = %.1f%% "
                    "(~0 expected), thr 1.00 -> 0.00 stall %.0f%% -> "
                    "%.0f%%\n",
                    clusters,
                    static_cast<double>(rr.total()) /
                        static_cast<double>(rb.total()),
                    100.0 * static_cast<double>(rr.stall) /
                        static_cast<double>(rr.total()),
                    100.0 * static_cast<double>(rr1.stall) /
                        static_cast<double>(rr1.total()),
                    100.0 * static_cast<double>(rr.stall) /
                        static_cast<double>(rr.total()));
    }
    return 0;
}
