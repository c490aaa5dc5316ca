/**
 * @file
 * Reproduction of Figure 6: realistic inter-cluster networks.
 *
 * Fixed: 2 register buses at 1-cycle latency. Swept, as in the paper:
 *  - number of memory buses NMB in {1, 2}
 *  - memory-bus latency LMB in {1, 4}
 *  - scheduler Baseline vs RMCA, thresholds {1.00, 0.75, 0.25, 0.00}
 *  - 2-cluster and 4-cluster machines.
 *
 * Headline claim: at the most effective threshold (0.00) RMCA beats the
 * Baseline by about 5% on 2 clusters and about 20% on 4 clusters,
 * because fewer local misses mean fewer accesses competing for the
 * scarce memory buses.
 *
 * The whole grid runs as one sharded runSuiteSweep (see fig5); output
 * is byte-identical at any --jobs count.
 *
 * Usage: fig6_limited [--jobs N]
 */

#include <cstdio>
#include <string>
#include <vector>

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

    struct Row
    {
        MachineConfig machine;
        int clusters;   ///< 0 = unified
        int nmb;
        Cycle lmb;
        const char *sched;
        double thr;
        bool ruleAfter = false;
    };
    std::vector<Row> rows;

    for (double thr : THRESHOLDS)
        rows.push_back({makeUnified(), 0, 0, 0, "rmca", thr});
    rows.back().ruleAfter = true;

    for (int clusters : {2, 4}) {
        for (int nmb : {1, 2}) {
            for (Cycle lmb : {1, 4}) {
                const auto machine =
                    withLimitedBuses(makeConfig(clusters), nmb, lmb);
                for (const char *sched : {"baseline", "rmca"})
                    for (double thr : THRESHOLDS)
                        rows.push_back(
                            {machine, clusters, nmb, lmb, sched, thr});
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

    TextTable table({"config", "NMB", "LMB", "sched", "thr", "compute",
                     "stall", "total", "norm"});
    table.setTitle("Figure 6: limited buses (2 reg buses @1cy), cycles "
                   "normalised to unified@1.00");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &row = rows[i];
        const auto &res = results[i];
        table.addRow(
            {row.clusters == 0
                 ? "unified"
                 : std::to_string(row.clusters) + "-cluster",
             row.clusters == 0 ? "-" : std::to_string(row.nmb),
             row.clusters == 0 ? "-" : std::to_string(row.lmb),
             row.sched == std::string("rmca") ? "RMCA" : "Baseline",
             fmtDouble(row.thr, 2), std::to_string(res.compute),
             std::to_string(res.stall), std::to_string(res.total()),
             fmtDouble(static_cast<double>(res.total()) / norm, 3)});
        if (row.ruleAfter)
            table.addRule();
    }
    std::printf("%s\n", table.render().c_str());

    // Headline: RMCA advantage at threshold 0.00, averaged over the
    // four bus configurations of the figure — read off the grid above.
    std::printf("RMCA advantage over Baseline at threshold 0.00 "
                "(paper: ~5%% on 2 clusters, ~20%% on 4):\n");
    for (int clusters : {2, 4}) {
        double ratio_sum = 0;
        int n = 0;
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const Row &row = rows[i];
            if (row.clusters != clusters || row.thr != 0.0 ||
                row.sched != std::string("baseline"))
                continue;
            // The matching RMCA row shares the bus configuration; it
            // sits THRESHOLDS-many rows later in the grid order.
            const auto &rb = results[i];
            const auto &rr = results[i + std::size(THRESHOLDS)];
            ratio_sum += static_cast<double>(rb.total()) /
                         static_cast<double>(rr.total());
            ++n;
        }
        std::printf("  %d-cluster: Baseline/RMCA = %.3f  (advantage "
                    "%.1f%%)\n",
                    clusters, ratio_sum / n,
                    100.0 * (ratio_sum / n - 1.0));
    }
    return 0;
}
