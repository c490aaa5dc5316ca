/**
 * @file
 * Ablation of the RMCA scheduler's two mechanisms (experiment E6 in
 * DESIGN.md), on the realistic 4-cluster machine with one slow memory
 * bus (the configuration where the paper reports the largest gap):
 *
 *   1. Baseline, threshold 1.00   — neither mechanism
 *   2. Baseline, threshold 0.00   — binding prefetching only
 *   3. RMCA,     threshold 1.00   — CME cluster selection only
 *   4. RMCA,     threshold 0.00   — the full scheme
 *
 * Also reports the node-ordering quality metric of [22] and the
 * schedulers' static figures (mean II, communications, promoted loads)
 * so the contribution of each design choice is visible in isolation.
 *
 * Usage: ablation_components [--jobs N]
 */

#include <cstdio>
#include <map>
#include <vector>

#include "common/strutil.hh"
#include "common/table.hh"
#include "harness/experiment.hh"
#include "harness/flags.hh"
#include "machine/presets.hh"

using namespace mvp;
using harness::RunConfig;

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
    const auto machine = withLimitedBuses(makeFourCluster(), 1, 4);
    std::printf("machine: %s\n\n", machine.summary().c_str());

    struct Variant
    {
        const char *label;
        const char *backend;
        double thr;
    };
    const Variant variants[] = {
        {"neither (Baseline, thr 1.00)", "baseline", 1.0},
        {"prefetch only (Baseline, thr 0.00)", "baseline", 0.0},
        {"CME clusters only (RMCA, thr 1.00)", "rmca", 1.0},
        {"full RMCA (thr 0.00)", "rmca", 0.0},
    };

    std::vector<RunConfig> configs;
    for (const auto &v : variants) {
        RunConfig cfg = base;
        cfg.machine = machine;
        cfg.backend = v.backend;
        cfg.threshold = v.thr;
        configs.push_back(cfg);
    }
    const auto results =
        harness::runSuiteSweep(bench, configs, {}, driver);

    TextTable table({"variant", "compute", "stall", "total", "vs none",
                     "mean II", "comms", "promoted", "fills"});
    table.setTitle("RMCA component ablation (4-cluster, NMB=1, LMB=4)");

    const double none_total = static_cast<double>(results[0].total());
    for (std::size_t vi = 0; vi < std::size(variants); ++vi) {
        const auto &res = results[vi];
        double ii_sum = 0;
        std::int64_t comms = 0;
        std::int64_t promoted = 0;
        std::int64_t fills = 0;
        for (const auto &loop : res.loops) {
            ii_sum += static_cast<double>(loop.sched.schedule.ii());
            comms += static_cast<std::int64_t>(
                loop.sched.schedule.numComms());
            promoted += loop.sched.stats.missScheduledLoads;
            fills += loop.sim.memStats.value("memory_fills");
        }
        table.addRow({variants[vi].label, std::to_string(res.compute),
                      std::to_string(res.stall),
                      std::to_string(res.total()),
                      fmtDouble(static_cast<double>(res.total()) /
                                    none_total,
                                3),
                      fmtDouble(ii_sum / static_cast<double>(
                                             res.loops.size()),
                                2),
                      std::to_string(comms), std::to_string(promoted),
                      std::to_string(fills)});
    }
    std::printf("%s\n", table.render().c_str());

    // Ordering quality: the metric [22] minimises, per suite. The
    // per-loop stats already sit in the RMCA/1.00 sweep results.
    TextTable ord({"benchmark", "loops", "both-neighbour positions"});
    ord.setTitle("Swing ordering quality (0 = ideal for acyclic parts)");
    std::map<std::string, std::pair<int, int>> per_bench;
    for (const auto &loop : results[2].loops) {
        auto &slot = per_bench[loop.benchmark];
        slot.first += 1;
        slot.second += loop.sched.stats.orderingBothNeighbours;
    }
    for (const auto &[name, counts] : per_bench)
        ord.addRow({name, std::to_string(counts.first),
                    std::to_string(counts.second)});
    std::printf("%s\n", ord.render().c_str());
    return 0;
}
