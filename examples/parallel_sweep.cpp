/**
 * @file
 * The sharded experiment driver in five steps: prepare the workbench
 * once, describe a configuration grid, sweep it across a worker pool,
 * and read the merged per-configuration results — which are
 * byte-identical no matter how many workers ran (demonstrated at the
 * end by re-running the sweep serially and comparing serialisations).
 *
 * Usage: parallel_sweep [--jobs N] [--workloads A,B,...]
 *        (default: all cores, three of the builtin conflict suites;
 *        --workloads accepts builtin names, file:<path> loop files and
 *        gen:<spec> generated suites)
 */

#include <cstdio>
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
    // --- 1. A driver: --jobs workers, default one per core; the
    // locality provider is selectable the same way (--locality cme |
    // oracle). ---
    harness::ParallelDriver driver(harness::parseJobsFlag(argc, argv));
    const std::string locality = harness::parseLocalityFlag(argc, argv);
    const std::int64_t time_budget =
        harness::parseTimeBudgetFlag(argc, argv);
    std::printf("driver: %d worker(s), locality provider '%s'\n",
                driver.jobs(), locality.empty() ? "cme" : locality.c_str());

    // --- 2. The workbench: every workload loop prepared once (DDG +
    // thread-safe CME analysis); all configurations share it. Any
    // workload form resolves here, e.g.
    // --workloads tomcatv,file:my.loops,gen:seed=7+loops=4. ---
    std::vector<std::string> only = harness::parseWorkloadsFlag(argc, argv);
    harness::rejectUnknownFlags(argc, argv,
                                {"--jobs", "--locality",
                                 "--time-budget-ms", "--workloads",
                                 "--log-level", "--metrics",
                                 "--trace"});
    if (only.empty())
        only = {"tomcatv", "swim", "hydro2d"};
    harness::Workbench bench(only);
    std::printf("workbench: %zu loops from %zu suites\n\n",
                bench.entries().size(), bench.benchmarks().size());

    // --- 3. The grid: backend x threshold on the 4-cluster machine. ---
    std::vector<RunConfig> configs;
    for (const char *backend : {"baseline", "rmca"}) {
        for (double thr : {1.0, 0.25}) {
            RunConfig cfg;
            cfg.machine = withLimitedBuses(makeFourCluster(), 1, 4);
            cfg.backend = backend;
            cfg.locality = locality;
            cfg.threshold = thr;
            cfg.timeBudgetMs = time_budget;
            configs.push_back(cfg);
        }
    }

    // --- 4. One sweep: (loop, config) items sharded over the pool. ---
    sim::SimParams params;
    params.maxExecutions = 4;
    const auto results =
        harness::runSuiteSweep(bench, configs, params, driver);

    TextTable table({"backend", "thr", "compute", "stall", "total"});
    table.setTitle("4-cluster (NMB=1, LMB=4), three conflict suites");
    for (std::size_t i = 0; i < configs.size(); ++i)
        table.addRow({configs[i].backend,
                      fmtDouble(configs[i].threshold, 2),
                      std::to_string(results[i].compute),
                      std::to_string(results[i].stall),
                      std::to_string(results[i].total())});
    std::printf("%s\n", table.render().c_str());

    // --- 5. Determinism: a serial re-run serialises identically. ---
    harness::ParallelDriver serial(1);
    const auto again =
        harness::runSuiteSweep(bench, configs, params, serial);
    bool identical = true;
    for (std::size_t i = 0; i < configs.size(); ++i)
        identical = identical && harness::formatSuiteResult(results[i]) ==
                                     harness::formatSuiteResult(again[i]);
    std::printf("jobs=%d vs jobs=1: results %s\n", driver.jobs(),
                identical ? "byte-identical" : "DIVERGED (bug!)");
    return identical ? 0 : 1;
}
