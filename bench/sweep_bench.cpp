/**
 * @file
 * Wall-clock benchmark of the sharded experiment driver: the full
 * Table-1 suite sweep (3 machines x {baseline, rmca} x 4 thresholds
 * over every workload loop) and, with --exact, the 96-combo exact
 * sweep (verify backend over every loop of the three machines).
 *
 * Prints one machine-readable line per sweep:
 *
 *   sweep=table1 jobs=4 items=768 wall_ms=1234 fingerprint=0x...
 *
 * and, after the table1 line, a `sweep=sim` line: the simulator alone,
 * re-simulating the table1 sweep's schedules on one thread and timing
 * only sim::simulateLoop (`ns_per_access` is that time over the
 * simulated memory accesses). Its fingerprint folds every SimResult
 * field, memory counters included.
 *
 * CI runs this at jobs=1 and jobs=nproc, and diffs the fingerprints
 * of a plain and an instrumented (--trace/--metrics) run. The
 * fingerprint folds every emitted table, so a speedup that changes
 * results cannot slip through.
 *
 * Usage: sweep_bench [--jobs N] [--exact] [--budget B]
 *                    [--time-budget-ms MS] [--exact-backend NAME]
 *                    [--workloads A,B,...]
 *
 * --workloads accepts every workload form the registry resolves:
 * builtin suite names, `file:<path>` loop files and `gen:<spec>`
 * generated suites (default: all eight builtin suites).
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/strutil.hh"
#include "harness/experiment.hh"
#include "harness/flags.hh"
#include "harness/gapstudy.hh"
#include "machine/presets.hh"

using namespace mvp;
using harness::RunConfig;

namespace
{

double
wallMs(std::chrono::steady_clock::time_point from)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - from)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    harness::parseObservabilityFlags(argc, argv);
    harness::ParallelDriver driver(harness::parseJobsFlag(argc, argv));
    const std::vector<std::string> workloads =
        harness::parseWorkloadsFlag(argc, argv);
    harness::GapOptions gap_options;
    harness::parseLocalityFlag(argc, argv, gap_options.locality);
    harness::parseTimeBudgetFlag(argc, argv, gap_options.timeBudgetMs);
    harness::parseExactBackendFlag(argc, argv, gap_options.exactBackend);
    const bool exact = harness::stripBoolFlag(argc, argv, "--exact");
    harness::stripIntegerFlag(argc, argv, "--budget", "work cap",
                              gap_options.searchBudget);
    harness::rejectUnknownFlags(
        argc, argv,
        {"--jobs", "--locality", "--workloads", "--time-budget-ms",
         "--exact-backend", "--exact", "--budget", "--log-level",
         "--metrics", "--trace"});

    harness::Workbench bench(workloads);
    const MachineConfig machines[] = {makeUnified(), makeTwoCluster(),
                                      makeFourCluster()};

    // --- Table-1 sweep: every (machine, scheduler, threshold) point
    // of the paper's headline figures over the whole workbench. ---
    {
        std::vector<RunConfig> configs;
        for (const auto &machine : machines) {
            for (const char *backend : {"baseline", "rmca"}) {
                for (double thr : {1.00, 0.75, 0.25, 0.00}) {
                    RunConfig cfg;
                    cfg.machine = machine;
                    cfg.backend = backend;
                    cfg.locality = gap_options.locality;
                    cfg.threshold = thr;
                    configs.push_back(cfg);
                }
            }
        }
        const auto start = std::chrono::steady_clock::now();
        const auto results =
            harness::runSuiteSweep(bench, configs, {}, driver);
        const double ms = wallMs(start);

        std::string all;
        for (const auto &suite : results)
            all += harness::formatSuiteResult(suite);
        std::printf("sweep=table1 jobs=%d items=%zu wall_ms=%.1f "
                    "fingerprint=0x%016llx\n",
                    driver.jobs(),
                    configs.size() * bench.entries().size(), ms,
                    static_cast<unsigned long long>(fnv1a(all)));

        const auto &entries = bench.entries();
        std::int64_t accesses = 0;
        double sim_ms = 0;
        std::string fold;
        for (std::size_t c = 0; c < configs.size(); ++c)
            for (std::size_t e = 0; e < entries.size(); ++e) {
                const auto sim_start = std::chrono::steady_clock::now();
                const sim::SimResult r = sim::simulateLoop(
                    *entries[e]->ddg, results[c].loops[e].sched.schedule,
                    configs[c].machine);
                sim_ms += wallMs(sim_start);
                accesses += r.memAccesses;
                fold += std::to_string(r.computeCycles) + ' ' +
                        std::to_string(r.stallCycles) + ' ' +
                        std::to_string(r.opsExecuted) + ' ' +
                        std::to_string(r.memAccesses) + '\n' +
                        r.memStats.dump();
            }
        std::printf("sweep=sim accesses=%lld wall_ms=%.1f "
                    "ns_per_access=%.2f fingerprint=0x%016llx\n",
                    static_cast<long long>(accesses), sim_ms,
                    sim_ms * 1e6 / static_cast<double>(accesses),
                    static_cast<unsigned long long>(fnv1a(fold)));
    }

    // --- 96-combo exact sweep: the optimality-gap study over every
    // loop of every machine (the workload the sharding exists for:
    // single loops cost up to ~10^3x the median). ---
    if (exact) {
        const auto start = std::chrono::steady_clock::now();
        std::string all;
        for (const auto &machine : machines)
            all += harness::formatGapTable(harness::runGapStudy(
                bench, machine, gap_options, driver));
        const double ms = wallMs(start);
        std::printf("sweep=exact jobs=%d items=%zu wall_ms=%.1f "
                    "fingerprint=0x%016llx\n",
                    driver.jobs(),
                    std::size(machines) * bench.entries().size(), ms,
                    static_cast<unsigned long long>(fnv1a(all)));
    }
    return 0;
}
