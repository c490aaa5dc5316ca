/**
 * @file
 * Wall-clock benchmark of the lockstep simulator alone: the cost of one
 * simulated memory access over the Table-1 sweep.
 *
 * Schedules the 768 Table-1 points once (3 machines x {baseline, rmca}
 * x 4 thresholds over every builtin loop, as sweep_bench's table1
 * sweep), then re-simulates every schedule on one thread, five rounds,
 * timing only sim::simulateLoop. Prints one line:
 *
 *   sim accesses=... best_ms=... median_ms=... ns_per_access=...
 *       fingerprint=0x...
 *
 * ns_per_access is the median round's time over the round's memory
 * accesses. The fingerprint folds every SimResult field, memory
 * counters included, so a faster simulator that changes a result
 * cannot pass for a speedup.
 *
 * Usage: sim_bench
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/strutil.hh"
#include "harness/experiment.hh"
#include "machine/presets.hh"

using namespace mvp;

int
main()
{
    constexpr int ROUNDS = 5;
    harness::Workbench bench;
    std::vector<harness::RunConfig> configs;
    for (const auto &machine :
         {makeUnified(), makeTwoCluster(), makeFourCluster()})
        for (const char *backend : {"baseline", "rmca"})
            for (const double thr : {1.00, 0.75, 0.25, 0.00}) {
                harness::RunConfig cfg;
                cfg.machine = machine;
                cfg.backend = backend;
                cfg.threshold = thr;
                configs.push_back(cfg);
            }
    harness::ParallelDriver driver(1);
    const auto suites = harness::runSuiteSweep(bench, configs, {}, driver);
    const auto &entries = bench.entries();

    std::vector<double> round_ms;
    std::int64_t accesses = 0;
    std::string fold;
    for (int round = 0; round < ROUNDS; ++round) {
        accesses = 0;
        fold.clear();
        double ms = 0;
        for (std::size_t c = 0; c < configs.size(); ++c)
            for (std::size_t e = 0; e < entries.size(); ++e) {
                const auto &sched = suites[c].loops[e].sched.schedule;
                const auto start = std::chrono::steady_clock::now();
                const sim::SimResult r = sim::simulateLoop(
                    *entries[e]->ddg, sched, configs[c].machine);
                ms += std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
                accesses += r.memAccesses;
                fold += std::to_string(r.computeCycles) + ' ' +
                        std::to_string(r.stallCycles) + ' ' +
                        std::to_string(r.opsExecuted) + ' ' +
                        std::to_string(r.memAccesses) + '\n' +
                        r.memStats.dump();
            }
        round_ms.push_back(ms);
    }
    std::sort(round_ms.begin(), round_ms.end());
    const double median = round_ms[ROUNDS / 2];
    std::printf("sim accesses=%lld best_ms=%.1f median_ms=%.1f "
                "ns_per_access=%.2f fingerprint=0x%016llx\n",
                static_cast<long long>(accesses), round_ms.front(), median,
                median * 1e6 / static_cast<double>(accesses),
                static_cast<unsigned long long>(fnv1a(fold)));
    return 0;
}
