/**
 * @file
 * Optimality-gap table: for every workload loop, the II of the RMCA
 * heuristic vs. a certifying exact backend, per clustered machine —
 * the repo's analogue of the heuristic-vs-exact comparisons in the
 * exact-modulo-scheduling literature (Roorda's SMT scheduler, Tirelli
 * et al.'s SAT mapper). Loops the exact search cannot settle within
 * its budget show as "gap unknown", and each table states the unknown
 * count and the budget in force.
 *
 * With --engines the binary instead compares certifying engines — the
 * branch and bound ("bnb"/"exact") and the CDCL engine ("sat") — over
 * the same corpus: certified/unknown
 * counts, charged work and wall clock per engine. Pair it with a
 * generated corpus (e.g. --workloads gen:seed=0xd1ff+loops=200) for
 * a refutation-throughput comparison.
 *
 * The study shards loops across a --jobs-sized pool (default: all
 * cores); the exact searches dominate its runtime and are mutually
 * independent, so it scales nearly linearly. Tables are byte-identical
 * at any job count.
 *
 * Usage: table_gap [--jobs N] [--locality NAME] [--time-budget-ms MS]
 *                  [--exact-backend NAME] [--engines A,B,...]
 *                  [--workloads A,B,...] [search_budget]
 *
 * The positional search_budget is the deterministic work cap per II
 * attempt of whichever engine certifies (B&B nodes or CDCL conflicts;
 * 0 = uncapped); the wall clock is the primary budget.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "harness/flags.hh"
#include "harness/gapstudy.hh"
#include "machine/presets.hh"

using namespace mvp;

int
main(int argc, char **argv)
{
    harness::parseObservabilityFlags(argc, argv);
    harness::ParallelDriver driver(harness::parseJobsFlag(argc, argv));
    harness::GapOptions options;
    harness::parseLocalityFlag(argc, argv, options.locality);
    harness::parseTimeBudgetFlag(argc, argv, options.timeBudgetMs);
    harness::parseExactBackendFlag(argc, argv, options.exactBackend);
    const std::string engine_list = harness::stripValueFlag(
        argc, argv, "--engines", "a comma-separated engine list");
    std::vector<std::string> engines;
    for (std::size_t pos = 0; pos < engine_list.size();) {
        std::size_t end = engine_list.find(',', pos);
        if (end == std::string::npos)
            end = engine_list.size();
        if (end > pos)
            engines.push_back(engine_list.substr(pos, end - pos));
        pos = end + 1;
    }
    const std::vector<std::string> only =
        harness::parseWorkloadsFlag(argc, argv);
    harness::rejectUnknownFlags(
        argc, argv,
        {"--jobs", "--locality", "--time-budget-ms", "--exact-backend",
         "--engines", "--workloads", "--log-level", "--metrics",
         "--trace"});
    if (argc > 1)
        options.searchBudget = harness::parseInteger<std::int64_t>(
            argv[1], "the work-cap argument");

    harness::Workbench bench(only);
    for (int clusters : {2, 4}) {
        const MachineConfig machine = makeConfig(clusters);
        std::printf("=== %s ===\n\n", machine.summary().c_str());
        if (!engines.empty()) {
            const auto outcomes = harness::runEngineComparison(
                bench, machine, options, engines, driver);
            std::printf(
                "%s\n",
                harness::formatEngineComparison(outcomes).c_str());
            continue;
        }
        const auto study =
            harness::runGapStudy(bench, machine, options, driver);
        std::printf("%s\n", harness::formatGapTable(study).c_str());
    }
    return 0;
}
