/**
 * @file
 * Differential fuzz sweep: generate scenarios, validate the whole
 * stack on each (text round trip, rmca schedule validation, exact-II
 * cross-check, kernel-image shape, lockstep compute-cycle identity,
 * CME-vs-oracle agreement), and report wall clock plus an output
 * fingerprint.
 *
 * Prints one machine-readable line:
 *
 *   fuzz jobs=4 scenarios=200 passed=200 failed=0 exact_settled=200 \
 *        rmca_optimal=178 wall_ms=1234.5 fingerprint=0x...
 *
 * CI runs it with a fixed seed and fails on any scenario failure (the
 * exit status is the failure count, capped at 125).
 *
 * Usage: fuzz_sweep [--jobs N] [--scenarios N] [--seed S] [--budget B]
 *                   [--time-budget-ms MS] [--exact-backend NAME]
 *                   [--locality NAME] [--no-exact] [--verbose]
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/strutil.hh"
#include "harness/differential.hh"
#include "harness/flags.hh"

using namespace mvp;

int
main(int argc, char **argv)
{
    harness::parseObservabilityFlags(argc, argv);
    harness::ParallelDriver driver(harness::parseJobsFlag(argc, argv));
    harness::DiffOptions options;
    const std::string locality = harness::parseLocalityFlag(argc, argv);
    if (!locality.empty())
        options.locality = locality;
    options.timeBudgetMs = harness::parseTimeBudgetFlag(argc, argv);
    const std::string exact_backend =
        harness::parseExactBackendFlag(argc, argv);
    if (!exact_backend.empty())
        options.exactBackend = exact_backend;
    harness::stripIntegerFlag(argc, argv, "--scenarios", "scenario count",
                              options.scenarios);
    harness::stripIntegerFlag(argc, argv, "--seed", "seed", options.seed,
                              0);
    harness::stripIntegerFlag(argc, argv, "--budget", "work cap",
                              options.searchBudget);
    if (harness::stripBoolFlag(argc, argv, "--no-exact"))
        options.checkExact = false;
    if (harness::stripBoolFlag(argc, argv, "--no-sat"))
        options.checkSat = false;
    const bool verbose =
        harness::stripBoolFlag(argc, argv, "--verbose");
    harness::rejectUnknownFlags(
        argc, argv,
        {"--jobs", "--locality", "--time-budget-ms",
         "--exact-backend", "--scenarios", "--seed", "--budget",
         "--no-exact", "--no-sat", "--verbose", "--log-level",
         "--metrics", "--trace"});
    if (options.scenarios < 1) {
        std::fprintf(stderr, "--scenarios wants a positive count\n");
        return 2;
    }

    const auto start = std::chrono::steady_clock::now();
    const auto report = harness::runDifferential(options, driver);
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();

    const std::string serialised = report.serialise();
    if (verbose)
        std::printf("%s", serialised.c_str());
    std::printf("%s", report.summary().c_str());
    std::printf("fuzz jobs=%d scenarios=%d passed=%d failed=%d "
                "exact_settled=%d rmca_optimal=%d wall_ms=%.1f "
                "fingerprint=0x%016llx\n",
                driver.jobs(), options.scenarios, report.passed(),
                report.failed(), report.exactSettled(),
                report.rmcaOptimal(), wall_ms,
                static_cast<unsigned long long>(fnv1a(serialised)));
    return report.failed() > 125 ? 125 : report.failed();
}
