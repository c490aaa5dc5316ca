/**
 * @file
 * The differential validation pipeline as a ctest gate: a 200-scenario
 * smoke sweep at a fixed seed (every rmca schedule validates, exact II
 * <= rmca II wherever the search settles, the §2.2 compute-cycle
 * identity holds, CME agrees with the oracle, zero text round-trip
 * mismatches), sharding determinism, and the oracle locality provider
 * riding the same scenarios.
 */

#include <gtest/gtest.h>

#include "harness/differential.hh"

namespace mvp::harness
{
namespace
{

/** The fixed-seed options CI runs (bench/fuzz_sweep.cpp defaults). */
DiffOptions
smokeOptions(int scenarios)
{
    DiffOptions options;
    options.scenarios = scenarios;
    return options;
}

TEST(Differential, TwoHundredScenarioSmokeSweepPasses)
{
    const auto report = runDifferential(smokeOptions(200));
    ASSERT_EQ(report.rows.size(), 200u);
    EXPECT_EQ(report.failed(), 0) << report.summary();
    EXPECT_EQ(report.passed(), 200);

    // The sweep must actually exercise the cross-checks, not skip
    // them: the exact search settles on (almost) every small scenario
    // and rmca is not trivially optimal everywhere.
    EXPECT_GE(report.exactSettled(), 190) << report.summary();
    EXPECT_GE(report.rmcaOptimal(), 150);
    EXPECT_LE(report.rmcaOptimal(), report.exactSettled());

    for (const auto &row : report.rows) {
        EXPECT_GE(row.rmcaII, row.mii) << row.seed;
        if (row.exactSettled) {
            EXPECT_LE(row.exactII, row.rmcaII) << row.seed;
            EXPECT_GE(row.exactII, row.mii) << row.seed;
        }
        EXPECT_GE(row.stages, 1) << row.seed;
        EXPECT_GT(row.simCompute, 0) << row.seed;
    }
}

TEST(Differential, ReportIsByteIdenticalAtAnyJobCount)
{
    const DiffOptions options = smokeOptions(48);
    ParallelDriver serial(1);
    const std::string one =
        runDifferential(options, serial).serialise();
    for (int jobs : {2, 8}) {
        ParallelDriver driver(jobs);
        EXPECT_EQ(runDifferential(options, driver).serialise(), one)
            << "jobs=" << jobs;
    }
}

TEST(Differential, ScenarioRowsArePureFunctionsOfSeedAndIndex)
{
    // Prefix property: the first K rows of a longer sweep equal the
    // K-row sweep — scenarios never depend on the sweep size.
    const auto small = runDifferential(smokeOptions(12));
    const auto large = runDifferential(smokeOptions(24));
    const std::string small_rows = small.serialise();
    const std::string large_rows = large.serialise();
    EXPECT_EQ(large_rows.compare(0, small_rows.find("total"),
                                 small_rows, 0,
                                 small_rows.find("total")),
              0);
}

TEST(Differential, HeuristicOnlyModeSkipsExact)
{
    DiffOptions options = smokeOptions(24);
    options.checkExact = false;
    const auto report = runDifferential(options);
    EXPECT_EQ(report.failed(), 0) << report.summary();
    EXPECT_EQ(report.exactSettled(), 0);
}

TEST(Differential, RunsUnderAlternativeLocalityProviders)
{
    DiffOptions options = smokeOptions(16);
    options.locality = "oracle";
    const auto report = runDifferential(options);
    EXPECT_EQ(report.failed(), 0) << report.summary();
}

} // namespace
} // namespace mvp::harness
