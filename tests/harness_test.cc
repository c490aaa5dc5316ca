/**
 * @file
 * Tests for the experiment harness: workbench preparation, locality
 * binding, suite runs, aggregate consistency, and the checked integer
 * flag parser.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "harness/driver.hh"
#include "harness/experiment.hh"
#include "harness/flags.hh"
#include "machine/presets.hh"

namespace mvp::harness
{
namespace
{

/** The providers bound to @p entry, in name order. */
std::vector<std::string>
boundNames(const Workbench::Entry &entry)
{
    std::vector<std::string> names;
    entry.locality.forEach(
        [&](const std::string &name, const cme::LocalityAnalysis &) {
            names.push_back(name);
        });
    return names;
}

TEST(Workbench, PreparesAllSuites)
{
    Workbench bench;
    EXPECT_EQ(bench.benchmarks().size(), 8u);
    EXPECT_GE(bench.entries().size(), 32u);
    for (const auto &e : bench.entries()) {
        EXPECT_NE(e->ddg, nullptr);
        EXPECT_EQ(&e->locality.streams().loop(), &e->nest);
        // Nothing is bound until a run asks for it.
        EXPECT_TRUE(boundNames(*e).empty());
    }
}

TEST(Workbench, ProviderBindsOnceAcrossSweepsAndRunLoop)
{
    Workbench bench({"swim"});
    RunConfig config;
    config.machine = makeTwoCluster();
    config.backend = "rmca";
    config.threshold = 0.25;
    config.locality = "oracle";
    sim::SimParams params;
    params.maxExecutions = 2;
    ParallelDriver driver(2);

    (void)runSuiteSweep(bench, {config}, params, driver);
    std::vector<const cme::LocalityAnalysis *> first;
    for (const auto &e : bench.entries()) {
        EXPECT_EQ(boundNames(*e), std::vector<std::string>{"oracle"});
        first.push_back(&e->locality.get("oracle"));
    }
    // A second sweep and a single-loop run reuse the bound analysis at
    // the same address: its memo stays warm across runs.
    (void)runSuiteSweep(bench, {config}, params, driver);
    for (const auto &e : bench.entries())
        (void)runLoop(*e, config, params);
    for (std::size_t i = 0; i < bench.entries().size(); ++i) {
        auto &e = *bench.entries()[i];
        EXPECT_EQ(&e.locality.get("oracle"), first[i]);
        EXPECT_EQ(boundNames(e), std::vector<std::string>{"oracle"});
    }

    config.locality = "cme";
    (void)runLoop(*bench.entries()[0], config, params);
    EXPECT_EQ(boundNames(*bench.entries()[0]),
              (std::vector<std::string>{"cme", "oracle"}));
}

TEST(Workbench, UnknownProviderFailsOnTheMainThread)
{
    // A FatalScope turns fatals on *this* thread into exceptions; a
    // fatal raised inside a pool worker would exit the process instead.
    Workbench bench({"swim"});
    RunConfig config;
    config.locality = "no-such-provider";
    ParallelDriver driver(2);
    FatalScope guard;
    EXPECT_THROW((void)runSuiteSweep(bench, {config}, {}, driver),
                 FatalError);
    for (const auto &e : bench.entries())
        EXPECT_TRUE(boundNames(*e).empty());
}

TEST(Workbench, FilterSelectsSubset)
{
    Workbench bench({"swim", "mgrid"});
    EXPECT_EQ(bench.benchmarks().size(), 2u);
    for (const auto &e : bench.entries())
        EXPECT_TRUE(e->benchmark == "swim" || e->benchmark == "mgrid");
}

TEST(RunSuite, AggregatesMatchLoopSums)
{
    Workbench bench({"tomcatv"});
    RunConfig config;
    config.machine = makeTwoCluster();
    config.backend = "rmca";
    config.threshold = 1.0;
    sim::SimParams params;
    params.maxExecutions = 2;
    ParallelDriver driver;
    const auto suite = runSuiteSweep(bench, {config}, params, driver).at(0);

    Cycle compute = 0;
    Cycle stall = 0;
    for (const auto &loop : suite.loops) {
        compute += loop.sim.computeCycles;
        stall += loop.sim.stallCycles;
        EXPECT_TRUE(loop.sched.ok);
    }
    EXPECT_EQ(suite.compute, compute);
    EXPECT_EQ(suite.stall, stall);
    EXPECT_EQ(suite.total(), compute + stall);
    ASSERT_EQ(suite.perBenchmark.size(), 1u);
    EXPECT_EQ(suite.perBenchmark.at("tomcatv").first, compute);
}

TEST(RunSuite, DeterministicAcrossRuns)
{
    Workbench bench({"su2cor"});
    RunConfig config;
    config.machine = makeFourCluster();
    config.backend = "baseline";
    config.threshold = 0.25;
    sim::SimParams params;
    params.maxExecutions = 2;
    ParallelDriver driver;
    const auto a = runSuiteSweep(bench, {config}, params, driver).at(0);
    const auto b = runSuiteSweep(bench, {config}, params, driver).at(0);
    EXPECT_EQ(a.compute, b.compute);
    EXPECT_EQ(a.stall, b.stall);
}

TEST(RunSuite, RmcaNeverWorseOnConflictSuites)
{
    // The headline property on a conflict-heavy suite under the
    // realistic bus configuration.
    Workbench bench({"tomcatv"});
    sim::SimParams params;
    params.maxExecutions = 4;

    RunConfig base;
    base.machine = withLimitedBuses(makeFourCluster(), 1, 4);
    base.backend = "baseline";
    base.threshold = 1.0;
    RunConfig rmca = base;
    rmca.backend = "rmca";

    ParallelDriver driver;
    const auto results = runSuiteSweep(bench, {base, rmca}, params, driver);
    EXPECT_LE(results[1].total(),
              results[0].total() * 105 / 100);   // within noise, <=
}

// A suite run under the exact oracle provider must produce valid
// schedules end to end, and the provider choice must actually matter
// only through the locality numbers: the run succeeds with identical
// loop/benchmark structure.
TEST(RunSuite, OracleProviderRunsEndToEnd)
{
    Workbench bench({"tomcatv"});
    RunConfig cme_cfg;
    cme_cfg.machine = makeTwoCluster();
    cme_cfg.backend = "rmca";
    cme_cfg.threshold = 0.25;
    RunConfig oracle_cfg = cme_cfg;
    oracle_cfg.locality = "oracle";
    sim::SimParams params;
    params.maxExecutions = 2;

    ParallelDriver driver;
    const auto results =
        runSuiteSweep(bench, {cme_cfg, oracle_cfg}, params, driver);
    const SuiteResult &with_cme = results[0];
    const SuiteResult &with_oracle = results[1];
    ASSERT_EQ(with_cme.loops.size(), with_oracle.loops.size());
    for (std::size_t i = 0; i < with_oracle.loops.size(); ++i) {
        EXPECT_TRUE(with_oracle.loops[i].sched.ok);
        EXPECT_EQ(with_oracle.loops[i].loop, with_cme.loops[i].loop);
    }
}

TEST(ParseInteger, AcceptsWholeValues)
{
    EXPECT_EQ(parseInteger<int>("42", "--jobs"), 42);
    EXPECT_EQ(parseInteger<std::int64_t>("-1", "--time-budget-ms"), -1);
    EXPECT_EQ(parseInteger<std::uint64_t>("0x10", "--seed", 0), 16u);
    EXPECT_EQ(parseInteger<std::uint64_t>("48879", "--seed", 0), 0xbeefu);

    char a0[] = "prog";
    char a1[] = "--budget=0x10";
    char a2[] = "--scenarios";
    char a3[] = "7";
    char *argv[] = {a0, a1, a2, a3};
    int argc = 4;
    std::uint64_t budget = 0;
    int scenarios = 200;
    int untouched = 5;
    stripIntegerFlag(argc, argv, "--budget", "work cap", budget, 0);
    stripIntegerFlag(argc, argv, "--scenarios", "count", scenarios);
    stripIntegerFlag(argc, argv, "--rounds", "count", untouched);
    EXPECT_EQ(budget, 16u);
    EXPECT_EQ(scenarios, 7);
    EXPECT_EQ(untouched, 5);   // absent flag keeps the default
    EXPECT_EQ(argc, 1);
}

TEST(ParseInteger, TryParseReportsInsteadOfExiting)
{
    std::int64_t v = 7;
    EXPECT_EQ(tryParseInteger<std::int64_t>("-12", "config node-budget", v),
              "");
    EXPECT_EQ(v, -12);
    EXPECT_EQ(tryParseInteger<std::int64_t>("12ms", "config node-budget", v),
              "config node-budget wants an integer, got '12ms'");
    EXPECT_EQ(tryParseInteger<std::int64_t>("99999999999999999999",
                                            "config node-budget", v),
              "config node-budget value '99999999999999999999' is out of "
              "range");
    EXPECT_EQ(v, -12);   // a refused value leaves the output alone
}

TEST(DefaultJobs, JunkMvpJobsWarnsAndFallsBack)
{
    // "2x" is not a worker count: it must not read as 2.
    const unsigned hw = std::thread::hardware_concurrency();
    const int fallback = hw >= 1 ? static_cast<int>(hw) : 1;
    for (const char *junk : {"2x", "0", "-3", "", "99999999999"}) {
        SCOPED_TRACE(junk);
        ::setenv("MVP_JOBS", junk, 1);
        ::testing::internal::CaptureStderr();
        EXPECT_EQ(defaultJobs(), fallback);
        EXPECT_NE(::testing::internal::GetCapturedStderr().find(
                      std::string("ignoring MVP_JOBS='") + junk + "'"),
                  std::string::npos);
    }
    ::setenv("MVP_JOBS", "3", 1);
    EXPECT_EQ(defaultJobs(), 3);
    ::unsetenv("MVP_JOBS");
}

TEST(ParseIntegerDeath, RejectsJunkTrailingEmptyAndOutOfRange)
{
    const auto fatal = ::testing::ExitedWithCode(1);
    EXPECT_EXIT((void)parseInteger<std::int64_t>("lots", "--budget"),
                fatal, "--budget wants an integer, got 'lots'");
    EXPECT_EXIT((void)parseInteger<std::int64_t>("20x", "--budget"),
                fatal, "--budget wants an integer, got '20x'");
    EXPECT_EXIT((void)parseInteger<int>("", "--scenarios"), fatal,
                "--scenarios wants an integer, got ''");
    // Base 0 is opt-in: a base-10 flag refuses a hex prefix.
    EXPECT_EXIT((void)parseInteger<int>("0x10", "--clients"), fatal,
                "--clients wants an integer, got '0x10'");
    EXPECT_EXIT((void)parseInteger<std::uint64_t>("-1", "--seed", 0),
                fatal, "--seed wants an integer, got '-1'");
    EXPECT_EXIT((void)parseInteger<int>("3000000000", "--rounds"), fatal,
                "--rounds value '3000000000' is out of range");

    char a0[] = "prog";
    char a1[] = "--budget=20x";
    char *argv[] = {a0, a1};
    int argc = 2;
    std::int64_t budget = 0;
    EXPECT_EXIT(stripIntegerFlag(argc, argv, "--budget", "work cap",
                                 budget),
                fatal, "--budget wants an integer, got '20x'");
}

} // namespace
} // namespace mvp::harness
