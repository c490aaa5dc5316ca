/**
 * @file
 * Tests for the experiment harness: workbench preparation, suite runs,
 * aggregate consistency, and the checked integer flag parser.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>

#include "harness/driver.hh"
#include "harness/experiment.hh"
#include "harness/flags.hh"
#include "machine/presets.hh"

namespace mvp::harness
{
namespace
{

TEST(Workbench, PreparesAllSuites)
{
    Workbench bench;
    EXPECT_EQ(bench.benchmarks().size(), 8u);
    EXPECT_GE(bench.entries().size(), 32u);
    for (const auto &e : bench.entries()) {
        EXPECT_NE(e->ddg, nullptr);
        ASSERT_NE(e->streams, nullptr);
        EXPECT_EQ(&e->streams->loop(), &e->nest);
        // The default provider is bound at prep time and shares the
        // entry's stream cache.
        cme::LocalityAnalysis *def = e->locality("cme");
        ASSERT_NE(def, nullptr);
        EXPECT_EQ(&def->loop(), &e->nest);
        EXPECT_EQ(e->locality("oracle"), nullptr);
    }
}

TEST(Workbench, EnsureLocalityBindsEveryEntryOnce)
{
    Workbench bench({"swim"});
    bench.ensureLocality("oracle");
    std::vector<const cme::LocalityAnalysis *> first;
    for (const auto &e : bench.entries()) {
        ASSERT_NE(e->locality("oracle"), nullptr);
        first.push_back(e->locality("oracle"));
    }
    // Idempotent: a second call must not rebind (rebinding would drop
    // warm memos mid-sweep).
    bench.ensureLocality("oracle");
    for (std::size_t i = 0; i < bench.entries().size(); ++i)
        EXPECT_EQ(bench.entries()[i]->locality("oracle"), first[i]);
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
    const auto suite = runSuite(bench, config, params);

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
    const auto a = runSuite(bench, config, params);
    const auto b = runSuite(bench, config, params);
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

    const auto rb = runSuite(bench, base, params);
    const auto rr = runSuite(bench, rmca, params);
    EXPECT_LE(rr.total(), rb.total() * 105 / 100);   // within noise, <=
}

TEST(BackendName, EmptyReadsAsBaseline)
{
    RunConfig config;
    EXPECT_EQ(backendName(config), "baseline");
    config.backend.clear();
    EXPECT_EQ(backendName(config), "baseline");
    config.backend = "verify";
    EXPECT_EQ(backendName(config), "verify");
}

TEST(LocalityName, EmptyReadsAsCme)
{
    RunConfig config;
    EXPECT_EQ(localityName(config), "cme");
    config.locality.clear();
    EXPECT_EQ(localityName(config), "cme");
    config.locality = "oracle";
    EXPECT_EQ(localityName(config), "oracle");
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

    const auto with_cme = runSuite(bench, cme_cfg, params);
    const auto with_oracle = runSuite(bench, oracle_cfg, params);
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
