/**
 * @file
 * Observability-layer contract: the metrics registry's deterministic
 * section must be byte-identical at jobs=1/2/8, enabling metrics and
 * tracing must not perturb a single scheduling decision (suite
 * serialisations stay byte-identical), and the tracer must emit
 * well-formed Chrome trace-event JSON with one track per pool worker.
 * The TSan job runs this file: the jobs=8 sweeps below hammer the
 * per-thread trace buffers and the shard-fold path under the pool.
 *
 * Also unit-covers the stats primitives the registry is built on
 * (Histogram percentile/dump/merge, StatGroup locale independence).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <locale>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "harness/experiment.hh"
#include "harness/gapstudy.hh"
#include "machine/presets.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace mvp::obs
{
namespace
{

const int JOB_COUNTS[] = {1, 2, 8};

/** Every obs test leaves the registry disabled and empty behind. */
class ObsTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        Registry::instance().disable();
        Registry::instance().reset();
    }
    void TearDown() override
    {
        Registry::instance().disable();
        Registry::instance().reset();
    }
};

/**
 * One small but representative workload: the rmca heuristic over two
 * machines plus a node-budgeted exact gap study. The node cap (and
 * the disabled wall clock) keep every search outcome a pure function
 * of the work item, which is what the deterministic section's
 * byte-identity contract is allowed to rely on.
 */
void
runInstrumentedSweep(harness::Workbench &bench, int jobs)
{
    harness::ParallelDriver driver(jobs);
    sim::SimParams params;
    params.maxExecutions = 2;

    std::vector<harness::RunConfig> configs;
    for (const MachineConfig &machine : {makeUnified(), makeTwoCluster()}) {
        harness::RunConfig cfg;
        cfg.machine = machine;
        cfg.backend = "rmca";
        cfg.threshold = 0.25;
        configs.push_back(cfg);
    }
    harness::runSuiteSweep(bench, configs, params, driver);

    harness::GapOptions gap;
    gap.threshold = 0.25;
    gap.searchBudget = 20000;
    gap.timeBudgetMs = -1;   // node cap only: deterministic outcomes
    harness::runGapStudy(bench, makeTwoCluster(), gap, driver);
}

TEST_F(ObsTest, DeterministicSectionByteIdenticalAcrossJobCounts)
{
    harness::Workbench bench({"tomcatv", "hydro2d"});
    Registry::instance().enable();

    std::string reference;
    for (int jobs : JOB_COUNTS) {
        Registry::instance().reset();
        runInstrumentedSweep(bench, jobs);
        const std::string det =
            Registry::instance().deterministicReport();
        if (reference.empty())
            reference = det;
        else
            EXPECT_EQ(det, reference)
                << "deterministic metrics diverged at jobs=" << jobs;
    }

    // The report that was byte-compared must also be substantive:
    // search, prune, heuristic and pool counters all nonzero.
    const auto counter = [&](const char *name) {
        const std::string needle = std::string("counter ") + name + " = ";
        const std::size_t at = reference.find(needle);
        EXPECT_NE(at, std::string::npos)
            << "missing '" << name << "' in:\n"
            << reference;
        return at == std::string::npos
                   ? std::int64_t{-1}
                   : std::atoll(reference.c_str() + at + needle.size());
    };
    for (const char *name :
         {"exact.searches", "exact.nodes", "exact.prune_fu",
          "exact.leaves", "exact.ii_attempts", "sched.rmca.runs",
          "pool.items", "pool.sweeps", "harness.loops_scheduled"})
        EXPECT_GT(counter(name), 0) << name << " stayed zero";
    EXPECT_NE(reference.find("hist exact.backjump_depth"),
              std::string::npos);
}

TEST_F(ObsTest, SchedulingUnperturbedByMetricsAndTrace)
{
    harness::Workbench bench({"tomcatv"});
    harness::RunConfig config;
    config.machine = makeFourCluster();
    config.backend = "rmca";
    config.threshold = 0.25;
    sim::SimParams params;
    params.maxExecutions = 2;
    harness::ParallelDriver driver(8);

    const std::string off = harness::formatSuiteResult(
        harness::runSuiteSweep(bench, {config}, params, driver).at(0));

    const std::string trace_path =
        ::testing::TempDir() + "obs_test_perturb_trace.json";
    Registry::instance().enable();
    traceInit(trace_path);
    const std::string on = harness::formatSuiteResult(
        harness::runSuiteSweep(bench, {config}, params, driver).at(0));
    traceFinish();
    std::remove(trace_path.c_str());

    EXPECT_EQ(on, off)
        << "observability changed a scheduling/simulation outcome";
}

/**
 * Minimal structural JSON scan: brace/bracket balance outside string
 * literals. Not a parser — the CI smoke step runs the real
 * `python3 -m json.tool` — but enough to catch an unbalanced or
 * truncated emission, and it keeps the test dependency-free.
 */
bool
balancedJson(const std::string &s)
{
    int depth = 0;
    bool in_str = false;
    bool esc = false;
    for (char c : s) {
        if (esc) {
            esc = false;
            continue;
        }
        if (in_str) {
            if (c == '\\')
                esc = true;
            else if (c == '"')
                in_str = false;
            continue;
        }
        if (c == '"')
            in_str = true;
        else if (c == '{' || c == '[')
            ++depth;
        else if (c == '}' || c == ']') {
            if (--depth < 0)
                return false;
        }
    }
    return depth == 0 && !in_str;
}

std::string
slurp(const std::string &path)
{
    std::string text;
    FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return text;
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof buf, f)) > 0)
        text.append(buf, got);
    std::fclose(f);
    return text;
}

TEST_F(ObsTest, TraceIsWellFormedWithPerWorkerTracks)
{
    const std::string path =
        ::testing::TempDir() + "obs_test_trace.json";
    traceInit(path);

    harness::Workbench bench({"tomcatv", "hydro2d"});
    runInstrumentedSweep(bench, 8);

    traceFinish();
    const std::string text = slurp(path);
    std::remove(path.c_str());

    ASSERT_FALSE(text.empty()) << "trace file missing or empty";
    EXPECT_EQ(text.rfind("{\"traceEvents\":[", 0), 0u);
    EXPECT_TRUE(balancedJson(text));
    // Complete spans, worker-track metadata, and the B&B spans the
    // gap study's exact searches must have emitted.
    EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(text.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(text.find("\"worker-0\""), std::string::npos);
    EXPECT_NE(text.find("\"name\":\"exact\""), std::string::npos);
    EXPECT_NE(text.find("\"name\":\"exact-ii\""), std::string::npos);
    EXPECT_NE(text.find("\"name\":\"item\""), std::string::npos);
    EXPECT_NE(text.find("\"name\":\"sweep\""), std::string::npos);
}

TEST_F(ObsTest, JsonReportIsBalancedAndSplitsSections)
{
    harness::Workbench bench({"tomcatv"});
    Registry::instance().enable();
    runInstrumentedSweep(bench, 2);

    const std::string json = Registry::instance().jsonReport();
    EXPECT_TRUE(balancedJson(json));
    EXPECT_NE(json.find("\"deterministic\""), std::string::npos);
    EXPECT_NE(json.find("\"runtime\""), std::string::npos);
    EXPECT_NE(json.find("\"exact.nodes\""), std::string::npos);
    EXPECT_NE(json.find("\"pool.busy_ms\""), std::string::npos);

    // Runtime pool-utilisation facts exist without leaking into the
    // byte-compared half (pool.workers is jobs-dependent).
    const std::string det = Registry::instance().deterministicReport();
    EXPECT_EQ(det.find("pool.workers"), std::string::npos);
    const std::string text = Registry::instance().textReport();
    EXPECT_NE(text.find("gauge pool.workers = 2"), std::string::npos);
}

TEST_F(ObsTest, ShardMergeAddsMaxesAndFolds)
{
    MetricShard a;
    MetricShard b;
    a.det("n") += 3;
    b.det("n") += 4;
    a.detMax("hw", 7);
    b.detMax("hw", 5);
    a.detHist("h", 0.0, 10.0, 10).add(1.0);
    b.detHist("h", 0.0, 10.0, 10).add(2.0);
    b.rt("r") += 1;
    b.timer("t").add(2.5);

    a.merge(b);
    Registry::instance().reset();
    Registry::instance().fold(a);
    EXPECT_TRUE(a.empty()) << "fold() must clear the shard";

    const std::string text = Registry::instance().textReport();
    EXPECT_NE(text.find("counter n = 7"), std::string::npos);
    EXPECT_NE(text.find("gauge hw = 7"), std::string::npos);
    EXPECT_NE(text.find("hist h count=2"), std::string::npos);
    EXPECT_NE(text.find("counter r = 1"), std::string::npos);
    EXPECT_NE(text.find("timer t count=1"), std::string::npos);
}

TEST(HistogramStats, PercentileInterpolatesAndClamps)
{
    Histogram h(0.0, 100.0, 100);
    for (int i = 0; i < 100; ++i)
        h.add(static_cast<double>(i) + 0.5);
    EXPECT_EQ(h.count(), 100u);
    EXPECT_NEAR(h.percentile(50.0), 50.0, 1.5);
    EXPECT_NEAR(h.percentile(90.0), 90.0, 1.5);
    EXPECT_NEAR(h.percentile(99.0), 99.0, 1.5);
    EXPECT_NEAR(h.mean(), 50.0, 0.01);

    Histogram clamp(0.0, 10.0, 10);
    clamp.add(-5.0);
    clamp.add(50.0);
    EXPECT_EQ(clamp.underflow(), 1u);
    EXPECT_EQ(clamp.overflow(), 1u);
    EXPECT_EQ(clamp.percentile(0.0), 0.0);     // underflow clamps to lo
    EXPECT_EQ(clamp.percentile(100.0), 10.0);  // overflow clamps to hi

    EXPECT_EQ(Histogram(0.0, 1.0, 4).percentile(50.0), 0.0);
}

TEST(HistogramStats, MergeMatchesSingleAccumulator)
{
    Histogram a(0.0, 8.0, 8);
    Histogram b(0.0, 8.0, 8);
    Histogram both(0.0, 8.0, 8);
    for (int i = 0; i < 16; ++i) {
        const double x = static_cast<double>(i % 9) - 0.5;
        ((i & 1) ? a : b).add(x);
        both.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), both.count());
    EXPECT_EQ(a.underflow(), both.underflow());
    EXPECT_EQ(a.overflow(), both.overflow());
    for (std::size_t i = 0; i < both.numBuckets(); ++i)
        EXPECT_EQ(a.bucketCount(i), both.bucketCount(i)) << "bucket " << i;
    EXPECT_EQ(a.dump(), both.dump());
}

/** Grouping numpunct that would corrupt reports if locale leaked in. */
struct NoisyPunct : std::numpunct<char>
{
    char do_thousands_sep() const override { return '.'; }
    std::string do_grouping() const override { return "\3"; }
    char do_decimal_point() const override { return ','; }
};

TEST(StatGroupStats, DumpIsLocaleIndependent)
{
    StatGroup g;
    g.counter("big") += 1234567;
    g.set("gauge", 7654321);
    Histogram h(0.0, 2000000.0, 10);
    h.add(1234567.0);

    const std::string plain_group = g.dump();
    const std::string plain_hist = h.dump();

    const std::locale saved = std::locale::global(
        std::locale(std::locale::classic(), new NoisyPunct));
    const std::string noisy_group = g.dump();
    const std::string noisy_hist = h.dump();
    std::locale::global(saved);

    EXPECT_EQ(noisy_group, plain_group);
    EXPECT_EQ(noisy_hist, plain_hist);
    EXPECT_EQ(noisy_group.find(','), std::string::npos);
    EXPECT_NE(plain_group.find("big = 1234567"), std::string::npos);
}

} // namespace
} // namespace mvp::obs
