/**
 * @file
 * The parallel experiment driver's determinism contract: every output —
 * suite-sweep serialisations, gap tables, the 288 golden schedule
 * fingerprints — must be byte-identical at jobs=1, 2 and 8, and the
 * shared CME analyses must answer concurrent queries with bit-identical
 * values. Also covers the driver plumbing itself (every item claimed
 * exactly once, --jobs parsing).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "cme/oracle.hh"
#include "cme/solver.hh"
#include "cme/stream.hh"
#include "ddg/ddg.hh"
#include "harness/experiment.hh"
#include "harness/gapstudy.hh"
#include "machine/presets.hh"
#include "sched/backend.hh"
#include "sched_fingerprint.hh"
#include "workloads/workloads.hh"

namespace mvp::harness
{
namespace
{

const int JOB_COUNTS[] = {1, 2, 8};

/** The full Table-1 configuration grid (every machine and scheduler,
 * the outer thresholds). */
std::vector<RunConfig>
table1Grid()
{
    std::vector<RunConfig> configs;
    for (const MachineConfig &machine :
         {makeUnified(), makeTwoCluster(), makeFourCluster()}) {
        for (const char *backend : {"baseline", "rmca"}) {
            for (double thr : {1.0, 0.0}) {
                RunConfig cfg;
                cfg.machine = machine;
                cfg.backend = backend;
                cfg.threshold = thr;
                configs.push_back(cfg);
            }
        }
    }
    return configs;
}

TEST(ParallelDriver, SuiteSweepByteIdenticalAcrossJobCounts)
{
    Workbench bench;
    const auto configs = table1Grid();
    sim::SimParams params;
    params.maxExecutions = 2;

    std::vector<std::string> reference;
    for (int jobs : JOB_COUNTS) {
        ParallelDriver driver(jobs);
        ASSERT_EQ(driver.jobs(), jobs);
        const auto results =
            runSuiteSweep(bench, configs, params, driver);
        ASSERT_EQ(results.size(), configs.size());
        if (reference.empty()) {
            for (const auto &suite : results)
                reference.push_back(formatSuiteResult(suite));
            continue;
        }
        for (std::size_t c = 0; c < configs.size(); ++c)
            EXPECT_EQ(formatSuiteResult(results[c]), reference[c])
                << "config " << c << " diverged at jobs=" << jobs;
    }
}

TEST(ParallelDriver, SingleConfigSweepMatchesSerialRun)
{
    Workbench bench({"tomcatv", "hydro2d"});
    RunConfig config;
    config.machine = makeFourCluster();
    config.backend = "rmca";
    config.threshold = 0.25;
    sim::SimParams params;
    params.maxExecutions = 2;

    ParallelDriver sharded(8);
    ParallelDriver serial(1);
    const std::string a = formatSuiteResult(
        runSuiteSweep(bench, {config}, params, sharded).at(0));
    const std::string b = formatSuiteResult(
        runSuiteSweep(bench, {config}, params, serial).at(0));
    EXPECT_EQ(a, b);
}

TEST(ParallelDriver, GapTablesByteIdenticalAcrossJobCounts)
{
    Workbench bench;
    const MachineConfig machine = makeTwoCluster();

    // Default budget: the study settles on every loop. The starved
    // budget exercises the "gap unknown" degradation path, whose
    // trigger node count must also be sharding-independent (the exact
    // backend charges pruned children deterministically).
    for (std::int64_t budget : {sched::DEFAULT_SEARCH_BUDGET,
                                std::int64_t{20000}}) {
        GapOptions options;
        options.searchBudget = budget;
        std::string reference;
        for (int jobs : JOB_COUNTS) {
            ParallelDriver driver(jobs);
            const auto study =
                runGapStudy(bench, machine, options, driver);
            ASSERT_EQ(study.rows.size(), bench.entries().size());
            const std::string table = formatGapTable(study);
            if (reference.empty())
                reference = table;
            else
                EXPECT_EQ(table, reference)
                    << "gap table diverged at jobs=" << jobs
                    << " budget=" << budget;
        }
    }
}

/**
 * The 288 golden fingerprints of tests/golden_schedules.inc, computed
 * through the driver at jobs=8: one work item per workload loop, each
 * item scheduling its loop under every machine and scheduler variant
 * with the worker's SchedContext and a loop-local CME analysis —
 * exactly the sharding pattern of a production sweep.
 */
struct GoldenEntry
{
    const char *key;
    std::uint64_t hash;
};

const GoldenEntry GOLDEN[] = {
#include "golden_schedules.inc"
};

TEST(ParallelDriver, GoldenFingerprintsThroughDriver)
{
    const auto loops = workloads::allLoops();
    std::vector<std::map<std::string, std::uint64_t>> per_item(
        loops.size());

    ParallelDriver driver(8);
    driver.run(loops.size(), [&](std::size_t i,
                                 sched::SchedContext &ctx) {
        const auto &wl = loops[i];
        cme::CmeAnalysis cme(wl.nest);
        const std::string prefix =
            wl.benchmark + "/" + std::to_string(wl.index) + "/c";
        for (int nc : {1, 2, 4}) {
            const auto machine = makeConfig(nc);
            const auto graph = ddg::Ddg::build(wl.nest, machine);
            const std::string base = prefix + std::to_string(nc);

            sched::SchedulerOptions opt;
            opt.locality = &cme;
            opt.missThreshold = 1.0;
            per_item[i][base + "/baseline"] = sched::fingerprintResult(
                sched::scheduleWithBackend("baseline", graph, machine,
                                           opt, ctx));
            opt.missThreshold = 0.25;
            per_item[i][base + "/rmca_t0.25"] = sched::fingerprintResult(
                sched::scheduleWithBackend("rmca", graph, machine, opt,
                                           ctx));
            opt.missThreshold = 0.0;
            per_item[i][base + "/rmca_t0"] = sched::fingerprintResult(
                sched::scheduleWithBackend("rmca", graph, machine, opt,
                                           ctx));
        }
    });

    std::map<std::string, std::uint64_t> fp;
    for (const auto &m : per_item)
        fp.insert(m.begin(), m.end());

    std::map<std::string, std::uint64_t> golden;
    for (const auto &e : GOLDEN)
        golden.emplace(e.key, e.hash);

    ASSERT_EQ(fp.size(), golden.size());
    for (const auto &[key, hash] : fp) {
        const auto it = golden.find(key);
        ASSERT_NE(it, golden.end()) << "no golden entry for " << key;
        EXPECT_EQ(hash, it->second)
            << "sharded schedule diverged from golden for " << key;
    }
}

/**
 * One CmeAnalysis hammered from eight workers must return bit-identical
 * ratios to a fresh serial instance — sampling seeds derive from query
 * keys, and the sharded memo keeps whichever of two racing identical
 * answers lands first.
 */
TEST(SharedCmeAnalysis, ConcurrentQueriesBitIdentical)
{
    const auto bench = workloads::makeTomcatv();
    const auto &nest = bench.loops[0];
    const auto mem = nest.memoryOps();
    const CacheGeom geoms[] = {{2048, 32, 1}, {4096, 32, 1}};

    // Serial reference: every (op, geometry) ratio plus per-prefix
    // whole-set queries, from a private instance.
    cme::CmeAnalysis serial(nest);
    std::map<std::string, double> expected;
    for (const auto &geom : geoms) {
        for (std::size_t i = 0; i < mem.size(); ++i) {
            const std::string key = std::to_string(geom.capacityBytes) +
                                    "/" + std::to_string(mem[i]);
            expected["ratio/" + key] = serial.missRatio(mem, mem[i], geom);
            const std::vector<OpId> prefix(mem.begin(),
                                           mem.begin() +
                                               static_cast<long>(i) + 1);
            expected["set/" + key] =
                serial.missesPerIteration(prefix, geom);
        }
    }

    // Shared instance, every query issued from every worker (maximum
    // contention on the memo shards), repeated to hit both the
    // fresh-compute and the memoised paths.
    cme::CmeAnalysis shared(nest);
    const int workers = 8;
    std::vector<std::map<std::string, double>> got(
        static_cast<std::size_t>(workers));
    ParallelDriver driver(workers);
    for (int round = 0; round < 2; ++round) {
        driver.run(static_cast<std::size_t>(workers),
                   [&](std::size_t w, sched::SchedContext &) {
                       for (const auto &geom : geoms) {
                           for (std::size_t i = 0; i < mem.size(); ++i) {
                               const std::string key =
                                   std::to_string(geom.capacityBytes) +
                                   "/" + std::to_string(mem[i]);
                               got[w]["ratio/" + key] =
                                   shared.missRatio(mem, mem[i], geom);
                               const std::vector<OpId> prefix(
                                   mem.begin(),
                                   mem.begin() + static_cast<long>(i) +
                                       1);
                               got[w]["set/" + key] =
                                   shared.missesPerIteration(prefix,
                                                             geom);
                           }
                       }
                   });
        for (int w = 0; w < workers; ++w)
            for (const auto &[key, value] : expected)
                EXPECT_EQ(got[static_cast<std::size_t>(w)].at(key), value)
                    << key << " diverged (worker " << w << ", round "
                    << round << ")";
    }
}

/**
 * One StreamCache shared by solver and oracle instances created inside
 * eight concurrent workers: every worker races the others on the lazy
 * stream/bucket builds (the TSan job runs this), and every answer must
 * be bit-identical to a serial reference — streams are pure functions
 * of (nest, op, geometry), so whichever racing build wins is
 * indistinguishable. The oracle side grows sets one op at a time, so
 * the incremental-extension path runs under contention too.
 */
TEST(SharedStreamCache, ConcurrentQueriesBitIdentical)
{
    const auto bench = workloads::makeTomcatv();
    const auto &nest = bench.loops[0];
    const auto mem = nest.memoryOps();
    const CacheGeom geom{2048, 32, 1};

    // Serial reference with a private cache.
    std::map<std::string, double> expected;
    {
        cme::CmeAnalysis cme(nest);
        cme::CacheOracle oracle(nest);
        std::vector<OpId> prefix;
        for (std::size_t i = 0; i < mem.size(); ++i) {
            prefix.push_back(mem[i]);
            const std::string key = std::to_string(mem[i]);
            expected["cme/" + key] = cme.missRatio(mem, mem[i], geom);
            expected["oracle/" + key] =
                oracle.missesPerIteration(prefix, geom);
        }
    }

    auto shared = std::make_shared<cme::StreamCache>(nest);
    const int workers = 8;
    std::vector<std::map<std::string, double>> got(
        static_cast<std::size_t>(workers));
    ParallelDriver driver(workers);
    driver.run(static_cast<std::size_t>(workers),
               [&](std::size_t w, sched::SchedContext &) {
                   // Fresh analyses per worker, all drawing from the
                   // one shared cache — the Workbench sharing shape.
                   cme::CmeAnalysis cme(nest, {}, shared);
                   cme::CacheOracle oracle(nest, shared);
                   std::vector<OpId> prefix;
                   for (std::size_t i = 0; i < mem.size(); ++i) {
                       prefix.push_back(mem[i]);
                       const std::string key = std::to_string(mem[i]);
                       got[w]["cme/" + key] =
                           cme.missRatio(mem, mem[i], geom);
                       got[w]["oracle/" + key] =
                           oracle.missesPerIteration(prefix, geom);
                   }
               });
    for (int w = 0; w < workers; ++w)
        for (const auto &[key, value] : expected)
            EXPECT_EQ(got[static_cast<std::size_t>(w)].at(key), value)
                << key << " diverged (worker " << w << ")";
    // Every op's stream was built, at most once per racing worker.
    EXPECT_GE(shared->streamsBuilt(), mem.size());
    EXPECT_LE(shared->streamsBuilt(),
              mem.size() * static_cast<std::size_t>(workers));
}

/**
 * The pool (and each worker's SchedContext) must persist across run()
 * calls: over any number of sweeps, the number of distinct contexts
 * ever handed to work items cannot exceed the pool size. A driver that
 * respawned threads (and thus contexts) per sweep would hand out fresh,
 * unmarked contexts every run and blow through the bound.
 */
TEST(ParallelDriver, WorkerPoolPersistsAcrossRuns)
{
    constexpr std::size_t N = 64;
    constexpr int JOBS = 4;
    constexpr int SWEEPS = 6;
    ParallelDriver driver(JOBS);
    std::atomic<int> distinct_contexts{0};
    for (int sweep = 0; sweep < SWEEPS; ++sweep) {
        driver.run(N, [&](std::size_t, sched::SchedContext &ctx) {
            if (ctx.order.empty()) {   // first item this context ever ran
                ctx.order.push_back(42);
                distinct_contexts.fetch_add(1);
            }
        });
    }
    EXPECT_GE(distinct_contexts.load(), 1);
    EXPECT_LE(distinct_contexts.load(), JOBS);
}

TEST(ParallelDriver, SerialContextPersistsAcrossRuns)
{
    ParallelDriver driver(1);
    driver.run(1, [&](std::size_t, sched::SchedContext &ctx) {
        ctx.order.push_back(7);
    });
    bool still_marked = false;
    driver.run(1, [&](std::size_t, sched::SchedContext &ctx) {
        still_marked = !ctx.order.empty() && ctx.order.back() == 7;
    });
    EXPECT_TRUE(still_marked);
}

TEST(ParseLocalityFlag, StripsTheFlagAndParses)
{
    char a0[] = "prog";
    char a1[] = "--locality";
    char a2[] = "oracle";
    char a3[] = "positional";
    char *argv[] = {a0, a1, a2, a3};
    int argc = 4;
    std::string locality = "cme";
    parseLocalityFlag(argc, argv, locality);
    EXPECT_EQ(locality, "oracle");
    ASSERT_EQ(argc, 2);
    EXPECT_STREQ(argv[1], "positional");

    char b0[] = "prog";
    char b1[] = "--locality=oracle";
    char *argv2[] = {b0, b1};
    int argc2 = 2;
    locality = "cme";
    parseLocalityFlag(argc2, argv2, locality);
    EXPECT_EQ(locality, "oracle");
    EXPECT_EQ(argc2, 1);

    // An absent flag leaves the caller's default alone.
    char c0[] = "prog";
    char *argv3[] = {c0};
    int argc3 = 1;
    locality = "cme";
    parseLocalityFlag(argc3, argv3, locality);
    EXPECT_EQ(locality, "cme");
}

TEST(ParallelDriver, EveryItemClaimedExactlyOnce)
{
    constexpr std::size_t N = 1000;
    std::vector<std::atomic<int>> claimed(N);
    std::atomic<int> distinct_contexts{0};
    ParallelDriver driver(8);
    driver.run(N, [&](std::size_t i, sched::SchedContext &ctx) {
        claimed[i].fetch_add(1);
        // First item a worker runs: count its context once.
        if (ctx.order.empty()) {
            ctx.order.push_back(0);   // mark the context as seen
            distinct_contexts.fetch_add(1);
        }
    });
    for (std::size_t i = 0; i < N; ++i)
        EXPECT_EQ(claimed[i].load(), 1) << "item " << i;
    EXPECT_GE(distinct_contexts.load(), 1);
    EXPECT_LE(distinct_contexts.load(), 8);
}

TEST(ParallelDriver, JobsDefaultsArePositive)
{
    EXPECT_GE(defaultJobs(), 1);
    ParallelDriver dflt;
    EXPECT_GE(dflt.jobs(), 1);
    ParallelDriver five(5);
    EXPECT_EQ(five.jobs(), 5);
}

TEST(ParseJobsFlag, StripsTheFlagAndParses)
{
    char a0[] = "prog";
    char a1[] = "--jobs";
    char a2[] = "7";
    char a3[] = "positional";
    char *argv[] = {a0, a1, a2, a3};
    int argc = 4;
    EXPECT_EQ(parseJobsFlag(argc, argv), 7);
    ASSERT_EQ(argc, 2);
    EXPECT_STREQ(argv[1], "positional");

    char b0[] = "prog";
    char b1[] = "--jobs=3";
    char *argv2[] = {b0, b1};
    int argc2 = 2;
    EXPECT_EQ(parseJobsFlag(argc2, argv2), 3);
    EXPECT_EQ(argc2, 1);

    char c0[] = "prog";
    char *argv3[] = {c0};
    int argc3 = 1;
    EXPECT_EQ(parseJobsFlag(argc3, argv3), 0);
}

} // namespace
} // namespace mvp::harness
