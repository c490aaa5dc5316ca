/**
 * @file
 * Tests for the machine model: Table-1 presets, latencies, cache
 * geometry and configuration validation.
 */

#include <gtest/gtest.h>

#include "machine/presets.hh"

namespace mvp
{
namespace
{

TEST(Presets, Table1Unified)
{
    const auto m = makeUnified();
    m.validate();
    EXPECT_EQ(m.nClusters, 1);
    EXPECT_EQ(m.intFusPerCluster, 4);
    EXPECT_EQ(m.fpFusPerCluster, 4);
    EXPECT_EQ(m.memFusPerCluster, 4);
    EXPECT_EQ(m.regsPerCluster, 64);
    EXPECT_EQ(m.issueWidth(), 12);
    EXPECT_FALSE(m.isClustered());
    EXPECT_EQ(m.cacheBytesPerCluster(), 8192);
}

TEST(Presets, Table1TwoCluster)
{
    const auto m = makeTwoCluster();
    m.validate();
    EXPECT_EQ(m.nClusters, 2);
    EXPECT_EQ(m.intFusPerCluster, 2);
    EXPECT_EQ(m.regsPerCluster, 32);
    EXPECT_EQ(m.issueWidth(), 12);
    EXPECT_EQ(m.cacheBytesPerCluster(), 4096);
    EXPECT_EQ(m.clusterCacheGeom().numSets(), 128);
}

TEST(Presets, Table1FourCluster)
{
    const auto m = makeFourCluster();
    m.validate();
    EXPECT_EQ(m.nClusters, 4);
    EXPECT_EQ(m.intFusPerCluster, 1);
    EXPECT_EQ(m.regsPerCluster, 16);
    EXPECT_EQ(m.issueWidth(), 12);
    EXPECT_EQ(m.cacheBytesPerCluster(), 2048);
}

TEST(Presets, AllConfigsShareTotalResources)
{
    // 12-way issue, 8KB L1 and equal FU totals in all three (Table 1).
    for (int c : {1, 2, 4}) {
        const auto m = makeConfig(c);
        EXPECT_EQ(m.issueWidth(), 12) << c;
        EXPECT_EQ(m.totalCacheBytes, 8192) << c;
        EXPECT_EQ(m.totalFus(ir::FuType::Int), 4) << c;
        EXPECT_EQ(m.totalFus(ir::FuType::Fp), 4) << c;
        EXPECT_EQ(m.totalFus(ir::FuType::Mem), 4) << c;
    }
}

TEST(Presets, BusHelpers)
{
    const auto unb = withUnboundedBuses(makeTwoCluster(), 2, 4);
    EXPECT_TRUE(unb.unboundedRegBuses);
    EXPECT_TRUE(unb.unboundedMemBuses);
    EXPECT_EQ(unb.regBusLatency, 2);
    EXPECT_EQ(unb.memBusLatency, 4);

    const auto lim = withLimitedBuses(makeFourCluster(), 2, 4);
    EXPECT_FALSE(lim.unboundedRegBuses);
    EXPECT_EQ(lim.nRegBuses, 2);
    EXPECT_EQ(lim.regBusLatency, 1);
    EXPECT_EQ(lim.nMemBuses, 2);
    EXPECT_EQ(lim.memBusLatency, 4);
}

TEST(Latency, OpLatencies)
{
    const auto m = makeUnified();
    EXPECT_EQ(m.opLatency(ir::Opcode::IAdd), m.latInt);
    EXPECT_EQ(m.opLatency(ir::Opcode::IMul), m.latIntMul);
    EXPECT_EQ(m.opLatency(ir::Opcode::FAdd), m.latFp);
    EXPECT_EQ(m.opLatency(ir::Opcode::FMadd), m.latFp);
    EXPECT_EQ(m.opLatency(ir::Opcode::FDiv), m.latFpDiv);
    EXPECT_EQ(m.opLatency(ir::Opcode::Load), m.latCacheHit);
    EXPECT_EQ(m.opLatency(ir::Opcode::Store), m.latStore);
}

TEST(Latency, MissLatencyDecomposition)
{
    auto m = makeTwoCluster();
    m.memBusLatency = 4;
    // LAT_cache + LAT_membus + LAT_mainmemory (§4.3).
    EXPECT_EQ(m.missLatency(), 2 + 4 + 10);
}

TEST(CacheGeom, SetMapping)
{
    const CacheGeom g{4096, 32, 1};
    EXPECT_EQ(g.numSets(), 128);
    EXPECT_EQ(g.lineOf(0), 0);
    EXPECT_EQ(g.lineOf(31), 0);
    EXPECT_EQ(g.lineOf(32), 1);
    EXPECT_EQ(g.setOf(0), g.setOf(4096));        // capacity apart
    EXPECT_NE(g.setOf(0), g.setOf(64));
}

TEST(CacheGeom, Associativity)
{
    const CacheGeom g{4096, 32, 2};
    EXPECT_EQ(g.numSets(), 64);
    EXPECT_EQ(g.setOf(0), g.setOf(2048));
}

TEST(MachineDeath, InvalidConfigsAreFatal)
{
    auto m = makeTwoCluster();
    m.nClusters = 0;
    EXPECT_EXIT(m.validate(), ::testing::ExitedWithCode(1), "nClusters");

    auto m2 = makeTwoCluster();
    m2.nRegBuses = 0;
    EXPECT_EXIT(m2.validate(), ::testing::ExitedWithCode(1),
                "register bus");

    auto m3 = makeFourCluster();
    m3.totalCacheBytes = 9000;   // not divisible by 4 clusters x lines
    EXPECT_EXIT(m3.validate(), ::testing::ExitedWithCode(1), "cache");
}

TEST(MachineDeath, DegenerateCacheGeometryIsFatalNotAFault)
{
    auto line = makeTwoCluster();
    line.cacheLineBytes = 0;
    EXPECT_EXIT(line.validate(), ::testing::ExitedWithCode(1),
                "line size and associativity");

    auto assoc = makeTwoCluster();
    assoc.cacheAssoc = 0;
    EXPECT_EXIT(assoc.validate(), ::testing::ExitedWithCode(1),
                "line size and associativity");

    auto empty = makeTwoCluster();
    empty.totalCacheBytes = 0;
    EXPECT_EXIT(empty.validate(), ::testing::ExitedWithCode(1),
                "capacity must be >= 1");

    auto no_set = makeFourCluster();
    no_set.totalCacheBytes = 64;   // 16 B per cluster, 32 B lines
    EXPECT_EXIT(no_set.validate(), ::testing::ExitedWithCode(1),
                "holds no set");
}

TEST(Machine, SummaryMentionsKeyParameters)
{
    const auto s = makeTwoCluster().summary();
    EXPECT_NE(s.find("2 cluster"), std::string::npos);
    EXPECT_NE(s.find("32 regs"), std::string::npos);
    EXPECT_NE(s.find("direct-mapped"), std::string::npos);
}

} // namespace
} // namespace mvp
