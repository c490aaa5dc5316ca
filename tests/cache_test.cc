/**
 * @file
 * Tests for the distributed memory system: hit/miss timing per the §2.2
 * latency formula, MSI coherence transitions, MSHR merging and full-MSHR
 * stalls, memory-bus arbitration and coherence traffic.
 */

#include <gtest/gtest.h>

#include <string>

#include "cache/memsys.hh"
#include "machine/presets.hh"

namespace mvp::cache
{
namespace
{

MachineConfig
twoClusterUnbounded()
{
    auto m = withUnboundedBuses(makeTwoCluster(), 1, 1);
    return m;
}

// ----------------------------------------------------------- basic timing

TEST(MemSys, ColdMissThenHit)
{
    const auto m = twoClusterUnbounded();
    MemorySystem sys(m);
    // Miss: LAT_cache + LAT_bus + LAT_mainmemory = 2 + 1 + 10.
    const auto miss = sys.access(0, 0x1000, false, 100);
    EXPECT_EQ(sys.stats().value("local_misses"), 1);
    EXPECT_EQ(miss.completion, 100 + 2 + 1 + 10);
    EXPECT_EQ(miss.issueStall, 0);
    // Second access to the same line: local hit at LAT_cache.
    const auto hit = sys.access(0, 0x101c, false, 200);
    EXPECT_EQ(hit.completion, 200 + 2);
    EXPECT_EQ(sys.stats().value("local_hits"), 1);
    EXPECT_EQ(sys.stats().value("local_misses"), 1);
    EXPECT_EQ(sys.stats().value("memory_fills"), 1);
}

TEST(MemSys, RemoteCacheHitIsFasterThanMemory)
{
    const auto m = twoClusterUnbounded();
    MemorySystem sys(m);
    (void)sys.access(0, 0x1000, false, 0);
    // Cluster 1 misses locally but finds the line in cluster 0:
    // LAT_cache + bus + remote LAT_cache.
    const auto remote = sys.access(1, 0x1000, false, 100);
    EXPECT_EQ(remote.completion, 100 + 2 + 1 + 2);
    EXPECT_LT(remote.completion, 100 + m.missLatency());
    EXPECT_EQ(sys.stats().value("remote_hits"), 1);
}

TEST(MemSys, DifferentLinesDifferentSets)
{
    const auto m = twoClusterUnbounded();
    MemorySystem sys(m);
    (void)sys.access(0, 0x1000, false, 0);
    (void)sys.access(0, 0x1020, false, 100);   // next line
    EXPECT_EQ(sys.stats().value("local_misses"), 2);
}

// ------------------------------------------------------------- coherence

TEST(MemSys, MsiStates)
{
    const auto m = twoClusterUnbounded();
    MemorySystem sys(m);
    EXPECT_EQ(sys.probe(0, 0x1000), LineState::Invalid);
    (void)sys.access(0, 0x1000, false, 0);
    EXPECT_EQ(sys.probe(0, 0x1000), LineState::Shared);
    (void)sys.access(0, 0x1000, true, 100);
    EXPECT_EQ(sys.probe(0, 0x1000), LineState::Modified);
}

TEST(MemSys, StoreInvalidatesRemoteCopies)
{
    const auto m = twoClusterUnbounded();
    MemorySystem sys(m);
    (void)sys.access(0, 0x1000, false, 0);
    (void)sys.access(1, 0x1000, false, 50);
    EXPECT_EQ(sys.probe(0, 0x1000), LineState::Shared);
    EXPECT_EQ(sys.probe(1, 0x1000), LineState::Shared);
    // Cluster 1 writes: cluster 0's copy must be invalidated.
    (void)sys.access(1, 0x1000, true, 100);
    EXPECT_EQ(sys.probe(0, 0x1000), LineState::Invalid);
    EXPECT_EQ(sys.probe(1, 0x1000), LineState::Modified);
    EXPECT_GE(sys.stats().value("invalidations"), 1);
}

TEST(MemSys, UpgradeOnSharedStorePaysBusTransaction)
{
    const auto m = twoClusterUnbounded();
    MemorySystem sys(m);
    (void)sys.access(0, 0x1000, false, 0);
    const auto up = sys.access(0, 0x1000, true, 100);
    // Upgrade: local tag check + invalidation transaction on the bus.
    EXPECT_EQ(sys.stats().value("local_misses"), 1);
    EXPECT_EQ(up.completion, 100 + 2 + 1);
    EXPECT_EQ(sys.stats().value("upgrades"), 1);
}

TEST(MemSys, DirtyRemoteLineIsSupplied)
{
    const auto m = twoClusterUnbounded();
    MemorySystem sys(m);
    (void)sys.access(0, 0x1000, true, 0);   // cluster 0 owns it dirty
    EXPECT_EQ(sys.probe(0, 0x1000), LineState::Modified);
    (void)sys.access(1, 0x1000, false, 100);
    EXPECT_EQ(sys.stats().value("remote_hits"), 1);
    EXPECT_EQ(sys.stats().value("dirty_supplies"), 1);
    // Supplier downgrades to Shared.
    EXPECT_EQ(sys.probe(0, 0x1000), LineState::Shared);
    EXPECT_EQ(sys.probe(1, 0x1000), LineState::Shared);
}

TEST(MemSys, ModifiedVictimWritesBack)
{
    auto m = twoClusterUnbounded();
    MemorySystem sys(m);
    (void)sys.access(0, 0x1000, true, 0);
    // Same set, different line (4KB per-cluster cache).
    (void)sys.access(0, 0x1000 + 4096, false, 100);
    EXPECT_EQ(sys.stats().value("writebacks"), 1);
    EXPECT_EQ(sys.probe(0, 0x1000), LineState::Invalid);
}

// ----------------------------------------------------------------- MSHR

TEST(MemSys, InFlightMergeCompletesWithTheFill)
{
    const auto m = twoClusterUnbounded();
    MemorySystem sys(m);
    const auto first = sys.access(0, 0x1000, false, 0);
    // Second access to the same line while the fill is in flight.
    const auto merged = sys.access(0, 0x1008, false, 2);
    EXPECT_EQ(merged.completion, first.completion);
    EXPECT_EQ(sys.stats().value("mshr_merges"), 1);
    // Only one memory fill was issued.
    EXPECT_EQ(sys.stats().value("memory_fills"), 1);
}

TEST(MemSys, EvictedLineStillInFlightMerges)
{
    const auto m = twoClusterUnbounded();   // 128 direct-mapped sets
    MemorySystem sys(m);
    const auto first = sys.access(0, 0x1000, false, 0);
    // A conflicting line (same set, 4 KiB on) evicts the tag while the
    // first fill is still on its way.
    (void)sys.access(0, 0x1000 + 4096, false, 1);
    EXPECT_EQ(sys.probe(0, 0x1000), LineState::Invalid);
    // Read again before the fill completes: it merges into that fill
    // instead of fetching the line a second time.
    const auto again = sys.access(0, 0x1004, false, 3);
    EXPECT_EQ(again.completion, first.completion);
    EXPECT_EQ(sys.stats().value("memory_fills"), 2);
    EXPECT_EQ(sys.stats().value("mshr_merges"), 1);
    // Once the fill has completed its entry is stale: the evicted line
    // misses and is fetched again.
    (void)sys.access(0, 0x1000, false, first.completion + 5);
    EXPECT_EQ(sys.stats().value("mshr_merges"), 1);
    EXPECT_EQ(sys.stats().value("memory_fills"), 3);
}

TEST(MemSys, FullMshrStallsAtIssue)
{
    auto m = twoClusterUnbounded();
    m.mshrEntries = 2;
    MemorySystem sys(m);
    // Three distinct-line misses at the same cycle: the third has no
    // MSHR entry until one of the first two completes.
    const auto a = sys.access(0, 0x0000, false, 0);
    (void)sys.access(0, 0x1000, false, 0);
    const auto c = sys.access(0, 0x2000, false, 0);
    EXPECT_GT(c.issueStall, 0);
    EXPECT_GE(c.issueStall, a.completion - 0);
    EXPECT_GT(sys.stats().value("mshr_full_stall_cycles"), 0);
}

// ------------------------------------------------------------------ bus

TEST(MemSys, SingleBusSerialisesMisses)
{
    auto m = makeTwoCluster();   // 1 memory bus @ 1 cycle
    m.unboundedMemBuses = false;
    m.nMemBuses = 1;
    m.memBusLatency = 4;
    MemorySystem sys(m);
    const auto a = sys.access(0, 0x0000, false, 0);
    const auto b = sys.access(1, 0x4000, false, 0);
    // Second request waits for the bus: completions are staggered by
    // the bus latency.
    EXPECT_EQ(a.completion, 0 + 2 + 4 + 10);
    EXPECT_EQ(b.completion, a.completion + 4);
    EXPECT_GT(sys.stats().value("bus_wait_cycles"), 0);
}

TEST(MemSys, TwoBusesRemoveTheWait)
{
    auto m = makeTwoCluster();
    m.unboundedMemBuses = false;
    m.nMemBuses = 2;
    m.memBusLatency = 4;
    MemorySystem sys(m);
    const auto a = sys.access(0, 0x0000, false, 0);
    const auto b = sys.access(1, 0x4000, false, 0);
    EXPECT_EQ(a.completion, b.completion);
    EXPECT_EQ(sys.stats().value("bus_wait_cycles"), 0);
}

TEST(MemSys, ResetClearsEverything)
{
    const auto m = twoClusterUnbounded();
    MemorySystem sys(m);
    (void)sys.access(0, 0x1000, true, 0);
    sys.reset();
    EXPECT_EQ(sys.probe(0, 0x1000), LineState::Invalid);
    EXPECT_EQ(sys.stats().value("stores"), 0);
    // A counter that counted before the reset keeps its name at 0.
    EXPECT_NE(sys.stats().dump().find("stores = 0"), std::string::npos);
    (void)sys.access(0, 0x1000, false, 0);
    EXPECT_EQ(sys.stats().value("local_misses"), 1);
}

TEST(MemSys, AssociativityKeepsConflictingLines)
{
    auto m = twoClusterUnbounded();
    m.cacheAssoc = 2;
    MemorySystem sys(m);
    // Two lines mapping to the same set coexist in a 2-way cache
    // (per-cluster capacity 4KB -> 64 sets of 2 ways).
    (void)sys.access(0, 0x0000, false, 0);
    (void)sys.access(0, 0x0000 + 2048, false, 10);
    (void)sys.access(0, 0x0000, false, 100);
    (void)sys.access(0, 0x0000 + 2048, false, 110);
    EXPECT_EQ(sys.stats().value("local_hits"), 2);
}

} // namespace
} // namespace mvp::cache
