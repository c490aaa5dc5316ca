/**
 * @file
 * The multiVLIWprocessor machine model.
 *
 * Captures everything Table 1 of the paper fixes plus the bus parameters
 * the evaluation sweeps: cluster count, per-cluster FU mix and register
 * file, register buses (count/latency, possibly unbounded), memory buses
 * (count/latency, possibly unbounded), the distributed L1 geometry and
 * the operation latencies.
 */

#ifndef MVP_MACHINE_MACHINE_HH
#define MVP_MACHINE_MACHINE_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "ir/opcode.hh"

namespace mvp
{

/**
 * Geometry of one (per-cluster) data cache.
 */
struct CacheGeom
{
    std::int64_t capacityBytes = 4096;
    int lineBytes = 32;
    int assoc = 1;   ///< 1 = direct-mapped (the paper's configuration)

    /** Number of sets. */
    std::int64_t numSets() const
    {
        return capacityBytes / (static_cast<std::int64_t>(lineBytes) * assoc);
    }

    /** Line-aligned address -> line number. */
    std::int64_t lineOf(Addr addr) const
    {
        return static_cast<std::int64_t>(addr) / lineBytes;
    }

    /**
     * The set-index rule: cache set of line @p line among @p num_sets
     * sets. A mask when the count is a power of two, else a remainder;
     * the two agree on every non-negative line, and
     * LoopNest::validate() keeps every address, hence every line, of a
     * loop non-negative. Hot loops hoist numSets() and pass it in.
     */
    static std::int64_t setOfLine(std::int64_t line, std::int64_t num_sets)
    {
        return (num_sets & (num_sets - 1)) == 0 ? (line & (num_sets - 1))
                                                : (line % num_sets);
    }

    /** Cache set of an address. */
    std::int64_t setOf(Addr addr) const
    {
        return setOfLine(lineOf(addr), numSets());
    }

    bool operator==(const CacheGeom &other) const = default;
};

/**
 * Complete machine configuration.
 */
struct MachineConfig
{
    std::string name = "machine";

    /** @name Clusters and functional units */
    /// @{
    int nClusters = 1;
    int intFusPerCluster = 4;
    int fpFusPerCluster = 4;
    int memFusPerCluster = 4;
    int regsPerCluster = 64;
    /// @}

    /** @name Register buses (inter-cluster register communication) */
    /// @{
    int nRegBuses = 2;
    Cycle regBusLatency = 1;
    bool unboundedRegBuses = false;
    /// @}

    /** @name Memory buses (caches <-> caches/main memory) */
    /// @{
    int nMemBuses = 1;
    Cycle memBusLatency = 1;
    bool unboundedMemBuses = false;
    /// @}

    /** @name Distributed L1 data cache */
    /// @{
    std::int64_t totalCacheBytes = 8192;  ///< split evenly across clusters
    int cacheLineBytes = 32;              ///< 8 elements of 4 bytes
    int cacheAssoc = 1;                   ///< direct-mapped
    int mshrEntries = 10;                 ///< non-blocking cache depth
    /// @}

    /** @name Latencies (cycles) */
    /// @{
    Cycle latCacheHit = 2;      ///< local L1 access
    Cycle latMainMemory = 10;   ///< DRAM access after the bus transfer
    Cycle latInt = 1;           ///< integer ALU ops
    Cycle latIntMul = 2;        ///< integer multiply
    Cycle latIntDiv = 6;        ///< integer divide
    Cycle latFp = 2;            ///< FP add/sub/mul/madd (motivating example)
    Cycle latFpDiv = 6;         ///< FP divide
    Cycle latStore = 1;         ///< store issue -> retire
    /// @}

    /** Latency of @p op assuming a local-cache hit for loads. */
    Cycle opLatency(ir::Opcode op) const;

    /**
     * The binding-prefetch latency used when a load is scheduled with the
     * cache-miss latency: LAT_cache + LAT_membus + LAT_mainmemory (§4.3).
     */
    Cycle missLatency() const
    {
        return latCacheHit + memBusLatency + latMainMemory;
    }

    /** Per-cluster share of the L1 capacity. */
    std::int64_t cacheBytesPerCluster() const
    {
        return totalCacheBytes / nClusters;
    }

    /** Per-cluster cache geometry. */
    CacheGeom clusterCacheGeom() const
    {
        return CacheGeom{cacheBytesPerCluster(), cacheLineBytes, cacheAssoc};
    }

    /** Functional units of class @p type per cluster. */
    int fusPerCluster(ir::FuType type) const;

    /** Total functional units of class @p type across clusters. */
    int totalFus(ir::FuType type) const
    {
        return fusPerCluster(type) * nClusters;
    }

    /** Total issue width (all FU slots, all clusters). */
    int issueWidth() const
    {
        return (intFusPerCluster + fpFusPerCluster + memFusPerCluster) *
               nClusters;
    }

    /** True when more than one cluster exists. */
    bool isClustered() const { return nClusters > 1; }

    /** fatal() on inconsistent configurations. */
    void validate() const;

    /** One-line summary for reports. */
    std::string summary() const;
};

} // namespace mvp

#endif // MVP_MACHINE_MACHINE_HH
