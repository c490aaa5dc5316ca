/**
 * @file
 * Timed model of the distributed memory system of a multiVLIWprocessor.
 *
 * Each cluster owns a direct-mapped (configurable associativity),
 * non-blocking L1 data cache with an MSHR. The caches and main memory
 * share one or more memory buses; coherence is a snoopy MSI protocol
 * handled entirely in hardware (§2.1). The model computes, for every
 * access, the completion cycle following the latency decomposition of
 * §2.2:
 *
 *   LAT = LAT_cache + MISS_LC * (NC_waitEntry + NC_waitBus +
 *         LAT_memoryBus + (MISS_RC ? LAT_mainMemory : LAT_remoteCache))
 *
 * with MSHR merging ("an earlier miss has already started loading the
 * relevant cache line"), bus occupancy for coherence traffic (upgrades,
 * writebacks) and write-allocate stores that fetch ownership.
 *
 * access() is the lockstep simulator's innermost call, so its
 * bookkeeping is flat: event counters are enum-indexed integers (the
 * named StatGroup is only built when stats() is asked for) and the
 * in-flight fills of a cluster live in a short vector.
 */

#ifndef MVP_CACHE_MEMSYS_HH
#define MVP_CACHE_MEMSYS_HH

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "machine/machine.hh"

namespace mvp::cache
{

/** MSI line states. */
enum class LineState : std::uint8_t { Invalid, Shared, Modified };

/** Timing and classification of one access. */
struct MemAccessResult
{
    /** Cycle at which the loaded value is available / store retires. */
    Cycle completion = 0;

    /**
     * Cycles the issuing instruction must stall *at issue* because no
     * MSHR entry was free (the paper stalls the whole machine).
     */
    Cycle issueStall = 0;

    bool localHit = false;
    bool remoteHit = false;        ///< satisfied by another cluster's cache
    bool mergedInFlight = false;   ///< folded into a pending fill
};

/**
 * The complete distributed memory system.
 */
class MemorySystem
{
  public:
    explicit MemorySystem(const MachineConfig &machine);

    /**
     * Perform one access and return its timing. Accesses must be issued
     * in non-decreasing @p issue order (the lockstep simulator
     * guarantees this).
     */
    MemAccessResult access(ClusterId cluster, Addr addr, bool is_store,
                           Cycle issue);

    /** Forget all cached state and bus/MSHR occupancy. */
    void reset();

    /** Current MSI state of @p addr 's line in @p cluster (for tests). */
    LineState probe(ClusterId cluster, Addr addr) const;

    /**
     * Event counters (hits, misses, waits, coherence traffic) by name.
     * A counter appears once an access has bumped it, even by 0; the
     * simulator copies this group into its SimResult.
     */
    StatGroup stats() const;

  private:
    /** The event counters, in the order of COUNTER_NAMES. */
    enum Counter : unsigned {
        Loads,
        Stores,
        LocalHits,
        LocalMisses,
        MshrMerges,
        MshrFullStallCycles,
        Upgrades,
        RemoteHits,
        DirtySupplies,
        MemoryFills,
        Writebacks,
        Invalidations,
        BusWaitCycles,
        BusTransactions,
        NumCounters
    };

    /** Add @p n to counter @p c and mark it touched. */
    void bump(Counter c, std::int64_t n = 1)
    {
        counts_[c] += n;
        touched_ |= 1u << c;
    }

    struct Way
    {
        std::int64_t line = -1;
        LineState state = LineState::Invalid;
    };

    struct Cluster
    {
        std::vector<Way> ways;            ///< [set * assoc + way], MRU first
        std::vector<Cycle> mshrBusyUntil; ///< one per MSHR entry
        /** In-flight fills: (line, completion cycle), unordered. */
        std::vector<std::pair<std::int64_t, Cycle>> inflight;
    };

    /** Earliest cycle a bus grant is possible at or after @p ready. */
    Cycle acquireBus(Cycle ready);

    /** Look up a line; returns way index or -1. */
    int findWay(const Cluster &cl, std::int64_t set, std::int64_t line)
        const;

    /** Install @p line MRU in @p set, returning the evicted way. */
    Way installLine(Cluster &cl, std::int64_t set, std::int64_t line,
                    LineState state);

    /** Invalidate @p line in every cluster except @p except. */
    void invalidateRemote(std::int64_t line, ClusterId except);

    /** Index of way @p w of @p set in Cluster::ways. */
    std::size_t wayIndex(std::int64_t set, int w) const
    {
        return static_cast<std::size_t>(set) *
                   static_cast<std::size_t>(geom_.assoc) +
               static_cast<std::size_t>(w);
    }

    const MachineConfig &machine_;
    CacheGeom geom_;
    std::int64_t numSets_;   ///< geom_.numSets(); MachineConfig::validate
                             ///< guarantees >= 1
    std::vector<Cluster> clusters_;
    std::vector<Cycle> busFreeAt_;
    std::array<std::int64_t, NumCounters> counts_{};
    std::uint32_t touched_ = 0;   ///< bit c set once counter c is bumped
};

} // namespace mvp::cache

#endif // MVP_CACHE_MEMSYS_HH
