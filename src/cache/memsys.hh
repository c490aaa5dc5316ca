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
 * named StatGroup is only built when stats() is asked for), line and
 * set come from a shift and a mask when the geometry is a power of
 * two, and each way carries the completion cycle of the fill that
 * installed it, so the in-flight check is the tag probe itself.
 */

#ifndef MVP_CACHE_MEMSYS_HH
#define MVP_CACHE_MEMSYS_HH

#include <algorithm>
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

/**
 * Timing of one access. How it was served (hit, merge, remote or
 * memory fill) shows in the event counters of MemorySystem::stats().
 */
struct MemAccessResult
{
    /** Cycle at which the loaded value is available / store retires. */
    Cycle completion = 0;

    /**
     * Cycles the issuing instruction must stall *at issue* because no
     * MSHR entry was free (the paper stalls the whole machine).
     */
    Cycle issueStall = 0;
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
     * guarantees this). Inline for the common merge or hit; the rest
     * is accessSlow().
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

    /** Add @p n >= 1 to counter @p c; a nonzero count is touched. */
    void bump(Counter c, std::int64_t n = 1) { counts_[c] += n; }

    /** Add @p n >= 0 to counter @p c and mark it touched even at 0. */
    void bumpMaybeZero(Counter c, std::int64_t n)
    {
        counts_[c] += n;
        touched_ |= 1u << c;
    }

    /** The counters stats() shows: the touched ones. */
    std::uint32_t touchedMask() const;

    struct Way
    {
        std::int64_t line = -1;
        /**
         * Completion cycle of the fill that installed @c line. The tag
         * is installed when the fill starts, so while this is later
         * than an access's issue cycle the line is still in flight,
         * whatever its state.
         */
        Cycle fillDone = 0;
        LineState state = LineState::Invalid;
    };

    struct Cluster
    {
        std::vector<Way> ways;            ///< [set * assoc + way], MRU first
        std::vector<Cycle> mshrBusyUntil; ///< one per MSHR entry
        /**
         * Fills evicted from the ways before they completed: (line,
         * completion cycle), unordered. A line is here only while no
         * way holds it, so the list is empty unless a conflict miss
         * lands inside another fill's latency.
         */
        std::vector<std::pair<std::int64_t, Cycle>> evictedInFlight;
    };

    /**
     * access() past its inline MRU merge or hit: merges of evicted or
     * upgrading fills, hits off the MRU way, upgrades and misses. Loads
     * and Stores are already counted.
     */
    MemAccessResult accessSlow(Cluster &cl, ClusterId cluster,
                               std::int64_t line, std::int64_t set,
                               bool is_store, Cycle issue);

    /** Earliest cycle a bus grant is possible at or after @p ready. */
    Cycle acquireBus(Cycle ready);

    /** Cache set of @p line (a mask for a power-of-two set count). */
    std::int64_t setOf(std::int64_t line) const
    {
        return CacheGeom::setOfLine(line, numSets_);
    }

    /** Look up a valid line; returns way index or -1. */
    int findWay(const Cluster &cl, std::int64_t set, std::int64_t line)
        const;

    /**
     * Install @p line MRU in @p set, its fill completing at
     * @p fill_done; returns the evicted way.
     */
    Way installLine(Cluster &cl, std::int64_t set, std::int64_t line,
                    LineState state, Cycle fill_done);

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
    LineMap lineOf_;
    std::int64_t numSets_;   ///< geom_.numSets(); MachineConfig::validate
                             ///< guarantees >= 1
    std::vector<Cluster> clusters_;
    std::vector<Cycle> busFreeAt_;
    std::array<std::int64_t, NumCounters> counts_{};
    /**
     * Bit c set once counter c was bumped by 0 or held a count at a
     * reset(); a nonzero count marks its counter touched by itself.
     */
    std::uint32_t touched_ = 0;
};

inline MemAccessResult
MemorySystem::access(ClusterId cluster, Addr addr, bool is_store,
                     Cycle issue)
{
    Cluster &cl = clusters_[static_cast<std::size_t>(cluster)];
    const std::int64_t line = lineOf_(addr);
    const std::int64_t set = setOf(line);
    bump(is_store ? Stores : Loads);
    // The common cases, when the MRU way holds the line and the access
    // needs no change of ownership: a merge into its fill, still in
    // flight, or a hit once the fill has completed. No other way can
    // hold a pending fill of the line then (only a valid tag's line can
    // miss again, and only after its fill), and an MRU hit needs no LRU
    // touch.
    const Way &mru = cl.ways[wayIndex(set, 0)];
    if (mru.line == line) {
        if (mru.fillDone > issue) {
            if (!is_store || mru.state == LineState::Modified) {
                bump(MshrMerges);
                bump(LocalMisses);
                return {std::max(mru.fillDone, issue + machine_.latCacheHit),
                        0};
            }
        } else if (is_store ? mru.state == LineState::Modified
                            : mru.state != LineState::Invalid) {
            bump(LocalHits);
            return {issue + machine_.latCacheHit, 0};
        }
    }
    return accessSlow(cl, cluster, line, set, is_store, issue);
}

} // namespace mvp::cache

#endif // MVP_CACHE_MEMSYS_HH
