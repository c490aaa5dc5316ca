#include "cache/memsys.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace mvp::cache
{

namespace
{

/** StatGroup names of the counters, indexed by MemorySystem::Counter. */
constexpr const char *COUNTER_NAMES[] = {
    "loads",
    "stores",
    "local_hits",
    "local_misses",
    "mshr_merges",
    "mshr_full_stall_cycles",
    "upgrades",
    "remote_hits",
    "dirty_supplies",
    "memory_fills",
    "writebacks",
    "invalidations",
    "bus_wait_cycles",
    "bus_transactions",
};

} // namespace

MemorySystem::MemorySystem(const MachineConfig &machine)
    : machine_(machine), geom_(machine.clusterCacheGeom()),
      lineOf_(geom_.lineBytes), numSets_(geom_.numSets())
{
    static_assert(std::size(COUNTER_NAMES) == NumCounters &&
                  NumCounters <= 32);
    mvp_assert(geom_.lineBytes >= 1 && geom_.assoc >= 1 && numSets_ >= 1,
               "degenerate cache geometry (MachineConfig::validate "
               "rejects it)");
    clusters_.resize(static_cast<std::size_t>(machine.nClusters));
    for (auto &cl : clusters_) {
        cl.ways.assign(static_cast<std::size_t>(numSets_) *
                           static_cast<std::size_t>(geom_.assoc),
                       Way{});
        cl.mshrBusyUntil.assign(
            static_cast<std::size_t>(machine.mshrEntries), 0);
    }
    if (!machine.unboundedMemBuses)
        busFreeAt_.assign(static_cast<std::size_t>(machine.nMemBuses), 0);
}

void
MemorySystem::reset()
{
    for (auto &cl : clusters_) {
        std::fill(cl.ways.begin(), cl.ways.end(), Way{});
        std::fill(cl.mshrBusyUntil.begin(), cl.mshrBusyUntil.end(), 0);
        cl.evictedInFlight.clear();
    }
    std::fill(busFreeAt_.begin(), busFreeAt_.end(), 0);
    touched_ = touchedMask();   // touched counters keep their names,
    counts_.fill(0);            // like StatGroup
}

std::uint32_t
MemorySystem::touchedMask() const
{
    std::uint32_t mask = touched_;
    for (unsigned c = 0; c < NumCounters; ++c)
        if (counts_[c] != 0)
            mask |= 1u << c;
    return mask;
}

StatGroup
MemorySystem::stats() const
{
    const std::uint32_t touched = touchedMask();
    StatGroup group;
    group.reserve(static_cast<std::size_t>(std::popcount(touched)));
    for (unsigned c = 0; c < NumCounters; ++c)
        if (touched & (1u << c))
            group.set(COUNTER_NAMES[c], counts_[c]);
    return group;
}

Cycle
MemorySystem::acquireBus(Cycle ready)
{
    if (machine_.unboundedMemBuses)
        return ready;
    // Grant the bus that frees earliest; occupy it for the bus latency.
    std::size_t best = 0;
    for (std::size_t b = 1; b < busFreeAt_.size(); ++b)
        if (busFreeAt_[b] < busFreeAt_[best])
            best = b;
    const Cycle grant = std::max(ready, busFreeAt_[best]);
    busFreeAt_[best] = grant + machine_.memBusLatency;
    bumpMaybeZero(BusWaitCycles, grant - ready);
    bump(BusTransactions);
    return grant;
}

int
MemorySystem::findWay(const Cluster &cl, std::int64_t set,
                      std::int64_t line) const
{
    const Way *ways = &cl.ways[wayIndex(set, 0)];
    for (int w = 0; w < geom_.assoc; ++w)
        if (ways[w].line == line && ways[w].state != LineState::Invalid)
            return w;
    return -1;
}

MemorySystem::Way
MemorySystem::installLine(Cluster &cl, std::int64_t set, std::int64_t line,
                          LineState state, Cycle fill_done)
{
    Way *ways = &cl.ways[wayIndex(set, 0)];
    const Way victim = ways[geom_.assoc - 1];
    std::copy_backward(ways, ways + geom_.assoc - 1, ways + geom_.assoc);
    ways[0] = Way{line, fill_done, state};
    return victim;
}

void
MemorySystem::invalidateRemote(std::int64_t line, ClusterId except)
{
    const std::int64_t set = setOf(line);
    for (std::size_t c = 0; c < clusters_.size(); ++c) {
        if (static_cast<ClusterId>(c) == except)
            continue;
        const int w = findWay(clusters_[c], set, line);
        if (w >= 0) {
            clusters_[c].ways[wayIndex(set, w)].state = LineState::Invalid;
            bump(Invalidations);
        }
    }
}

LineState
MemorySystem::probe(ClusterId cluster, Addr addr) const
{
    const auto &cl = clusters_[static_cast<std::size_t>(cluster)];
    const std::int64_t line = lineOf_(addr);
    const std::int64_t set = setOf(line);
    const int w = findWay(cl, set, line);
    return w < 0 ? LineState::Invalid : cl.ways[wayIndex(set, w)].state;
}

MemAccessResult
MemorySystem::accessSlow(Cluster &cl, ClusterId cluster, std::int64_t line,
                         std::int64_t set, bool is_store, Cycle issue)
{
    Way *ways = &cl.ways[wayIndex(set, 0)];
    MemAccessResult res;

    // One scan of the set finds a fill of this line still in flight and
    // a valid tag. A pending fill wins: the tag was installed eagerly
    // when the fill was initiated, so the tag alone would mis-report an
    // instant hit. A fill evicted before it completed is looked up on
    // the side.
    Cycle fill = 0;
    int way = -1;
    for (int w = 0; w < geom_.assoc; ++w) {
        if (ways[w].line != line)
            continue;
        if (ways[w].fillDone > issue) {
            fill = ways[w].fillDone;
            break;
        }
        if (ways[w].state != LineState::Invalid)
            way = w;
    }
    if (way < 0 && fill == 0)
        for (const auto &[evicted, done] : cl.evictedInFlight)
            if (evicted == line && done > issue)
                fill = done;

    if (fill != 0) {
        bump(MshrMerges);
        bump(LocalMisses);
        res.completion = std::max(fill, issue + machine_.latCacheHit);
        if (is_store) {
            const int w = findWay(cl, set, line);
            if (w < 0 || ways[w].state != LineState::Modified) {
                // Ownership needs an upgrade once the data arrives.
                const Cycle grant = acquireBus(res.completion);
                invalidateRemote(line, cluster);
                if (w >= 0)
                    ways[w].state = LineState::Modified;
                res.completion = grant + machine_.memBusLatency;
                bump(Upgrades);
            }
        }
        return res;
    }

    if (way >= 0) {
        // Touch for LRU (a direct-mapped hit is always way 0).
        if (way > 0) {
            const Way touched = ways[way];
            std::copy_backward(ways, ways + way, ways + way + 1);
            ways[0] = touched;
        }
        Way &mru = ways[0];

        if (!is_store || mru.state == LineState::Modified) {
            // Plain hit.
            if (is_store)
                mru.state = LineState::Modified;
            res.completion = issue + machine_.latCacheHit;
            bump(LocalHits);
            return res;
        }
        // Store to a Shared line: upgrade (invalidation) transaction.
        const Cycle grant = acquireBus(issue + machine_.latCacheHit);
        invalidateRemote(line, cluster);
        mru.state = LineState::Modified;
        res.completion = grant + machine_.memBusLatency;
        bump(Upgrades);
        return res;
    }

    // --- Local miss. ---
    bump(LocalMisses);

    // Allocate an MSHR entry; a full MSHR stalls the machine at issue.
    auto mshr = std::min_element(cl.mshrBusyUntil.begin(),
                                 cl.mshrBusyUntil.end());
    Cycle alloc = issue;
    if (*mshr > issue) {
        res.issueStall = *mshr - issue;
        alloc = *mshr;
        bump(MshrFullStallCycles, res.issueStall);
    }

    // The local tag check discovered the miss; then arbitrate for a bus.
    const Cycle ready = alloc + machine_.latCacheHit;
    const Cycle grant = acquireBus(ready);

    // Snoop the other clusters at grant time. The first holder found
    // supplies the line; every holder downgrades (load) or is
    // invalidated (store).
    bool remote_has = false;
    bool remote_dirty = false;
    for (std::size_t c = 0; c < clusters_.size(); ++c) {
        if (static_cast<ClusterId>(c) == cluster)
            continue;
        const int w = findWay(clusters_[c], set, line);
        if (w < 0)
            continue;
        Way &held = clusters_[c].ways[wayIndex(set, w)];
        if (!remote_has) {
            remote_has = true;
            remote_dirty = held.state == LineState::Modified;
        }
        if (is_store) {
            held.state = LineState::Invalid;
            bump(Invalidations);
        } else {
            held.state = LineState::Shared;
        }
    }

    Cycle fill_done;
    if (remote_has) {
        // Cache-to-cache transfer: the bus transaction plus the remote
        // cache's access time.
        fill_done = grant + machine_.memBusLatency + machine_.latCacheHit;
        bump(RemoteHits);
        if (remote_dirty)
            bump(DirtySupplies);
    } else {
        fill_done = grant + machine_.memBusLatency + machine_.latMainMemory;
        bump(MemoryFills);
    }

    // Install the line, write back a dirty victim (write buffer: the
    // writeback occupies a bus but does not delay this fill).
    const Way victim =
        installLine(cl, set, line,
                    is_store ? LineState::Modified : LineState::Shared,
                    fill_done);
    if (victim.state == LineState::Modified) {
        acquireBus(fill_done);
        bump(Writebacks);
    }
    if (victim.fillDone > issue) {
        // The victim's fill is still on its way: later accesses merge
        // into it. Entries that completed by now can never merge again
        // (issue cycles never decrease), so drop them here.
        std::erase_if(cl.evictedInFlight, [issue](const auto &entry) {
            return entry.second <= issue;
        });
        cl.evictedInFlight.emplace_back(victim.line, victim.fillDone);
    }

    *mshr = fill_done;
    res.completion = fill_done;
    return res;
}

} // namespace mvp::cache
