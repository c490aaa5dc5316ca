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
      numSets_(geom_.numSets())
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
        cl.inflight.clear();
    }
    std::fill(busFreeAt_.begin(), busFreeAt_.end(), 0);
    counts_.fill(0);   // touched counters keep their names, like StatGroup
}

StatGroup
MemorySystem::stats() const
{
    StatGroup group;
    group.reserve(static_cast<std::size_t>(std::popcount(touched_)));
    for (unsigned c = 0; c < NumCounters; ++c)
        if (touched_ & (1u << c))
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
    bump(BusWaitCycles, grant - ready);
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
                          LineState state)
{
    Way *ways = &cl.ways[wayIndex(set, 0)];
    const Way victim = ways[geom_.assoc - 1];
    std::copy_backward(ways, ways + geom_.assoc - 1, ways + geom_.assoc);
    ways[0] = Way{line, state};
    return victim;
}

void
MemorySystem::invalidateRemote(std::int64_t line, ClusterId except)
{
    const std::int64_t set = line % numSets_;
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
    const std::int64_t line = geom_.lineOf(addr);
    const std::int64_t set = line % numSets_;
    const int w = findWay(cl, set, line);
    return w < 0 ? LineState::Invalid : cl.ways[wayIndex(set, w)].state;
}

MemAccessResult
MemorySystem::access(ClusterId cluster, Addr addr, bool is_store,
                     Cycle issue)
{
    auto &cl = clusters_[static_cast<std::size_t>(cluster)];
    const std::int64_t line = geom_.lineOf(addr);
    const std::int64_t set = line % numSets_;
    MemAccessResult res;
    bump(is_store ? Stores : Loads);

    // A fill for this line still in flight? Merge before probing tags
    // (the tag was installed eagerly when the fill was initiated, so the
    // probe alone would mis-report an instant hit).
    const auto fill = std::find_if(
        cl.inflight.begin(), cl.inflight.end(),
        [line](const auto &entry) { return entry.first == line; });
    if (fill != cl.inflight.end()) {
        if (fill->second > issue) {
            res.mergedInFlight = true;
            bump(MshrMerges);
            bump(LocalMisses);
            res.completion =
                std::max(fill->second, issue + machine_.latCacheHit);
            if (is_store) {
                const int w = findWay(cl, set, line);
                const bool shared =
                    w < 0 || cl.ways[wayIndex(set, w)].state !=
                                 LineState::Modified;
                if (shared) {
                    // Ownership needs an upgrade once the data arrives.
                    const Cycle grant = acquireBus(res.completion);
                    invalidateRemote(line, cluster);
                    if (w >= 0)
                        cl.ways[wayIndex(set, w)].state =
                            LineState::Modified;
                    res.completion = grant + machine_.memBusLatency;
                    bump(Upgrades);
                }
            }
            return res;
        }
        *fill = cl.inflight.back();
        cl.inflight.pop_back();
    }

    const int way = findWay(cl, set, line);
    if (way >= 0) {
        // Touch for LRU.
        Way *ways = &cl.ways[wayIndex(set, 0)];
        const Way touched = ways[way];
        std::copy_backward(ways, ways + way, ways + way + 1);
        ways[0] = touched;
        Way &mru = ways[0];

        if (!is_store || touched.state == LineState::Modified) {
            // Plain hit.
            if (is_store)
                mru.state = LineState::Modified;
            res.localHit = true;
            res.completion = issue + machine_.latCacheHit;
            bump(LocalHits);
            return res;
        }
        // Store to a Shared line: upgrade (invalidation) transaction.
        const Cycle grant = acquireBus(issue + machine_.latCacheHit);
        invalidateRemote(line, cluster);
        mru.state = LineState::Modified;
        res.localHit = true;
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

    // Snoop the other clusters at grant time.
    bool remote_dirty = false;
    bool remote_has = false;
    for (std::size_t c = 0; c < clusters_.size() && !remote_has; ++c) {
        if (static_cast<ClusterId>(c) == cluster)
            continue;
        const int w = findWay(clusters_[c], set, line);
        if (w >= 0) {
            remote_has = true;
            remote_dirty = clusters_[c].ways[wayIndex(set, w)].state ==
                           LineState::Modified;
        }
    }

    Cycle fill_done;
    if (remote_has) {
        // Cache-to-cache transfer: the bus transaction plus the remote
        // cache's access time.
        fill_done = grant + machine_.memBusLatency + machine_.latCacheHit;
        res.remoteHit = true;
        bump(RemoteHits);
        if (remote_dirty)
            bump(DirtySupplies);
        // Supplier downgrades (load) or invalidates (store below).
        for (std::size_t c = 0; c < clusters_.size(); ++c) {
            if (static_cast<ClusterId>(c) == cluster)
                continue;
            const int w = findWay(clusters_[c], set, line);
            if (w >= 0)
                clusters_[c].ways[wayIndex(set, w)].state =
                    LineState::Shared;
        }
    } else {
        fill_done = grant + machine_.memBusLatency + machine_.latMainMemory;
        bump(MemoryFills);
    }

    if (is_store)
        invalidateRemote(line, cluster);

    // Install the line, write back a dirty victim (write buffer: the
    // writeback occupies a bus but does not delay this fill).
    const Way victim = installLine(
        cl, set, line, is_store ? LineState::Modified : LineState::Shared);
    if (victim.state == LineState::Modified) {
        acquireBus(fill_done);
        bump(Writebacks);
    }

    *mshr = fill_done;
    // The line has no in-flight entry here: a pending one merged above,
    // a completed one was dropped.
    cl.inflight.emplace_back(line, fill_done);
    // Retire completed in-flight markers lazily (keeps the table tiny;
    // stale entries are also dropped on lookup).
    std::erase_if(cl.inflight,
                  [issue](const auto &entry) { return entry.second < issue; });

    res.completion = fill_done;
    return res;
}

} // namespace mvp::cache
