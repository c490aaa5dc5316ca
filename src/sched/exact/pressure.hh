/**
 * @file
 * Incremental register-pressure tracking for the exact search.
 *
 * lifetimes.cc recomputes every value interval and the per-slot live
 * counts from scratch — fine once per heuristic schedule, ruinous once
 * per branch-and-bound leaf. The tracker maintains the same quantities
 * incrementally along the DFS path: every placement adds or extends a
 * few intervals (journalled for exact undo on backtrack), and the
 * per-cluster MaxLive plus its sum are available in O(1) at every
 * node.
 *
 * That turns register pressure from a leaf-only check into a search
 * bound, which is where the engine's throughput comes from:
 *
 *  - intervals only ever grow along a path (a future placement can
 *    extend a lifetime, never shrink it), so the current per-cluster
 *    MaxLive is a lower bound on any leaf below — a cluster already
 *    past its register file prunes the whole subtree, in both the
 *    feasibility and the tiebreak phase;
 *  - once a schedule is known, a partial whose summed MaxLive already
 *    reaches the incumbent cannot lead to a strictly better tiebreak
 *    leaf, so it is pruned without changing which schedule wins (leaf
 *    acceptance requires a strict improvement);
 *  - leaves read their MaxLive from the tracker instead of running
 *    computeLifetimes (a debug assert cross-checks the two).
 *
 * Interval semantics mirror lifetimes.cc exactly: a producing op owns
 * one local interval from its write (time + outLatency) to the last
 * same-cluster read / outgoing transfer start, plus one remote
 * interval per booked transfer from the bus arrival to the last read
 * in the destination cluster. live(c, s) counts, per modulo slot, the
 * overlapping interval instances across iterations.
 */

#ifndef MVP_SCHED_EXACT_PRESSURE_HH
#define MVP_SCHED_EXACT_PRESSURE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "sched/mrt.hh"

namespace mvp::sched::exact
{

/** Journalled per-slot live counts with O(1) MaxLive queries. */
class PressureTracker
{
  public:
    /** Start a fresh II attempt: no intervals, all counts zero. */
    void reset(Cycle ii, int n_clusters, std::size_t n_ops,
               int reg_limit)
    {
        ii_ = ii;
        slot_of_ = SlotMap(ii);
        nc_ = n_clusters;
        limit_ = reg_limit;
        live_.assign(static_cast<std::size_t>(nc_) *
                         static_cast<std::size_t>(ii_),
                     0);
        max_.assign(static_cast<std::size_t>(nc_), 0);
        map_.assign(n_ops * (static_cast<std::size_t>(nc_) + 1), -1);
        ivs_.clear();
        journal_.clear();
        sum_max_ = 0;
        over_ = 0;
    }

    /** @name Mutations (journalled; undo with undoTo) */
    /// @{
    /** New local interval of @p v in @p c starting (and ending) at
     * @p start. */
    void addLocal(OpId v, ClusterId c, Cycle start)
    {
        addIv(localSlot(v), c, start);
    }

    /** New remote interval of @p v in @p to starting at @p arrival. */
    void addRemote(OpId v, ClusterId to, Cycle arrival)
    {
        addIv(remoteSlot(v, to), to, arrival);
    }

    /** Extend @p v's local interval to at least @p end. */
    void extendLocal(OpId v, Cycle end)
    {
        extendIv(map_[localSlot(v)], end);
    }

    /** Extend @p v's remote interval in @p to to at least @p end. */
    void extendRemote(OpId v, ClusterId to, Cycle end)
    {
        extendIv(map_[remoteSlot(v, to)], end);
    }

    /** Roll every mutation after @p m back, newest first. */
    void undoTo(std::size_t m)
    {
        while (journal_.size() > m) {
            const Entry e = journal_.back();
            journal_.pop_back();
            Interval &iv = ivs_[static_cast<std::size_t>(e.iv)];
            if (e.map_slot >= 0) {
                // Undo add: one count at the start slot (its extensions
                // are undone, so it ends there too), drop the interval
                // (adds/removes are LIFO by construction).
                --live_[row(iv.cluster) + iv.toSlot];
                map_[static_cast<std::size_t>(e.map_slot)] = -1;
                mvp_assert(static_cast<std::size_t>(e.iv) + 1 ==
                               ivs_.size(),
                           "pressure journal out of order");
                ivs_.pop_back();
            } else {
                dropRange(iv, e.old_to);
            }
            restoreMax(e.cluster, e.old_max);
        }
    }
    /// @}

    /** Journal position, for undoTo. */
    std::size_t mark() const { return journal_.size(); }

    /** All per-cluster MaxLive values. */
    const std::vector<int> &clusterMaxes() const { return max_; }

    /** Summed MaxLive over clusters (the tiebreak pressure bound). */
    Cycle sumMax() const { return sum_max_; }

    /** True when some cluster's MaxLive exceeds the register file. */
    bool overflown() const { return over_ > 0; }

  private:
    struct Interval
    {
        ClusterId cluster;
        std::uint32_t toSlot;   ///< to mod II, kept to step from
        Cycle to;
    };

    struct Entry
    {
        std::int32_t iv;         ///< interval index
        std::int32_t map_slot;   ///< >= 0: add (slot to clear); -1: extend
        std::int32_t cluster;
        std::int32_t old_max;    ///< cluster MaxLive before the mutation
        Cycle old_to;            ///< extend: previous interval end
    };

    std::size_t localSlot(OpId v) const
    {
        return static_cast<std::size_t>(v) *
                   (static_cast<std::size_t>(nc_) + 1) +
               static_cast<std::size_t>(nc_);
    }

    std::size_t remoteSlot(OpId v, ClusterId c) const
    {
        return static_cast<std::size_t>(v) *
                   (static_cast<std::size_t>(nc_) + 1) +
               static_cast<std::size_t>(c);
    }

    std::size_t row(ClusterId c) const
    {
        return static_cast<std::size_t>(c) *
               static_cast<std::size_t>(ii_);
    }

    void setMax(ClusterId c, int val)
    {
        int &m = max_[static_cast<std::size_t>(c)];
        if (m <= limit_ && val > limit_)
            ++over_;
        sum_max_ += val - m;
        m = val;
    }

    void restoreMax(ClusterId c, int old_max)
    {
        int &m = max_[static_cast<std::size_t>(c)];
        if (m > limit_ && old_max <= limit_)
            --over_;
        sum_max_ += old_max - m;
        m = old_max;
    }

    void addIv(std::size_t map_slot, ClusterId c, Cycle from)
    {
        mvp_assert(map_[map_slot] < 0, "duplicate pressure interval");
        const auto iv = static_cast<std::int32_t>(ivs_.size());
        const std::size_t slot = slot_of_(from);
        ivs_.push_back({c, static_cast<std::uint32_t>(slot), from});
        map_[map_slot] = iv;
        journal_.push_back({iv, static_cast<std::int32_t>(map_slot), c,
                            max_[static_cast<std::size_t>(c)], 0});
        int &cell = live_[row(c) + slot];
        if (++cell > max_[static_cast<std::size_t>(c)])
            setMax(c, cell);
    }

    void extendIv(std::int32_t iv_idx, Cycle end)
    {
        mvp_assert(iv_idx >= 0, "extending a missing interval");
        Interval &iv = ivs_[static_cast<std::size_t>(iv_idx)];
        if (end <= iv.to)
            return;
        journal_.push_back({iv_idx, -1, iv.cluster,
                            max_[static_cast<std::size_t>(iv.cluster)],
                            iv.to});
        addRange(iv, end);
    }

    /**
     * Extend @p iv to @p end, adding one to live(c, s) for every cycle
     * in (iv.to, end] and keeping the cluster max: a span of b full II
     * periods touches every slot b times (closed form), the remainder
     * walks slot by slot on from iv.toSlot. Counts never pass the max
     * unseen, because along a committed path they only grow.
     */
    void addRange(Interval &iv, Cycle end)
    {
        const ClusterId c = iv.cluster;
        int *r = live_.data() + row(c);
        int new_max = max_[static_cast<std::size_t>(c)];
        Cycle span = end - iv.to;
        if (span >= ii_) {
            const auto base = static_cast<int>(span / ii_);
            for (Cycle s = 0; s < ii_; ++s)
                r[static_cast<std::size_t>(s)] += base;
            new_max += base;
            span -= static_cast<Cycle>(base) * ii_;
        }
        std::size_t s = iv.toSlot;
        for (; span > 0; --span) {
            s = nextSlot(s);
            new_max = std::max(new_max, ++r[s]);
        }
        iv.toSlot = static_cast<std::uint32_t>(s);
        iv.to = end;
        if (new_max > max_[static_cast<std::size_t>(c)])
            setMax(c, new_max);
    }

    /** Undo addRange: shrink @p iv back to @p old_to, walking down
     * from iv.toSlot. The caller restores the journalled max. */
    void dropRange(Interval &iv, Cycle old_to)
    {
        int *r = live_.data() + row(iv.cluster);
        Cycle span = iv.to - old_to;
        if (span >= ii_) {
            const auto base = static_cast<int>(span / ii_);
            for (Cycle s = 0; s < ii_; ++s)
                r[static_cast<std::size_t>(s)] -= base;
            span -= static_cast<Cycle>(base) * ii_;
        }
        std::size_t s = iv.toSlot;
        for (; span > 0; --span) {
            --r[s];
            s = s == 0 ? static_cast<std::size_t>(ii_) - 1 : s - 1;
        }
        iv.toSlot = static_cast<std::uint32_t>(s);
        iv.to = old_to;
    }

    std::size_t nextSlot(std::size_t s) const
    {
        return s + 1 == static_cast<std::size_t>(ii_) ? 0 : s + 1;
    }

    Cycle ii_ = 1;
    SlotMap slot_of_;
    int nc_ = 0;
    int limit_ = 0;
    std::vector<int> live_;           ///< [cluster][slot] live counts
    std::vector<int> max_;            ///< per-cluster MaxLive
    std::vector<std::int32_t> map_;   ///< (op, cluster|local) -> interval
    std::vector<Interval> ivs_;
    std::vector<Entry> journal_;
    Cycle sum_max_ = 0;
    int over_ = 0;   ///< clusters currently past the register file
};

} // namespace mvp::sched::exact

#endif // MVP_SCHED_EXACT_PRESSURE_HH
