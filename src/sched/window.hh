/**
 * @file
 * The placement kernel shared by the RMCA heuristic (scheduler.cc) and
 * the branch and bound (exact/bnb.cc). Both engines place one op at a
 * time into a partial modulo schedule, and both do it with the same
 * four steps, which live here once:
 *
 *  - Neighbours::snapshot() captures the op's placed in/out neighbours;
 *  - Window::compute() derives, for one cluster, the dependence window
 *    [early, late] and the register transfers the placement needs;
 *  - Window::scan() visits the window's candidate cycles in the swing
 *    direction;
 *  - Window::book() books those transfers earliest-fit on the lowest
 *    free bus.
 *
 * The heuristic stops at the first candidate that fits; the search
 * tries them all. Because the rule is shared, every heuristic run is
 * one path of the search tree.
 */

#ifndef MVP_SCHED_WINDOW_HH
#define MVP_SCHED_WINDOW_HH

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "ddg/ddg.hh"
#include "sched/mrt.hh"
#include "sched/schedule.hh"

namespace mvp::sched
{

/** Upper end of a window that no placed successor bounds. */
constexpr Cycle NO_BOUND = CYCLE_MAX / 4;

/**
 * One placed in-neighbour of the op being placed, with the
 * cluster-independent arithmetic folded in at snapshot time.
 */
struct InNb
{
    OpId src;
    int distance;
    bool isReg;
    ClusterId cluster;  ///< producer's cluster
    Cycle iiDist;       ///< II * distance
    Cycle ready;        ///< producer's time + outLatency
    Cycle baseEarly;    ///< early bound without a bus transfer
};

/** One placed out-neighbour of the op being placed. */
struct OutNb
{
    OpId dst;
    bool isReg;
    ClusterId cluster;  ///< consumer's cluster
    Cycle budget;       ///< consumer's time + II * distance
    Cycle lateNonReg;   ///< budget - edge latency (non-register)
};

/**
 * The placement-independent part of a dependence edge between the op
 * being placed and one neighbour: what Neighbours reads from the edge
 * table. The branch and bound, whose placed set at each depth is fixed,
 * keeps these per depth instead of filtering the edge table per node.
 */
struct NbEdge
{
    OpId op;        ///< the neighbour (producer of an in-edge,
                    ///< consumer of an out-edge)
    int distance;
    Cycle latency;
    bool isReg;
};

/**
 * The placed neighbourhood of the op being placed. Built once per op
 * and read once per candidate cluster, so the cluster sweep never
 * re-walks the edge table.
 */
struct Neighbours
{
    std::vector<InNb> in;
    std::vector<OutNb> out;

    /**
     * Rebuild for @p v from the ops that @p placed marks in @p sched
     * (at sched.ii()). Self-edges constrain nothing a placement can
     * change and are skipped.
     */
    void snapshot(const ddg::Ddg &graph, const ModuloSchedule &sched,
                  const std::vector<char> &placed, OpId v);

    /** @name One edge at a time (what snapshot() does per edge) */
    /// @{
    void clear()
    {
        in.clear();
        out.clear();
    }

    /** Add the in-edge @p e from its placed producer in @p sched. */
    void addIn(const NbEdge &e, const ModuloSchedule &sched)
    {
        const PlacedOp &pu = sched.placed(e.op);
        const Cycle ii_dist = sched.ii() * e.distance;
        const Cycle ready = pu.time + pu.outLatency;
        const Cycle base_early =
            (e.isReg ? ready : pu.time + e.latency) - ii_dist;
        in.push_back({e.op, e.distance, e.isReg, pu.cluster, ii_dist,
                      ready, base_early});
    }

    /** Add the out-edge @p e to its placed consumer in @p sched. */
    void addOut(const NbEdge &e, const ModuloSchedule &sched)
    {
        const PlacedOp &pw = sched.placed(e.op);
        const Cycle budget = pw.time + sched.ii() * e.distance;
        out.push_back(
            {e.op, e.isReg, pw.cluster, budget, budget - e.latency});
    }
    /// @}
};

/** [producer x cluster] start of the committed transfer. */
class CommStarts
{
  public:
    /** Size for @p n_ops x @p n_clusters and mark every entry unset. */
    void reset(std::size_t n_ops, int n_clusters)
    {
        nc_ = static_cast<std::size_t>(n_clusters);
        start_.assign(n_ops * nc_, CYCLE_MAX);
    }

    /** Start of @p u's transfer into @p c; CYCLE_MAX = none. */
    Cycle &operator()(OpId u, ClusterId c)
    {
        return start_[static_cast<std::size_t>(u) * nc_ +
                      static_cast<std::size_t>(c)];
    }
    Cycle operator()(OpId u, ClusterId c) const
    {
        return start_[static_cast<std::size_t>(u) * nc_ +
                      static_cast<std::size_t>(c)];
    }

  private:
    std::vector<Cycle> start_;
    std::size_t nc_ = 0;
};

/** A register transfer booked on a bus by Window::book(). */
struct NewComm
{
    OpId producer;
    ClusterId from;
    ClusterId to;
    Cycle xferStart;
    std::size_t xferSlot;   ///< xferStart mod II, precomputed
    int bus;
};

/** Free the buses of @p comms (the bookings stay listed). */
void releaseTransfers(Mrt &mrt, std::span<const NewComm> comms);

/**
 * The placement window of one op in one cluster, and the transfers a
 * placement there needs.
 */
struct Window
{
    Cycle early = 0;
    Cycle late = NO_BOUND;
    bool hasPred = false;
    bool hasSucc = false;
    ClusterId cluster = 0;
    Cycle outLat = 0;       ///< the op's result latency
    Cycle busLat = 0;       ///< register-bus latency

    /** Producers needing a new transfer: (producer, min distance),
     * ascending producer. */
    std::vector<std::pair<OpId, int>> needIn;
    /** Clusters the op's value must reach: (cluster, tightest budget),
     * ascending cluster. */
    std::vector<std::pair<ClusterId, Cycle>> needOut;

    /**
     * Compute the window of the op whose placed neighbourhood is
     * @p nbs, placed in cluster @p c with result latency @p out_lat.
     * A register read across clusters reuses the committed transfer in
     * @p starts when there is one, and otherwise needs a new one.
     * Returns false when placed neighbours on both sides leave the
     * window empty; a one-sided window is never empty (times may go
     * negative, and the scan follows the constrained side).
     *
     * Known defect (ROADMAP finding 1): `early` starts at 0, not at
     * -NO_BOUND, so when every placed predecessor allows a start below
     * 0 the window still begins at 0. With a placed successor on the
     * other side the window can then come out empty when it is not.
     * Fixing it moves the pinned table1 fingerprint, so it waits for a
     * benchmark change that re-pins it.
     */
    bool compute(const Neighbours &nbs, ClusterId c, Cycle out_lat,
                 Cycle bus_lat, const CommStarts &starts);

    /**
     * Visit the candidate cycles, at most II of them, as
     * `visit(t, mrt.slot(t))`; a true return stops the scan and is
     * returned. With only successors placed the scan runs down from
     * `late`, otherwise up from `early` and never past `late`. With
     * @p anchor an op with no placed neighbour tries `early` alone
     * (modulo schedules are shift-invariant).
     */
    template <class Visit>
    bool scan(const Mrt &mrt, bool anchor, Visit &&visit) const
    {
        const Cycle ii = mrt.ii();
        if (hasSucc && !hasPred) {
            std::size_t s = mrt.slot(late);
            for (Cycle t = late; t > late - ii; --t) {
                if (visit(t, s))
                    return true;
                s = mrt.prevSlot(s);
            }
            return false;
        }
        const Cycle hi = anchor && !hasPred && !hasSucc
                             ? early
                             : std::min(late, early + ii - 1);
        std::size_t s = mrt.slot(early);
        for (Cycle t = early; t <= hi; ++t) {
            if (visit(t, s))
                return true;
            s = mrt.nextSlot(s);
        }
        return false;
    }

    /**
     * Book every transfer of a placement of @p v at @p t onto @p mrt,
     * each at the earliest cycle of its window that has a free bus, on
     * the lowest such bus; inbound transfers first, then outbound.
     * Each booking is appended to @p booked. On failure everything
     * this call booked is released and removed.
     */
    bool book(Mrt &mrt, const ModuloSchedule &sched, OpId v, Cycle t,
              std::vector<NewComm> &booked) const;
};

} // namespace mvp::sched

#endif // MVP_SCHED_WINDOW_HH
