/**
 * @file
 * The result of modulo scheduling: operation placements (cluster +
 * cycle), inter-cluster register communications, and the derived static
 * quantities (II, stage count, MaxLive, NCYCLE_compute).
 */

#ifndef MVP_SCHED_SCHEDULE_HH
#define MVP_SCHED_SCHEDULE_HH

#include <string>
#include <vector>

#include "common/types.hh"
#include "ddg/ddg.hh"
#include "machine/machine.hh"
#include "sched/sentinels.hh"

namespace mvp::sched
{

/** Placement of one operation. */
struct PlacedOp
{
    ClusterId cluster = INVALID_ID;

    /** Flat schedule cycle (stage * II + slot). */
    Cycle time = TIME_UNPLACED;

    /**
     * Effective result latency the schedule guarantees: the hit latency
     * normally, the miss latency when the RMCA threshold promoted the
     * load (binding prefetching).
     */
    Cycle outLatency = 0;

    /** True when outLatency is the cache-miss latency. */
    bool missScheduled = false;
};

/**
 * One inter-cluster register communication: the producer's value is put
 * on a register bus at xferStart (occupying it for the full bus latency)
 * and latched by the destination cluster's IRV at xferStart + latency.
 */
struct Comm
{
    OpId producer = INVALID_ID;
    ClusterId from = INVALID_ID;
    ClusterId to = INVALID_ID;

    /** Flat cycle (relative to the producer's iteration) of the OUT BUS. */
    Cycle xferStart = TIME_UNPLACED;

    /** Bus index, or BUS_UNBOUNDED when the machine has unbounded buses. */
    int bus = BUS_UNBOUNDED;
};

/**
 * A complete modulo schedule for one loop.
 */
class ModuloSchedule
{
  public:
    ModuloSchedule() = default;
    ModuloSchedule(Cycle ii, std::size_t n_ops, int n_clusters);

    /**
     * Re-initialise for a fresh II attempt, reusing the placement and
     * communication buffers (the scheduler resets one schedule across
     * II bumps instead of reallocating).
     */
    void reset(Cycle ii, std::size_t n_ops, int n_clusters);

    /** Initiation interval. */
    Cycle ii() const { return ii_; }

    /** Number of overlapped iterations (prologue/epilogue length). */
    int stageCount() const;

    /** Placement of @p op. */
    const PlacedOp &placed(OpId op) const;

    /** Mutable placement (used by the scheduler). */
    PlacedOp &placed(OpId op);

    /** All placements, indexed by OpId. */
    const std::vector<PlacedOp> &placements() const { return placed_; }

    /** Modulo slot of @p op (time mod II). */
    Cycle slot(OpId op) const { return placed(op).time % ii_; }

    /** Stage of @p op (time div II). */
    int stage(OpId op) const
    {
        return static_cast<int>(placed(op).time / ii_);
    }

    /** All register communications. */
    const std::vector<Comm> &comms() const { return comms_; }

    /** Mutable communication list (used by the scheduler). */
    std::vector<Comm> &comms() { return comms_; }

    /** Communications per kernel iteration (== comms().size()). */
    std::size_t numComms() const { return comms_.size(); }

    /** Number of clusters the schedule targets. */
    int numClusters() const { return n_clusters_; }

    /** MaxLive per cluster (filled by computeLifetimes()). */
    const std::vector<int> &maxLive() const { return max_live_; }

    /** Set the MaxLive vector. */
    void setMaxLive(std::vector<int> ml) { max_live_ = std::move(ml); }

    /**
     * Shift every op time and transfer start up by the fewest whole
     * stages that make every op time non-negative. Placement may go
     * below cycle 0; a modulo schedule is shift-invariant by multiples
     * of II, so the shift keeps every slot. Every op must be placed.
     */
    void normalize();

    /** Loads scheduled with the miss latency. */
    int missScheduledLoads() const;

    /**
     * NCYCLE_compute for one execution of the loop with @p n_iter
     * iterations: (NITER + SC - 1) * II  (§2.2).
     */
    Cycle computeCycles(std::int64_t n_iter) const;

    /**
     * Verify every static constraint against the DDG and machine:
     * dependences (with bus latency on cross-cluster register edges),
     * FU capacity per modulo slot, bus capacity and occupancy, one
     * communication per (value, destination cluster), and register
     * pressure. Returns an empty string when legal, else a diagnostic.
     */
    std::string validate(const ddg::Ddg &graph,
                         const MachineConfig &machine) const;

    /**
     * Render the modulo reservation table like Figure 3 of the paper:
     * one row per slot, one column per (cluster, FU) plus the buses,
     * entries "name(stage)".
     */
    std::string toString(const ddg::Ddg &graph,
                         const MachineConfig &machine) const;

  private:
    Cycle ii_ = 0;
    int n_clusters_ = 0;
    std::vector<PlacedOp> placed_;
    std::vector<Comm> comms_;
    std::vector<int> max_live_;
};

} // namespace mvp::sched

#endif // MVP_SCHED_SCHEDULE_HH
