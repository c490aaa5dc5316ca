/**
 * @file
 * Modulo reservation table: tracks functional-unit slots per cluster and
 * register-bus occupancy at each of the II modulo slots. Buses are
 * ordinary resources (§2.1): a transfer holds its bus for the entire bus
 * latency.
 */

#ifndef MVP_SCHED_MRT_HH
#define MVP_SCHED_MRT_HH

#include <vector>

#include "common/types.hh"
#include "ir/opcode.hh"
#include "machine/machine.hh"
#include "sched/sentinels.hh"

namespace mvp::sched
{

/**
 * Reservation table for one II attempt.
 */
class Mrt
{
  public:
    Mrt(const MachineConfig &machine, Cycle ii);

    /** Empty the table for a new II attempt, reusing its buffers. */
    void reset(Cycle ii);

    /** The II this table was built for. */
    Cycle ii() const { return ii_; }

    /**
     * @name Division-free slot arithmetic
     * The placement loop scans windows of consecutive cycles; converting
     * each cycle with the modulo (an integer division) dominates the
     * query cost. Callers convert the first cycle once with slot() and
     * step with nextSlot()/prevSlot().
     */
    /// @{
    std::size_t slot(Cycle time) const
    {
        Cycle m = time % ii_;
        if (m < 0)
            m += ii_;
        return static_cast<std::size_t>(m);
    }
    std::size_t nextSlot(std::size_t s) const
    {
        return s + 1 == static_cast<std::size_t>(ii_) ? 0 : s + 1;
    }
    std::size_t prevSlot(std::size_t s) const
    {
        return s == 0 ? static_cast<std::size_t>(ii_) - 1 : s - 1;
    }

    /** True when a @p type slot is free at modulo slot @p slot. */
    bool fuFreeAt(std::size_t slot, ClusterId cluster,
                  ir::FuType type) const
    {
        return fu_used_[fuIndexAt(slot, cluster, type)] <
               machine_.fusPerCluster(type);
    }

    /**
     * Find a register bus free for the whole window of a transfer
     * starting at modulo slot @p slot (busLatency consecutive slots).
     * Returns the lowest free bus index, BUS_UNBOUNDED for
     * unbounded-bus machines, or BUS_NONE when no bus is free
     * (including the structural case busLatency > II, where a
     * transfer would overlap its own next instance).
     */
    int findFreeBusAt(std::size_t slot) const;

    /** Reserve @p bus for a transfer starting at modulo slot @p slot. */
    void reserveBusAt(int bus, std::size_t slot);

    /** Release @p bus for a transfer starting at modulo slot @p slot. */
    void releaseBusAt(int bus, std::size_t slot);
    /// @}

    /** Reserve a @p type slot (must be free). */
    void placeFu(Cycle time, ClusterId cluster, ir::FuType type);

    /** Release a @p type slot (must be occupied). */
    void removeFu(Cycle time, ClusterId cluster, ir::FuType type);

    /** Number of @p type ops currently placed in @p cluster. */
    int fuLoad(ClusterId cluster, ir::FuType type) const;

    /** Total bus-slot occupancy (for stats). */
    int busSlotsUsed() const;

  private:
    std::size_t fuIndex(Cycle time, ClusterId cluster,
                        ir::FuType type) const;

    std::size_t fuIndexAt(std::size_t slot, ClusterId cluster,
                          ir::FuType type) const
    {
        return (slot * static_cast<std::size_t>(machine_.nClusters) +
                static_cast<std::size_t>(cluster)) *
                   ir::NUM_FU_TYPES +
               static_cast<std::size_t>(type);
    }

    const MachineConfig &machine_;
    Cycle ii_;
    std::vector<int> fu_used_;       ///< [slot][cluster][type] counts
    std::vector<int> fu_load_;       ///< [cluster][type] totals

    /**
     * Bus occupancy as bitmasks: bus_mask_[slot * words_ + w] holds bit
     * b set iff bus w*64+b is busy at that modulo slot. findFreeBusAt ORs
     * the window's masks and takes the lowest clear bit, replacing the
     * per-bus-per-cycle rescan with one pass over the window.
     */
    std::vector<std::uint64_t> bus_mask_;
    std::size_t words_ = 0;          ///< 64-bit words per slot
};

} // namespace mvp::sched

#endif // MVP_SCHED_MRT_HH
