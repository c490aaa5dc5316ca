/**
 * @file
 * Modulo reservation table: tracks functional-unit slots per cluster and
 * register-bus occupancy at each of the II modulo slots. Buses are
 * ordinary resources (§2.1): a transfer holds its bus for the entire bus
 * latency.
 */

#ifndef MVP_SCHED_MRT_HH
#define MVP_SCHED_MRT_HH

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "ir/opcode.hh"
#include "machine/machine.hh"
#include "sched/sentinels.hh"

namespace mvp::sched
{

/**
 * Cycle -> modulo slot (t mod II, floored) for one II. A cycle in
 * [0, 2^32) takes a multiply instead of a division: Lemire, Kaser and
 * Kurz, "Faster remainder by direct computation" (2019), exact for
 * every 32-bit cycle and II. Other cycles take the division.
 */
class SlotMap
{
  public:
    explicit SlotMap(Cycle ii = 1)
        : ii_(ii), inv_(~0ULL / static_cast<std::uint64_t>(ii) + 1)
    {
        mvp_assert(ii >= 1 && ii <= 0xffffffffLL, "II out of range");
    }

    std::size_t operator()(Cycle t) const
    {
        if (static_cast<std::uint64_t>(t) <= 0xffffffffULL) {
            const std::uint64_t low = inv_ * static_cast<std::uint64_t>(t);
            return static_cast<std::size_t>(
                (static_cast<unsigned __int128>(low) *
                 static_cast<std::uint64_t>(ii_)) >>
                64);
        }
        const Cycle m = t % ii_;
        return static_cast<std::size_t>(m < 0 ? m + ii_ : m);
    }

  private:
    Cycle ii_;
    std::uint64_t inv_;   ///< 2^64 / II, rounded up
};

/**
 * Reservation table for one II attempt.
 */
class Mrt
{
  public:
    Mrt(const MachineConfig &machine, Cycle ii);

    /** An unbound table; reset(machine, ii) binds it before use. */
    Mrt() = default;

    /** Empty the table for a new II attempt, reusing its buffers. */
    void reset(Cycle ii);

    /** Bind to @p machine, then reset(ii): a table kept in a context
     * serves one machine per search and keeps its capacity. */
    void reset(const MachineConfig &machine, Cycle ii);

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
    std::size_t slot(Cycle time) const { return slot_of_(time); }
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
               fus_[static_cast<std::size_t>(type)];
    }

    /**
     * Find a register bus free for the whole window of a transfer
     * starting at modulo slot @p slot (busLatency consecutive slots).
     * Returns the lowest free bus index, BUS_UNBOUNDED for
     * unbounded-bus machines, or BUS_NONE when no bus is free
     * (including the structural case busLatency > II, where a
     * transfer would overlap its own next instance).
     */
    int findFreeBusAt(std::size_t slot) const
    {
        if (words_ != 1 || bus_lat_ > ii_)
            return findFreeBusWide(slot);
        // At most 64 buses: one occupancy word per slot.
        std::uint64_t occupied = 0;
        for (Cycle k = 0; k < bus_lat_; ++k) {
            occupied |= bus_mask_[slot];
            slot = nextSlot(slot);
        }
        const std::uint64_t free = ~occupied & valid_;
        return free != 0 ? std::countr_zero(free) : BUS_NONE;
    }

    /** Reserve @p bus for a transfer starting at modulo slot @p slot. */
    void reserveBusAt(int bus, std::size_t slot)
    {
        if (bus == BUS_UNBOUNDED)
            return;
        mvp_assert(bus >= 0 && bus < machine_->nRegBuses, "bad bus index");
        const std::size_t w = static_cast<std::size_t>(bus) / 64;
        const std::uint64_t bit = 1ULL << (static_cast<std::size_t>(bus) % 64);
        for (Cycle k = 0; k < bus_lat_; ++k) {
            std::uint64_t &mask = bus_mask_[slot * words_ + w];
            mvp_assert(!(mask & bit), "bus already reserved");
            mask |= bit;
            slot = nextSlot(slot);
        }
    }

    /** Release @p bus for a transfer starting at modulo slot @p slot. */
    void releaseBusAt(int bus, std::size_t slot)
    {
        if (bus == BUS_UNBOUNDED)
            return;
        mvp_assert(bus >= 0 && bus < machine_->nRegBuses, "bad bus index");
        const std::size_t w = static_cast<std::size_t>(bus) / 64;
        const std::uint64_t bit = 1ULL << (static_cast<std::size_t>(bus) % 64);
        for (Cycle k = 0; k < bus_lat_; ++k) {
            std::uint64_t &mask = bus_mask_[slot * words_ + w];
            mvp_assert(mask & bit, "releasing a free bus slot");
            mask &= ~bit;
            slot = nextSlot(slot);
        }
    }
    /// @}

    /** Reserve a @p type slot at modulo slot @p slot (must be free). */
    void placeFuAt(std::size_t slot, ClusterId cluster, ir::FuType type)
    {
        int &used = fu_used_[fuIndexAt(slot, cluster, type)];
        mvp_assert(used < fus_[static_cast<std::size_t>(type)],
                   "placing into a full FU slot");
        ++used;
        ++fu_load_[loadIndex(cluster, type)];
    }

    /** Release a @p type slot at modulo slot @p slot (must be
     * occupied). */
    void removeFuAt(std::size_t slot, ClusterId cluster, ir::FuType type)
    {
        int &used = fu_used_[fuIndexAt(slot, cluster, type)];
        mvp_assert(used > 0, "removing from an empty FU slot");
        --used;
        --fu_load_[loadIndex(cluster, type)];
    }

    /** Reserve a @p type slot at cycle @p time (must be free). */
    void placeFu(Cycle time, ClusterId cluster, ir::FuType type)
    {
        placeFuAt(slot(time), cluster, type);
    }

    /** Release a @p type slot at cycle @p time (must be occupied). */
    void removeFu(Cycle time, ClusterId cluster, ir::FuType type)
    {
        removeFuAt(slot(time), cluster, type);
    }

    /** Number of @p type ops currently placed in @p cluster. */
    int fuLoad(ClusterId cluster, ir::FuType type) const;

    /** Total bus-slot occupancy (for stats). */
    int busSlotsUsed() const;

  private:
    /** findFreeBusAt() for unbounded buses, more than 64 buses, or a
     * bus latency above II. */
    int findFreeBusWide(std::size_t slot) const;

    static std::size_t loadIndex(ClusterId cluster, ir::FuType type)
    {
        return static_cast<std::size_t>(cluster) * ir::NUM_FU_TYPES +
               static_cast<std::size_t>(type);
    }

    std::size_t fuIndexAt(std::size_t slot, ClusterId cluster,
                          ir::FuType type) const
    {
        return (slot * n_clusters_ +
                static_cast<std::size_t>(cluster)) *
                   ir::NUM_FU_TYPES +
               static_cast<std::size_t>(type);
    }

    const MachineConfig *machine_ = nullptr;
    Cycle ii_ = 1;
    SlotMap slot_of_;
    std::size_t n_clusters_ = 0;
    /** [type] FUs per cluster, read once per bind (the per-candidate
     * fuFreeAt() check would otherwise call out to the machine). */
    std::array<int, ir::NUM_FU_TYPES> fus_{};
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
    Cycle bus_lat_ = 0;              ///< slots a transfer holds its bus
    std::uint64_t valid_ = 0;        ///< bus bits of a one-word table
};

} // namespace mvp::sched

#endif // MVP_SCHED_MRT_HH
