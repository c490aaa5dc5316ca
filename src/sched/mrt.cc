#include "sched/mrt.hh"

#include <bit>

#include "common/logging.hh"

namespace mvp::sched
{

Mrt::Mrt(const MachineConfig &machine, Cycle ii)
    : machine_(machine), ii_(ii)
{
    reset(ii);
}

void
Mrt::reset(Cycle ii)
{
    mvp_assert(ii >= 1, "II must be positive");
    ii_ = ii;
    fu_used_.assign(static_cast<std::size_t>(ii) *
                        static_cast<std::size_t>(machine_.nClusters) *
                        ir::NUM_FU_TYPES,
                    0);
    fu_load_.assign(
        static_cast<std::size_t>(machine_.nClusters) * ir::NUM_FU_TYPES, 0);
    if (!machine_.unboundedRegBuses) {
        words_ = (static_cast<std::size_t>(machine_.nRegBuses) + 63) / 64;
        bus_mask_.assign(static_cast<std::size_t>(ii) * words_, 0);
    }
}

std::size_t
Mrt::fuIndex(Cycle time, ClusterId cluster, ir::FuType type) const
{
    return fuIndexAt(slot(time), cluster, type);
}

void
Mrt::placeFu(Cycle time, ClusterId cluster, ir::FuType type)
{
    auto &used = fu_used_[fuIndex(time, cluster, type)];
    mvp_assert(used < machine_.fusPerCluster(type),
               "placing into a full FU slot");
    ++used;
    ++fu_load_[static_cast<std::size_t>(cluster) * ir::NUM_FU_TYPES +
               static_cast<std::size_t>(type)];
}

void
Mrt::removeFu(Cycle time, ClusterId cluster, ir::FuType type)
{
    auto &used = fu_used_[fuIndex(time, cluster, type)];
    mvp_assert(used > 0, "removing from an empty FU slot");
    --used;
    --fu_load_[static_cast<std::size_t>(cluster) * ir::NUM_FU_TYPES +
               static_cast<std::size_t>(type)];
}

int
Mrt::fuLoad(ClusterId cluster, ir::FuType type) const
{
    return fu_load_[static_cast<std::size_t>(cluster) * ir::NUM_FU_TYPES +
                    static_cast<std::size_t>(type)];
}

int
Mrt::findFreeBusAt(std::size_t start_slot) const
{
    if (machine_.unboundedRegBuses)
        return BUS_UNBOUNDED;
    if (machine_.regBusLatency > ii_)
        return BUS_NONE; // the transfer would collide with its next instance
    const int n_buses = machine_.nRegBuses;
    for (std::size_t w = 0; w < words_; ++w) {
        // One occupancy word for the whole window: bit b is set iff bus
        // w*64+b is busy at *some* cycle of the transfer.
        std::uint64_t occupied = 0;
        std::size_t s = start_slot;
        for (Cycle k = 0; k < machine_.regBusLatency; ++k) {
            occupied |= bus_mask_[s * words_ + w];
            s = nextSlot(s);
        }
        const int base = static_cast<int>(w) * 64;
        const int in_word = std::min(64, n_buses - base);
        const std::uint64_t valid =
            in_word == 64 ? ~0ULL : (1ULL << in_word) - 1;
        const std::uint64_t free = ~occupied & valid;
        if (free != 0)
            return base + std::countr_zero(free);
    }
    return BUS_NONE;
}

void
Mrt::reserveBusAt(int bus, std::size_t start_slot)
{
    if (bus == BUS_UNBOUNDED)
        return;
    mvp_assert(bus >= 0 && bus < machine_.nRegBuses, "bad bus index");
    const std::size_t w = static_cast<std::size_t>(bus) / 64;
    const std::uint64_t bit = 1ULL << (static_cast<std::size_t>(bus) % 64);
    std::size_t s = start_slot;
    for (Cycle k = 0; k < machine_.regBusLatency; ++k) {
        auto &mask = bus_mask_[s * words_ + w];
        mvp_assert(!(mask & bit), "bus already reserved");
        mask |= bit;
        s = nextSlot(s);
    }
}

void
Mrt::releaseBusAt(int bus, std::size_t start_slot)
{
    if (bus == BUS_UNBOUNDED)
        return;
    mvp_assert(bus >= 0 && bus < machine_.nRegBuses, "bad bus index");
    const std::size_t w = static_cast<std::size_t>(bus) / 64;
    const std::uint64_t bit = 1ULL << (static_cast<std::size_t>(bus) % 64);
    std::size_t s = start_slot;
    for (Cycle k = 0; k < machine_.regBusLatency; ++k) {
        auto &mask = bus_mask_[s * words_ + w];
        mvp_assert(mask & bit, "releasing a free bus slot");
        mask &= ~bit;
        s = nextSlot(s);
    }
}

int
Mrt::busSlotsUsed() const
{
    int n = 0;
    for (std::uint64_t mask : bus_mask_)
        n += std::popcount(mask);
    return n;
}

} // namespace mvp::sched
