#include "sched/mrt.hh"

#include <bit>

#include "common/logging.hh"

namespace mvp::sched
{

Mrt::Mrt(const MachineConfig &machine, Cycle ii)
{
    reset(machine, ii);
}

void
Mrt::reset(const MachineConfig &machine, Cycle ii)
{
    machine_ = &machine;
    n_clusters_ = static_cast<std::size_t>(machine.nClusters);
    for (int t = 0; t < ir::NUM_FU_TYPES; ++t)
        fus_[static_cast<std::size_t>(t)] =
            machine.fusPerCluster(static_cast<ir::FuType>(t));
    reset(ii);
}

void
Mrt::reset(Cycle ii)
{
    mvp_assert(ii >= 1, "II must be positive");
    ii_ = ii;
    slot_of_ = SlotMap(ii);
    fu_used_.assign(static_cast<std::size_t>(ii) * n_clusters_ *
                        ir::NUM_FU_TYPES,
                    0);
    fu_load_.assign(n_clusters_ * ir::NUM_FU_TYPES, 0);
    bus_lat_ = machine_->regBusLatency;
    if (!machine_->unboundedRegBuses) {
        words_ =
            (static_cast<std::size_t>(machine_->nRegBuses) + 63) / 64;
        valid_ = machine_->nRegBuses >= 64
                     ? ~0ULL
                     : (1ULL << machine_->nRegBuses) - 1;
        bus_mask_.assign(static_cast<std::size_t>(ii) * words_, 0);
    } else {
        words_ = 0;
        bus_mask_.clear();
    }
}

int
Mrt::fuLoad(ClusterId cluster, ir::FuType type) const
{
    return fu_load_[loadIndex(cluster, type)];
}

int
Mrt::findFreeBusWide(std::size_t start_slot) const
{
    if (machine_->unboundedRegBuses)
        return BUS_UNBOUNDED;
    if (machine_->regBusLatency > ii_)
        return BUS_NONE; // the transfer would collide with its next instance
    const int n_buses = machine_->nRegBuses;
    for (std::size_t w = 0; w < words_; ++w) {
        // One occupancy word for the whole window: bit b is set iff bus
        // w*64+b is busy at *some* cycle of the transfer.
        std::uint64_t occupied = 0;
        std::size_t s = start_slot;
        for (Cycle k = 0; k < machine_->regBusLatency; ++k) {
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

int
Mrt::busSlotsUsed() const
{
    int n = 0;
    for (std::uint64_t mask : bus_mask_)
        n += std::popcount(mask);
    return n;
}

} // namespace mvp::sched
