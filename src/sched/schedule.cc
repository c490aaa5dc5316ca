#include "sched/schedule.hh"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace mvp::sched
{

ModuloSchedule::ModuloSchedule(Cycle ii, std::size_t n_ops, int n_clusters)
    : ii_(ii), n_clusters_(n_clusters), placed_(n_ops)
{
    mvp_assert(ii >= 1, "II must be positive");
}

void
ModuloSchedule::reset(Cycle ii, std::size_t n_ops, int n_clusters)
{
    mvp_assert(ii >= 1, "II must be positive");
    ii_ = ii;
    n_clusters_ = n_clusters;
    placed_.assign(n_ops, PlacedOp{});
    comms_.clear();
    max_live_.clear();
}

int
ModuloSchedule::stageCount() const
{
    Cycle max_time = 0;
    for (const auto &p : placed_)
        max_time = std::max(max_time, p.time);
    return static_cast<int>(max_time / ii_) + 1;
}

const PlacedOp &
ModuloSchedule::placed(OpId op) const
{
    mvp_assert(op >= 0 && static_cast<std::size_t>(op) < placed_.size(),
               "bad op id");
    return placed_[static_cast<std::size_t>(op)];
}

PlacedOp &
ModuloSchedule::placed(OpId op)
{
    mvp_assert(op >= 0 && static_cast<std::size_t>(op) < placed_.size(),
               "bad op id");
    return placed_[static_cast<std::size_t>(op)];
}

void
ModuloSchedule::normalize()
{
    Cycle min_time = 0;
    for (const auto &p : placed_)
        min_time = std::min(min_time, p.time);
    if (min_time >= 0)
        return;
    const Cycle shift = ((-min_time + ii_ - 1) / ii_) * ii_;
    for (auto &p : placed_)
        p.time += shift;
    for (auto &c : comms_)
        c.xferStart += shift;
}

int
ModuloSchedule::missScheduledLoads() const
{
    int n = 0;
    for (const auto &p : placed_)
        n += p.missScheduled ? 1 : 0;
    return n;
}

Cycle
ModuloSchedule::computeCycles(std::int64_t n_iter) const
{
    return (n_iter + stageCount() - 1) * ii_;
}

std::string
ModuloSchedule::validate(const ddg::Ddg &graph,
                         const MachineConfig &machine) const
{
    std::ostringstream err;
    const auto n = graph.size();
    if (placed_.size() != n)
        return "schedule covers a different number of ops than the DDG";

    // 1. Placement sanity.
    for (std::size_t i = 0; i < n; ++i) {
        const auto &p = placed_[i];
        if (p.cluster < 0 || p.cluster >= machine.nClusters)
            err << "op " << i << " in invalid cluster " << p.cluster
                << "\n";
        if (p.time < 0)
            err << "op " << i << " has negative time\n";
    }

    // Index communications by (producer, destination).
    std::map<std::pair<OpId, ClusterId>, const Comm *> comm_of;
    for (const auto &c : comms_) {
        if (c.from == c.to)
            err << "comm of op " << c.producer << " to its own cluster\n";
        if (c.producer < 0 || static_cast<std::size_t>(c.producer) >= n) {
            err << "comm with bad producer\n";
            continue;
        }
        const auto &p = placed_[static_cast<std::size_t>(c.producer)];
        if (p.cluster != c.from)
            err << "comm of op " << c.producer << " departs cluster "
                << c.from << " but the op is in " << p.cluster << "\n";
        if (c.xferStart < p.time + p.outLatency)
            err << "comm of op " << c.producer
                << " departs before the value is produced\n";
        const auto key = std::make_pair(c.producer, c.to);
        if (comm_of.count(key))
            err << "duplicate comm of op " << c.producer << " to cluster "
                << c.to << "\n";
        comm_of[key] = &c;
    }

    // 2. Dependence constraints.
    for (const auto &e : graph.edges()) {
        const auto &pu = placed_[static_cast<std::size_t>(e.src)];
        const auto &pv = placed_[static_cast<std::size_t>(e.dst)];
        const Cycle budget = pv.time + ii_ * e.distance;

        if (e.isRegFlow() && pu.cluster != pv.cluster) {
            const auto it =
                comm_of.find(std::make_pair(e.src, pv.cluster));
            if (it == comm_of.end()) {
                err << "edge " << e.src << "->" << e.dst
                    << " crosses clusters without a comm\n";
                continue;
            }
            const Comm &c = *it->second;
            if (c.xferStart + machine.regBusLatency > budget)
                err << "edge " << e.src << "->" << e.dst
                    << ": value arrives at "
                    << c.xferStart + machine.regBusLatency
                    << " after use at " << budget << "\n";
        } else {
            const Cycle lat =
                e.isRegFlow() ? pu.outLatency : e.latency;
            if (pu.time + lat > budget)
                err << "edge " << e.src << "->" << e.dst << " ("
                    << ddg::edgeKindName(e.kind) << "): " << pu.time
                    << "+" << lat << " > " << budget << "\n";
        }
    }

    // 3. FU capacity per modulo slot.
    for (Cycle s = 0; s < ii_; ++s) {
        for (ClusterId c = 0; c < machine.nClusters; ++c) {
            int used[ir::NUM_FU_TYPES] = {0, 0, 0};
            for (std::size_t i = 0; i < n; ++i) {
                if (placed_[i].cluster != c || placed_[i].time % ii_ != s)
                    continue;
                ++used[static_cast<int>(
                    graph.loop().op(static_cast<OpId>(i)).fuType())];
            }
            for (int t = 0; t < ir::NUM_FU_TYPES; ++t) {
                const auto type = static_cast<ir::FuType>(t);
                if (used[t] > machine.fusPerCluster(type))
                    err << "slot " << s << " cluster " << c
                        << " oversubscribes " << ir::fuTypeName(type)
                        << " (" << used[t] << " > "
                        << machine.fusPerCluster(type) << ")\n";
            }
        }
    }

    // 4. Bus capacity: a transfer holds its bus for the full latency.
    if (!machine.unboundedRegBuses) {
        std::map<std::pair<Cycle, int>, int> bus_use;
        for (const auto &c : comms_) {
            if (c.bus < 0 || c.bus >= machine.nRegBuses) {
                err << "comm of op " << c.producer << " uses bad bus "
                    << c.bus << "\n";
                continue;
            }
            if (machine.regBusLatency > ii_)
                err << "bus latency " << machine.regBusLatency
                    << " exceeds II " << ii_
                    << ": transfers overlap themselves\n";
            for (Cycle k = 0; k < machine.regBusLatency; ++k) {
                const Cycle s = (c.xferStart + k) % ii_;
                if (++bus_use[{s, c.bus}] > 1)
                    err << "bus " << c.bus << " double-booked at slot "
                        << s << "\n";
            }
        }
    }

    // 5. Register pressure.
    if (!max_live_.empty()) {
        for (std::size_t c = 0; c < max_live_.size(); ++c)
            if (max_live_[c] > machine.regsPerCluster)
                err << "cluster " << c << " needs " << max_live_[c]
                    << " registers, has " << machine.regsPerCluster
                    << "\n";
    }

    return err.str();
}

std::string
ModuloSchedule::toString(const ddg::Ddg &graph,
                         const MachineConfig &machine) const
{
    std::ostringstream os;
    os << "II=" << ii_ << " SC=" << stageCount() << " comms="
       << comms_.size() << "\n";
    for (Cycle s = 0; s < ii_; ++s) {
        os << padLeft(std::to_string(s), 3) << " |";
        for (ClusterId c = 0; c < n_clusters_; ++c) {
            std::vector<std::string> cells;
            for (std::size_t i = 0; i < placed_.size(); ++i) {
                const auto &p = placed_[i];
                if (p.cluster != c || p.time % ii_ != s)
                    continue;
                const auto &op = graph.loop().op(static_cast<OpId>(i));
                std::string label = op.name.empty()
                                        ? std::string(opcodeName(op.opcode))
                                        : op.name;
                label += '(';
                label += std::to_string(p.time / ii_);
                label += ')';
                if (p.missScheduled)
                    label += "*";
                cells.push_back(label);
            }
            os << " " << padRight(join(cells, " "), 24) << " |";
        }
        // Bus column.
        std::vector<std::string> bus_cells;
        for (const auto &cm : comms_) {
            for (Cycle k = 0; k < machine.regBusLatency; ++k) {
                if ((cm.xferStart + k) % ii_ == s) {
                    bus_cells.push_back(
                        "C%" + std::to_string(cm.producer) + "->" +
                        std::to_string(cm.to));
                    break;
                }
            }
        }
        os << " " << join(bus_cells, " ") << "\n";
    }
    return os.str();
}

} // namespace mvp::sched
