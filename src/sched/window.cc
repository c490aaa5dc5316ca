#include "sched/window.hh"

namespace mvp::sched
{

namespace
{

/** Sort @p v and keep the smallest value per key (the first of each
 * run), so the result does not depend on edge-visit order. */
template <class K, class V>
void
keepMinPerKey(std::vector<std::pair<K, V>> &v)
{
    if (v.size() < 2)
        return;
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end(),
                        [](const auto &a, const auto &b) {
                            return a.first == b.first;
                        }),
            v.end());
}

} // namespace

void
Neighbours::snapshot(const ddg::Ddg &graph, const ModuloSchedule &sched,
                     const std::vector<char> &placed, OpId v)
{
    clear();
    for (int ei : graph.inEdges(v)) {
        const auto &e = graph.edges()[static_cast<std::size_t>(ei)];
        if (e.src != v && placed[static_cast<std::size_t>(e.src)])
            addIn({e.src, e.distance, e.latency, e.isRegFlow()}, sched);
    }
    for (int ei : graph.outEdges(v)) {
        const auto &e = graph.edges()[static_cast<std::size_t>(ei)];
        if (e.dst != v && placed[static_cast<std::size_t>(e.dst)])
            addOut({e.dst, e.distance, e.latency, e.isRegFlow()}, sched);
    }
}

bool
Window::compute(const Neighbours &nbs, ClusterId c, Cycle out_lat,
                Cycle bus_lat, const CommStarts &starts)
{
    cluster = c;
    outLat = out_lat;
    busLat = bus_lat;
    hasPred = !nbs.in.empty();
    hasSucc = !nbs.out.empty();
    early = 0;   // the known clamp (see compute() in window.hh)
    late = NO_BOUND;
    needIn.clear();
    needOut.clear();

    for (const InNb &nb : nbs.in) {
        if (!nb.isReg || nb.cluster == c) {
            early = std::max(early, nb.baseEarly);
        } else if (const Cycle cs = starts(nb.src, c); cs != CYCLE_MAX) {
            early = std::max(early, cs + bus_lat - nb.iiDist);
        } else {
            early = std::max(early, nb.ready + bus_lat - nb.iiDist);
            needIn.emplace_back(nb.src, nb.distance);
        }
    }
    keepMinPerKey(needIn);

    for (const OutNb &nb : nbs.out) {
        if (nb.isReg && nb.cluster != c)
            needOut.emplace_back(nb.cluster, nb.budget);
        else
            late = std::min(late,
                            nb.isReg ? nb.budget - out_lat : nb.lateNonReg);
    }
    keepMinPerKey(needOut);
    for (const auto &[dest, budget] : needOut)
        late = std::min(late, budget - bus_lat - out_lat);

    return !(hasPred && hasSucc && late < early);
}

bool
Window::book(Mrt &mrt, const ModuloSchedule &sched, OpId v, Cycle t,
             std::vector<NewComm> &booked) const
{
    const std::size_t mark = booked.size();
    const Cycle ii = mrt.ii();
    // Earliest fit in [x_min, min(x_max, x_min + II - 1)]: past II
    // cycles every modulo slot has been tried.
    auto bookOne = [&](OpId producer, ClusterId from, ClusterId to,
                       Cycle x_min, Cycle x_max) {
        const Cycle hi = std::min(x_max, x_min + ii - 1);
        if (x_min > hi)
            return false;
        std::size_t sx = mrt.slot(x_min);
        for (Cycle x = x_min; x <= hi; ++x) {
            const int bus = mrt.findFreeBusAt(sx);
            if (bus != BUS_NONE) {
                mrt.reserveBusAt(bus, sx);
                booked.push_back({producer, from, to, x, sx, bus});
                return true;
            }
            sx = mrt.nextSlot(sx);
        }
        return false;
    };
    auto fail = [&] {
        releaseTransfers(mrt, std::span(booked).subspan(mark));
        booked.resize(mark);
        return false;
    };

    for (const auto &[u, min_dist] : needIn) {
        const PlacedOp &pu = sched.placed(u);
        if (!bookOne(u, pu.cluster, cluster, pu.time + pu.outLatency,
                     t + ii * min_dist - busLat))
            return fail();
    }
    for (const auto &[dest, budget] : needOut)
        if (!bookOne(v, cluster, dest, t + outLat, budget - busLat))
            return fail();
    return true;
}

void
releaseTransfers(Mrt &mrt, std::span<const NewComm> comms)
{
    for (const NewComm &nc : comms)
        mrt.releaseBusAt(nc.bus, nc.xferSlot);
}

} // namespace mvp::sched
