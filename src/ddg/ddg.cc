#include "ddg/ddg.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"

namespace mvp::ddg
{

std::string_view
edgeKindName(EdgeKind kind)
{
    switch (kind) {
      case EdgeKind::RegFlow: return "reg";
      case EdgeKind::MemFlow: return "mem-flow";
      case EdgeKind::MemAnti: return "mem-anti";
      case EdgeKind::MemOutput: return "mem-out";
    }
    mvp_panic("unknown EdgeKind");
}

Ddg
Ddg::build(const ir::LoopNest &nest, const MachineConfig &machine)
{
    Ddg g;
    g.nest_ = &nest;
    g.n_ = nest.size();
    g.out_.resize(g.n_);
    g.in_.resize(g.n_);
    g.op_latency_.resize(g.n_);
    for (const auto &op : nest.ops())
        g.op_latency_[static_cast<std::size_t>(op.id)] =
            machine.opLatency(op.opcode);

    // Register dataflow edges from the operand lists.
    for (const auto &op : nest.ops()) {
        for (const auto &operand : op.inputs) {
            if (operand.isLiveIn())
                continue;
            DdgEdge e;
            e.src = operand.producer;
            e.dst = op.id;
            e.latency = g.op_latency_[static_cast<std::size_t>(e.src)];
            e.distance = operand.distance;
            e.kind = EdgeKind::RegFlow;
            g.addEdge(e);
        }
    }

    // Memory ordering edges from the affine dependence test.
    const auto mem_ops = nest.memoryOps();
    auto mem_edge_kind = [&](OpId a, OpId b) {
        const bool sa = nest.op(a).isStore();
        const bool sb = nest.op(b).isStore();
        if (sa && sb)
            return EdgeKind::MemOutput;
        return sa ? EdgeKind::MemFlow : EdgeKind::MemAnti;
    };
    auto mem_edge_latency = [&](EdgeKind kind) -> Cycle {
        switch (kind) {
          case EdgeKind::MemFlow: return machine.latStore;
          case EdgeKind::MemAnti: return 0;
          case EdgeKind::MemOutput: return 1;
          default: mvp_panic("not a memory edge kind");
        }
    };
    auto add_mem_edge = [&](OpId a, OpId b, int distance) {
        const EdgeKind kind = mem_edge_kind(a, b);
        DdgEdge e;
        e.src = a;
        e.dst = b;
        e.latency = mem_edge_latency(kind);
        e.distance = distance;
        e.kind = kind;
        g.addEdge(e);
    };

    for (std::size_t x = 0; x < mem_ops.size(); ++x) {
        for (std::size_t y = x; y < mem_ops.size(); ++y) {
            const OpId a = mem_ops[x];   // earlier in program order
            const OpId b = mem_ops[y];
            const auto &ra = *nest.op(a).memRef;
            const auto &rb = *nest.op(b).memRef;
            const bool any_store =
                nest.op(a).isStore() || nest.op(b).isStore();
            if (!any_store)
                continue;   // load-load pairs never constrain the order

            const MemDepResult res = testMemoryDependence(nest, ra, rb);
            switch (res.kind) {
              case MemDepResult::Kind::Independent:
                break;
              case MemDepResult::Kind::Exact:
                if (res.everyIteration) {
                    // Collision in every pair of iterations: program
                    // order within the iteration plus a distance-1 back
                    // edge.
                    if (a != b)
                        add_mem_edge(a, b, 0);
                    add_mem_edge(b, a, 1);
                } else if (a == b) {
                    // A reference only collides with itself at shift 0,
                    // which is not a dependence.
                } else if (res.distance >= 0) {
                    add_mem_edge(a, b, res.distance);
                } else {
                    add_mem_edge(b, a, -res.distance);
                }
                break;
              case MemDepResult::Kind::Unknown:
                // Conservative serialisation: program order inside the
                // iteration and a distance-1 back edge across iterations.
                if (a != b)
                    add_mem_edge(a, b, 0);
                add_mem_edge(b, a, 1);
                break;
            }
        }
    }

    g.computeSccs();
    g.computeRecurrences();
    return g;
}

void
Ddg::addEdge(DdgEdge edge)
{
    mvp_assert(edge.src >= 0 &&
               static_cast<std::size_t>(edge.src) < n_ &&
               edge.dst >= 0 && static_cast<std::size_t>(edge.dst) < n_,
               "edge endpoints out of range");
    mvp_assert(edge.distance >= 0, "edge distance must be >= 0");
    const int idx = static_cast<int>(edges_.size());
    edges_.push_back(edge);
    out_[static_cast<std::size_t>(edge.src)].push_back(idx);
    in_[static_cast<std::size_t>(edge.dst)].push_back(idx);
}

const std::vector<int> &
Ddg::outEdges(OpId op) const
{
    mvp_assert(op >= 0 && static_cast<std::size_t>(op) < n_, "bad op id");
    return out_[static_cast<std::size_t>(op)];
}

const std::vector<int> &
Ddg::inEdges(OpId op) const
{
    mvp_assert(op >= 0 && static_cast<std::size_t>(op) < n_, "bad op id");
    return in_[static_cast<std::size_t>(op)];
}

Cycle
Ddg::opLatency(OpId op) const
{
    mvp_assert(op >= 0 && static_cast<std::size_t>(op) < n_, "bad op id");
    return op_latency_[static_cast<std::size_t>(op)];
}

namespace
{

/**
 * Bellman-Ford longest paths: raise @p dist (the caller's starting
 * values, one per node) to the fixpoint of
 * dist[to] >= dist[from] + edge_weight(e) over @p edges, an edge
 * running src -> dst, or dst -> src when @p Backward. The edges join
 * @p nodes nodes; returns false when a distance still rises after
 * that many rounds, which proves a positive cycle.
 */
template <bool Backward, typename WeightFn>
bool
relax(std::vector<Cycle> &dist, const std::vector<DdgEdge> &edges,
      std::size_t nodes, WeightFn &&edge_weight)
{
    for (std::size_t round = 0; round <= nodes; ++round) {
        bool changed = false;
        for (const auto &e : edges) {
            const auto from = static_cast<std::size_t>(Backward ? e.dst
                                                                : e.src);
            const auto to = static_cast<std::size_t>(Backward ? e.src
                                                              : e.dst);
            const Cycle cand = dist[from] + edge_weight(e);
            if (cand > dist[to]) {
                if (round == nodes)
                    return false;
                dist[to] = cand;
                changed = true;
            }
        }
        if (!changed)
            return true;
    }
    return true;
}

/** The edge weights latency - ii*distance of a modulo schedule at @p ii. */
auto
weightsAt(Cycle ii)
{
    return [ii](const DdgEdge &e) { return e.latency - ii * e.distance; };
}

/**
 * @p n zeroed distances for a feasibility probe, in a per-thread table
 * reused across calls: the scheduler probes feasibility once per
 * miss-promoted load per II attempt.
 */
std::vector<Cycle> &
zeroDist(std::size_t n)
{
    static thread_local std::vector<Cycle> dist;
    dist.assign(n, 0);
    return dist;
}

/**
 * The smallest feasible II of @p edges, which join nodes 0..n-1.
 * Feasibility is monotone in II (every cycle carries distance >= 1,
 * since the distance-0 subgraph follows program order) and holds at
 * one more than the sum of the latencies, so binary search it.
 */
Cycle
smallestFeasibleII(std::size_t n, const std::vector<DdgEdge> &edges)
{
    auto feasible_at = [&](Cycle ii) {
        return relax<false>(zeroDist(n), edges, n, weightsAt(ii));
    };
    Cycle lo = 1;
    Cycle hi = 1;
    for (const auto &e : edges)
        hi += std::max<Cycle>(e.latency, 0);
    if (feasible_at(lo))
        return lo;
    while (lo + 1 < hi) {
        const Cycle mid = lo + (hi - lo) / 2;
        if (feasible_at(mid))
            hi = mid;
        else
            lo = mid;
    }
    return hi;
}

} // namespace

bool
Ddg::feasibleII(Cycle ii) const
{
    mvp_assert(ii >= 1, "II must be positive");
    return relax<false>(zeroDist(n_), edges_, n_, weightsAt(ii));
}

bool
Ddg::feasibleII(Cycle ii, const std::vector<Cycle> &override_lat) const
{
    mvp_assert(ii >= 1, "II must be positive");
    mvp_assert(override_lat.size() == n_,
               "override table size mismatch");
    auto weight = [&](const DdgEdge &e) -> Cycle {
        Cycle lat = e.latency;
        if (e.isRegFlow()) {
            const Cycle o =
                override_lat[static_cast<std::size_t>(e.src)];
            if (o >= 0)
                lat = o;
        }
        return lat - ii * e.distance;
    };
    return relax<false>(zeroDist(n_), edges_, n_, weight);
}

void
Ddg::computeSccs()
{
    scc_of_.assign(n_, -1);

    // Iterative Tarjan.
    std::vector<int> index(n_, -1);
    std::vector<int> lowlink(n_, 0);
    std::vector<bool> on_stack(n_, false);
    std::vector<OpId> stack;
    int next_index = 0;

    struct Frame
    {
        OpId node;
        std::size_t edge_pos;
    };
    std::vector<Frame> frames;

    for (std::size_t start = 0; start < n_; ++start) {
        if (index[start] != -1)
            continue;
        frames.push_back({static_cast<OpId>(start), 0});
        index[start] = lowlink[start] = next_index++;
        stack.push_back(static_cast<OpId>(start));
        on_stack[start] = true;

        while (!frames.empty()) {
            Frame &f = frames.back();
            const auto u = static_cast<std::size_t>(f.node);
            if (f.edge_pos < out_[u].size()) {
                const DdgEdge &e = edges_[static_cast<std::size_t>(
                    out_[u][f.edge_pos++])];
                const auto v = static_cast<std::size_t>(e.dst);
                if (index[v] == -1) {
                    index[v] = lowlink[v] = next_index++;
                    stack.push_back(e.dst);
                    on_stack[v] = true;
                    frames.push_back({e.dst, 0});
                } else if (on_stack[v]) {
                    lowlink[u] = std::min(lowlink[u], index[v]);
                }
            } else {
                if (frames.size() > 1) {
                    const auto parent = static_cast<std::size_t>(
                        frames[frames.size() - 2].node);
                    lowlink[parent] = std::min(lowlink[parent], lowlink[u]);
                }
                if (lowlink[u] == index[u]) {
                    std::vector<OpId> comp;
                    OpId w;
                    do {
                        w = stack.back();
                        stack.pop_back();
                        on_stack[static_cast<std::size_t>(w)] = false;
                        scc_of_[static_cast<std::size_t>(w)] =
                            static_cast<int>(sccs_.size());
                        comp.push_back(w);
                    } while (w != f.node);
                    std::sort(comp.begin(), comp.end());
                    sccs_.push_back(std::move(comp));
                }
                frames.pop_back();
            }
        }
    }
}

void
Ddg::computeRecurrences()
{
    // Every cycle lies inside one component, so each component's
    // RecMII comes from its own edges (renumbered to the component's
    // positions) and the graph's is the largest. A component is a
    // recurrence iff it has an inner edge: more than one node, or a
    // self-loop.
    std::vector<int> local(n_);
    for (const auto &comp : sccs_)
        for (std::size_t i = 0; i < comp.size(); ++i)
            local[static_cast<std::size_t>(comp[i])] = static_cast<int>(i);
    std::vector<std::vector<DdgEdge>> inner(sccs_.size());
    for (DdgEdge e : edges_) {
        const int s = scc_of_[static_cast<std::size_t>(e.src)];
        if (s != scc_of_[static_cast<std::size_t>(e.dst)])
            continue;
        e.src = local[static_cast<std::size_t>(e.src)];
        e.dst = local[static_cast<std::size_t>(e.dst)];
        inner[static_cast<std::size_t>(s)].push_back(e);
    }

    in_recurrence_.assign(n_, false);
    scc_rec_mii_.assign(sccs_.size(), 1);
    rec_mii_ = 1;
    for (std::size_t s = 0; s < sccs_.size(); ++s) {
        if (inner[s].empty())
            continue;
        for (OpId v : sccs_[s])
            in_recurrence_[static_cast<std::size_t>(v)] = true;
        scc_rec_mii_[s] = smallestFeasibleII(sccs_[s].size(), inner[s]);
        rec_mii_ = std::max(rec_mii_, scc_rec_mii_[s]);
    }
}

Ddg::TimeBounds
Ddg::timeBounds(Cycle ii) const
{
    TimeBounds tb;
    timeBounds(ii, tb);
    return tb;
}

void
Ddg::timeBounds(Cycle ii, TimeBounds &tb) const
{
    const auto weight = weightsAt(ii);
    // ASAP: the longest path from any source, which fails to converge
    // exactly when ii is infeasible.
    tb.asap.assign(n_, 0);
    const bool feasible_ii = relax<false>(tb.asap, edges_, n_, weight);
    mvp_assert(feasible_ii, "timeBounds at infeasible II");
    tb.criticalPath = 0;
    for (std::size_t v = 0; v < n_; ++v)
        tb.criticalPath = std::max(tb.criticalPath, tb.asap[v]);

    // ALAP: the critical path minus the longest path to any sink.
    tb.alap.assign(n_, 0);
    relax<true>(tb.alap, edges_, n_, weight);
    for (auto &t : tb.alap)
        t = tb.criticalPath - t;
}

std::string
Ddg::toString() const
{
    std::ostringstream os;
    os << "ddg of '" << nest_->name() << "': " << n_ << " nodes, "
       << edges_.size() << " edges, recMII=" << recMii() << "\n";
    for (const auto &e : edges_) {
        os << "  %" << e.src << " -> %" << e.dst << "  lat=" << e.latency
           << " dist=" << e.distance << " [" << edgeKindName(e.kind)
           << "]\n";
    }
    return os.str();
}

} // namespace mvp::ddg
