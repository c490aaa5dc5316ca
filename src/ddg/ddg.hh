/**
 * @file
 * Data dependence graph of an innermost loop body, the input to the
 * modulo schedulers.
 *
 * Nodes are the body operations; edges carry a latency and an
 * innermost-loop dependence distance (omega). A modulo schedule with
 * initiation interval II is legal when for every edge u -> v
 *
 *     time(v) - time(u) >= latency(u->v) - II * distance(u->v).
 */

#ifndef MVP_DDG_DDG_HH
#define MVP_DDG_DDG_HH

#include <string>
#include <vector>

#include "common/types.hh"
#include "ddg/memdep.hh"
#include "ir/loop.hh"
#include "machine/machine.hh"

namespace mvp::ddg
{

/** Classes of dependence edges. */
enum class EdgeKind
{
    RegFlow,    ///< register dataflow (producer -> consumer)
    MemFlow,    ///< store -> load, same location
    MemAnti,    ///< load -> store, same location
    MemOutput,  ///< store -> store, same location
};

/** Printable name of an edge kind. */
std::string_view edgeKindName(EdgeKind kind);

/** One dependence edge. */
struct DdgEdge
{
    OpId src = INVALID_ID;
    OpId dst = INVALID_ID;
    Cycle latency = 0;
    int distance = 0;    ///< innermost-loop omega (>= 0)
    EdgeKind kind = EdgeKind::RegFlow;

    /** True for register dataflow edges (the ones buses transport). */
    bool isRegFlow() const { return kind == EdgeKind::RegFlow; }
};

/**
 * The data dependence graph.
 *
 * Immutable once build() returns: the recurrence facts the schedulers
 * read (components, recurrence membership, per-component and
 * whole-graph RecMII) are computed there, once, so every const member
 * is a pure read and one graph may be shared by any number of threads.
 */
class Ddg
{
  public:
    /**
     * Build the DDG of @p nest under @p machine 's operation latencies.
     *
     * Register edges come from the operand lists; memory edges from the
     * affine dependence test (exact for uniformly generated pairs,
     * conservative serialisation otherwise).
     */
    static Ddg build(const ir::LoopNest &nest, const MachineConfig &machine);

    /** The graph keeps a pointer to its nest (loop()), so a temporary
     * nest would dangle: bind it to a variable first. */
    static Ddg build(ir::LoopNest &&, const MachineConfig &) = delete;

    /** The underlying loop nest. */
    const ir::LoopNest &loop() const { return *nest_; }

    /** Number of nodes (== number of body operations). */
    std::size_t size() const { return n_; }

    /** All edges. */
    const std::vector<DdgEdge> &edges() const { return edges_; }

    /** Indices into edges() of the edges leaving @p op. */
    const std::vector<int> &outEdges(OpId op) const;

    /** Indices into edges() of the edges entering @p op. */
    const std::vector<int> &inEdges(OpId op) const;

    /** The machine-model hit latency recorded for @p op 's results. */
    Cycle opLatency(OpId op) const;

    /**
     * Recurrence-constrained minimum initiation interval: the smallest II
     * with no positive-weight cycle under weights latency - II*distance.
     * Returns 1 for acyclic graphs. Every cycle lies inside one
     * component, so this is the largest sccRecMii().
     */
    Cycle recMii() const { return rec_mii_; }

    /**
     * True when @p ii admits a legal schedule as far as recurrences are
     * concerned (one Bellman-Ford run over the whole graph).
     */
    bool feasibleII(Cycle ii) const;

    /**
     * feasibleII with per-op out-latency overrides, used to ask "may
     * this load adopt the miss latency without raising the II?":
     * override_lat[op] >= 0 replaces the out-latency of op's
     * register-flow edges, negative entries mean "no override".
     */
    bool feasibleII(Cycle ii,
                    const std::vector<Cycle> &override_lat) const;

    /**
     * Strongly connected components (Tarjan). Components are returned in
     * reverse topological order; singleton components without a self-loop
     * are included.
     */
    const std::vector<std::vector<OpId>> &sccs() const { return sccs_; }

    /** Component index of @p op in sccs(). */
    int sccOf(OpId op) const
    {
        return scc_of_[static_cast<std::size_t>(op)];
    }

    /** True when @p op lies on some dependence cycle. */
    bool inRecurrence(OpId op) const
    {
        return in_recurrence_[static_cast<std::size_t>(op)];
    }

    /**
     * RecMII restricted to the edges inside one component of sccs()
     * (1 for trivial components).
     */
    Cycle sccRecMii(int scc_index) const
    {
        return scc_rec_mii_[static_cast<std::size_t>(scc_index)];
    }

    /** ASAP/ALAP times at a given II (Bellman-Ford longest paths). */
    struct TimeBounds
    {
        std::vector<Cycle> asap;
        std::vector<Cycle> alap;
        Cycle criticalPath = 0;

        /** Scheduling freedom of a node. */
        Cycle mobility(OpId op) const
        {
            return alap[static_cast<std::size_t>(op)] -
                   asap[static_cast<std::size_t>(op)];
        }

        /** Longest path from the node to any sink. */
        Cycle height(OpId op) const
        {
            return criticalPath - alap[static_cast<std::size_t>(op)];
        }

        /** Longest path from any source to the node (== ASAP). */
        Cycle depth(OpId op) const
        {
            return asap[static_cast<std::size_t>(op)];
        }
    };

    /**
     * Compute ASAP/ALAP under weights latency - ii*distance. Requires
     * feasibleII(ii); the ASAP pass itself checks it.
     */
    TimeBounds timeBounds(Cycle ii) const;

    /**
     * timeBounds into a caller-owned result, reusing its vectors'
     * capacity (the scheduler keeps one TimeBounds in its ordering
     * scratch and recomputes it once per scheduled loop without
     * reallocating).
     */
    void timeBounds(Cycle ii, TimeBounds &out) const;

    /** Graphviz-free textual dump for debugging. */
    std::string toString() const;

  private:
    Ddg() = default;

    void addEdge(DdgEdge edge);
    void computeSccs();
    void computeRecurrences();

    const ir::LoopNest *nest_ = nullptr;
    std::size_t n_ = 0;
    std::vector<DdgEdge> edges_;
    std::vector<std::vector<int>> out_;
    std::vector<std::vector<int>> in_;
    std::vector<Cycle> op_latency_;

    std::vector<std::vector<OpId>> sccs_;
    std::vector<int> scc_of_;
    std::vector<bool> in_recurrence_;
    std::vector<Cycle> scc_rec_mii_;
    Cycle rec_mii_ = 1;
};

} // namespace mvp::ddg

#endif // MVP_DDG_DDG_HH
