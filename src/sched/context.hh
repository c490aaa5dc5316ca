/**
 * @file
 * Explicit scheduler contexts: every scratch buffer the scheduling
 * stack reuses across runs, owned by the caller instead of hiding in
 * `thread_local` statics — the heuristic's placement books, the
 * ordering and lifetime tables, the branch and bound's search state
 * and per-depth tables, and the SAT engine's CDCL solver and encoder
 * buffers.
 *
 * PR 1 removed the per-run allocations of the hot path by parking the
 * placement-loop buffers in `inline static thread_local` members. That
 * made reentrancy an accident of thread identity: two schedulers on one
 * thread would silently share buffers, and nothing in the type system
 * said so. A SchedContext makes the contract explicit — one context per
 * concurrently-running scheduler, created by whoever owns the thread
 * (the parallel driver creates one per worker). A warm context reaches
 * the same steady state as the old thread-local buffers: zero heap
 * traffic in the placement loop after the first few runs.
 *
 * A SchedContext is NOT thread-safe; it is cheap to construct (empty
 * vectors) and grows to the high-water mark of the loops scheduled
 * through it. Nothing is ever shrunk: a context keeps the capacity of
 * the largest loop, of the deepest search and of the largest SAT
 * formula it has scheduled.
 * The convenience entry points that take no context (scheduleBaseline,
 * scheduleWithBackend without a context, ...) build a transient one per
 * call, trading the buffer reuse for ergonomics.
 */

#ifndef MVP_SCHED_CONTEXT_HH
#define MVP_SCHED_CONTEXT_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "ddg/ddg.hh"
#include "ir/opcode.hh"
#include "obs/metrics.hh"
#include "sched/exact/pressure.hh"
#include "sched/mrt.hh"
#include "sched/sat/encode.hh"
#include "sched/sat/solver.hh"
#include "sched/sentinels.hh"
#include "sched/window.hh"

namespace mvp::sched
{

namespace detail
{

/** A candidate placement of one op in one cluster. */
struct Placement
{
    Cycle time = TIME_UNPLACED;
    Cycle outLatency = 0;
    std::vector<NewComm> newComms;
};

/**
 * Scratch of the heuristic placement loop (scheduler.cc's Attempt).
 * Field meanings are documented at the point of use; everything here is
 * a pure buffer — (re)sized at the start of a run, value-initialised
 * before every read, reused only for its capacity.
 */
struct PlacementScratch
{
    std::vector<char> isPlaced;
    /** Memory ops per cluster. */
    std::vector<std::vector<OpId>> memSet;
    /** [op] override of miss-promoted loads; LAT_NO_OVERRIDE = none. */
    std::vector<Cycle> overrideLat;
    CommStarts commStart;

    /** @name place() scratch (rebuilt per op, shared by the sweep) */
    /// @{
    Neighbours nbs;
    /// @}

    /** @name trySlot() scratch (recomputed at every call) */
    /// @{
    Window window;
    Placement curPlacement;
    Placement bestPlacement;
    /// @}

    /** @name Incremental per-cluster locality cache */
    /// @{
    /** missesPerIteration(memSet) per cluster. */
    std::vector<double> baseMiss;
    /** Invalidated on memory-op commit. */
    std::vector<char> baseMissValid;
    /** set + candidate buffer. */
    std::vector<OpId> withScratch;
    /// @}

    /** [cluster] one-walk register-affinity profits. */
    std::vector<int> affinity;
};

} // namespace detail

/**
 * Scratch of computeOrdering()/bothNeighbourCount(): the swing-ordering
 * work lists, the lazily-built reachability matrix, and the ASAP/ALAP
 * tables of the current II.
 */
struct OrderingScratch
{
    ddg::Ddg::TimeBounds tb;

    struct SccInfo
    {
        int index;
        Cycle recMii;
    };
    std::vector<SccInfo> recurrenceSccs;

    std::vector<char> reach;   ///< n x n reachability, built lazily
    std::vector<char> taken;
    std::vector<char> ordered;
    std::vector<char> inSet;
    std::vector<char> before;  ///< bothNeighbourCount()
    std::vector<OpId> work;    ///< reachability BFS stack
    std::vector<OpId> placedUnion;
    std::vector<OpId> setNodes;   ///< flat sets
    std::vector<std::size_t> setBegin;
    std::vector<OpId> frontier;   ///< the sweep's candidate list R
};

/** Scratch of computeLifetimes(). */
struct LifetimeScratch
{
    struct Interval
    {
        ClusterId cluster;
        Cycle from;
        Cycle to;   ///< inclusive
    };
    std::vector<Interval> intervals;
    /** Flat [cluster x slot] live-count table. */
    std::vector<Cycle> live;
};

namespace exact
{

/**
 * One depth of the branch and bound's placement order (exact/bnb.cc).
 * The order is fixed for the whole search and depth k always has
 * order[0..k) placed, so which of the op's edges reach placed
 * neighbours is fixed too. Searcher::begin() builds every level once;
 * the nodes read them instead of filtering the edge table.
 */
struct SearchLevel
{
    OpId op = INVALID_ID;
    ir::FuType fu = ir::FuType::Int;
    Cycle outLat = 0;             ///< the op's result latency
    bool producesValue = false;
    /** Depths of the placed neighbours: the conflict citation of a
     * window the neighbours pinched. */
    std::uint64_t nbMask = 0;
    /**
     * Ranges into SearchScratch::edges, in edge-table order:
     * [in, out) the placed in-neighbours and [out, regOut) the placed
     * out-neighbours (self-edges skipped, as Neighbours::snapshot
     * does), then [regOut, end) the register out-edges whose reads the
     * pressure tracker extends: to placed consumers and to the op
     * itself.
     */
    std::uint32_t in = 0, out = 0, regOut = 0, end = 0;
};

/**
 * Scratch of the branch and bound: the search state of the DFS path
 * and its per-depth slots. Sized per search and never shrunk, so a
 * warm context searches without heap traffic; only the returned
 * schedule is allocated.
 */
struct SearchScratch
{
    /** @name Per-search tables (built by begin()) */
    /// @{
    std::vector<OpId> order;            ///< depth -> op
    std::vector<int> orderPos;          ///< op -> depth
    std::vector<SearchLevel> levels;    ///< depth -> level
    std::vector<NbEdge> edges;          ///< SearchLevel ranges
    /// @}

    /** @name The DFS path (reset per II probe) */
    /// @{
    Mrt mrt;
    ModuloSchedule sched;
    CommStarts commStart;
    /** Undo stack of the transfers the path booked. */
    std::vector<NewComm> booked;
    std::vector<int> clusterPop;        ///< ops per cluster
    PressureTracker pressure;
    /** (slot, cluster, fu) -> depth bits of the current occupants. */
    std::vector<std::uint64_t> fuDepthMask;
    /// @}

    /** @name Per-depth slots (survive the recursion below them) */
    /// @{
    std::vector<Neighbours> nbs;
    std::vector<Window> win;            ///< cluster being tried
    std::vector<ClusterId> clusterOrder;   ///< [depth x cluster]
    std::vector<int> clusterScore;      ///< tiebreak ordering scratch
    /// @}

    /** The incumbent: the best leaf so far and its per-cluster
     * MaxLive, copied into the result when the search ends. */
    ModuloSchedule best;
    std::vector<int> bestMaxLive;
};

} // namespace exact

/**
 * Everything one scheduler needs to run allocation-free once warm.
 * Owned by the caller; one per concurrently-running scheduler. The
 * parallel experiment driver keeps one per worker thread; benches and
 * tests that schedule in a loop keep one across iterations.
 */
class SchedContext
{
  public:
    OrderingScratch ordering;
    LifetimeScratch lifetimes;
    detail::PlacementScratch placement;

    /** The node ordering, computed once per run and kept across II
     * bumps. */
    std::vector<OpId> order;

    /** The branch and bound's search state (exact/bnb.cc). */
    exact::SearchScratch search;

    /** The SAT engine's solver (sched/sat/): reset() at the start of
     * each search, so a search takes a fresh solver's path. */
    sat::Solver satSolver;
    /** The SAT encoder's buffers, rewritten by every II probe. */
    sat::EncodeScratch satEncoding;

    /** Metric accumulator riding along with the scratch: same
     * ownership, same thread-affinity. Schedulers record here with
     * plain integer arithmetic; whoever owns the context folds it
     * into the obs::Registry at sweep boundaries (the parallel
     * driver does this per worker per sweep). The destructor folds
     * whatever is left so transient contexts aren't lost — the
     * Registry singleton is first touched at flag-parse time, well
     * before any static pool's contexts are built, so it outlives
     * them. */
    obs::MetricShard metrics;

    ~SchedContext()
    {
        if (obs::metricsOn())
            obs::Registry::instance().fold(metrics);
    }
};

} // namespace mvp::sched

#endif // MVP_SCHED_CONTEXT_HH
