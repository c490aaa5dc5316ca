#include "sched/exact/bnb.hh"

#include <algorithm>
#include <bit>
#include <chrono>

#include "common/logging.hh"
#include "obs/trace.hh"
#include "sched/exact/pressure.hh"
#include "sched/lifetimes.hh"
#include "sched/mii.hh"
#include "sched/mrt.hh"
#include "sched/ordering.hh"

namespace mvp::sched::exact
{

namespace
{

constexpr Cycle NO_BOUND = CYCLE_MAX / 4;

/** Outcome of one DFS subtree. */
enum class Walk
{
    Continue,   ///< subtree exhausted, keep searching siblings
    Stop,       ///< a satisfying schedule was found, unwind
    Abort,      ///< budget exhausted, unwind
};

/**
 * One committed transfer, kept on an undo stack so backtracking can
 * release the bus and the comm-start entry it booked. The booking
 * depth feeds conflict attribution: a candidate refuted by bus
 * saturation cites the decisions whose transfers crowd the window.
 */
struct BookedComm
{
    OpId producer;
    ClusterId from;
    ClusterId to;
    Cycle xferStart;
    std::size_t xferSlot;
    int bus;
    int depth;   ///< DFS depth that booked it
};

/**
 * Depth-first branch-and-bound over (op -> cluster, cycle) placements
 * at one II at a time. State mirrors the heuristic Attempt — the same
 * Mrt, the same comm-start table, the same neighbour windows — but
 * every commit is invertible, which is what turns the greedy placement
 * loop into an exhaustive search. Two symmetry breaks keep the tree
 * small without losing any schedule shape:
 *
 *  - the first op is pinned to cycle 0 (modulo schedules are
 *    shift-invariant, so every solution has a shifted twin there);
 *  - an op may only enter a cluster that is already populated or the
 *    single lowest-numbered empty one (clusters are interchangeable in
 *    the machine model, so every solution has a relabelled twin whose
 *    clusters first appear in DFS order).
 *
 * On top of the enumeration sit two search accelerators (see
 * bnb.hh): the incremental pressure bound and conflict-driven
 * backjumping. Both are result-preserving — the minimal II, the
 * lifted lower bound and the best (first minimal-pressure) schedule
 * are identical with each toggled on or off; only the node count
 * shrinks. (A third accelerator, a dominance memo over canonical
 * partial-schedule signatures, was retired after the PR-7 counters
 * proved its hit count structurally zero: candidate windows are ≤ II
 * wide, so same-depth prefixes always differ in some op's modulo slot
 * and signatures never collided — see docs/observability.md.)
 */
class Searcher
{
  public:
    Searcher(const ddg::Ddg &graph, const MachineConfig &machine,
             const ExactOptions &options, SchedContext &ctx)
        : graph_(graph), machine_(machine), options_(options), ctx_(ctx),
          mrt_(machine, 1), sched_(1, graph.size(), machine.nClusters)
    {
        const auto n = graph_.size();
        const auto nc = static_cast<std::size_t>(machine_.nClusters);
        placed_.assign(n, 0);
        comm_start_.assign(n * nc, CYCLE_MAX);
        out_budget_.assign(nc, CYCLE_MAX);
        in_min_dist_.assign(n, DIST_UNSET);
        cluster_pop_.assign(nc, 0);
        need_in_.resize(n);
        need_out_.resize(n);
        in_nbs_.resize(n);
        out_nbs_.resize(n);
        nb_mask_.assign(n, 0);
        c_order_.resize(n);
        for (int f = 0; f < ir::NUM_FU_TYPES; ++f) {
            remaining_[f] = 0;
            used_[f] = 0;
        }
        for (std::size_t v = 0; v < n; ++v)
            ++remaining_[static_cast<int>(
                graph_.loop().op(static_cast<OpId>(v)).fuType())];
    }

    /** Run the full II iteration; fills the result. */
    ScheduleResult run();

  private:
    struct InNb
    {
        OpId src;
        int distance;
        bool isReg;
        Cycle iiDist;
        Cycle ready;      ///< producer time + out latency
        Cycle baseEarly;  ///< early bound without a bus transfer
        ClusterId cluster;
    };
    struct OutNb
    {
        bool isReg;
        ClusterId cluster;
        Cycle budget;      ///< consumer time + II * distance
        Cycle lateNonReg;  ///< budget - edge latency (non-register)
    };

    Walk dfs(std::size_t k);
    Walk leaf();
    Walk tryPlace(OpId v, ClusterId c, Cycle t, std::size_t slot,
                  std::size_t k, std::uint64_t &conf);
    void snapshotNeighbours(OpId v, std::size_t k);
    bool bookTransfers(OpId v, ClusterId c, Cycle t, std::size_t k);
    void unbook(std::size_t mark);
    bool resourcesFit() const;
    bool applyPressure(OpId v, ClusterId c, Cycle t,
                       std::size_t comm_mark);

    /**
     * Charge one search node against the budgets; false means the
     * attempt must abort (node cap or wall-clock deadline). Every
     * child the search considers is charged exactly once — candidate
     * placements in tryPlace() and children pruned beforehand by an
     * empty dependence window alike — so under a pure node cap the
     * count at which "gap unknown" degradation triggers depends only
     * on (loop, machine, options). The deadline is polled every 64
     * nodes, starting at the first (so a zero budget aborts
     * deterministically before any work).
     */
    bool chargeNode()
    {
        ++nodes_;
        if (node_cap_ && nodes_ > attempt_limit_) {
            budget_hit_ = true;
            return false;
        }
        // The tiebreak allowance ends the phase, it is not a budget
        // failure: the minimal II (and its certificate) are already
        // secured, only pressureOptimal is forfeited.
        if (found_ && tiebreak_cap_ > 0 &&
            nodes_ - found_nodes_ > tiebreak_cap_)
            return false;
        if ((nodes_ & 63) == 1 && deadline_on_ &&
            std::chrono::steady_clock::now() >= deadline_) {
            budget_hit_ = true;
            return false;
        }
        return true;
    }

    /** @name Conflict-driven backjumping */
    /// @{
    static constexpr std::uint64_t prefixMask(std::size_t k)
    {
        return k >= 64 ? ~0ull : ((1ull << k) - 1);
    }

    /**
     * Exhausted depth: turn the accumulated conflict set into a jump.
     * An empty set certifies the whole II infeasible (no earlier
     * decision is implicated, so every assignment fails identically);
     * otherwise the deepest cited decision is the next one worth
     * revisiting and the rest of the set is carried to it.
     *
     * @p from is the depth being left, for the jump-depth telemetry:
     * a skip of more than one level counts as a backjump and its
     * distance lands in the depth histogram.
     */
    void setJump(std::uint64_t mask, std::size_t from)
    {
        jump_active_ = true;
        if (mask == 0) {
            jump_to_ = -1;
            carry_ = 0;
            ++ii_empty_conf_;
            if (bj_hist_ != nullptr)
                bj_hist_->add(static_cast<double>(from) + 1.0);
        } else {
            jump_to_ = 63 - std::countl_zero(mask);
            carry_ = mask & ~(1ull << jump_to_);
            const int dist = static_cast<int>(from) - jump_to_;
            if (dist > 1) {
                ++backjumps_;
                if (bj_hist_ != nullptr)
                    bj_hist_->add(static_cast<double>(dist));
            }
        }
    }

    /** Depths whose transfers currently hold buses. */
    std::uint64_t bookedDepthMask() const
    {
        std::uint64_t m = 0;
        for (const BookedComm &bc : booked_)
            m |= 1ull << bc.depth;
        return m;
    }

    /** Index into the occupant-depth table (maintained when cbj_). */
    std::size_t fuCell(ClusterId c, std::size_t slot,
                       ir::FuType fu) const
    {
        return (slot * static_cast<std::size_t>(machine_.nClusters) +
                static_cast<std::size_t>(c)) *
                   ir::NUM_FU_TYPES +
               static_cast<std::size_t>(fu);
    }

    /** Depths occupying (cluster, slot, fu) in the reservation
     * table. */
    std::uint64_t fuOccupantMask(ClusterId c, std::size_t slot,
                                 ir::FuType fu) const
    {
        return fu_depth_mask_[fuCell(c, slot, fu)];
    }
    /// @}

    Cycle &commStart(OpId u, ClusterId c)
    {
        return comm_start_[static_cast<std::size_t>(u) *
                               static_cast<std::size_t>(
                                   machine_.nClusters) +
                           static_cast<std::size_t>(c)];
    }

    const ddg::Ddg &graph_;
    const MachineConfig &machine_;
    const ExactOptions &options_;
    SchedContext &ctx_;   ///< ordering + lifetime scratch

    Cycle ii_ = 1;
    Mrt mrt_;
    ModuloSchedule sched_;
    std::vector<OpId> order_;
    std::vector<char> placed_;
    std::vector<Cycle> comm_start_;
    std::vector<BookedComm> booked_;   ///< undo stack of transfers
    std::vector<int> cluster_pop_;     ///< ops per cluster
    ClusterId opened_ = 0;             ///< populated clusters

    /**
     * Depth-indexed scratch: unlike the heuristic's flat thread-local
     * buffers, the search re-enters the placement logic recursively,
     * so everything a level still needs after recursing lives in a
     * per-depth slot.
     */
    std::vector<std::vector<InNb>> in_nbs_;
    std::vector<std::vector<OutNb>> out_nbs_;
    /** Producers needing a new transfer: (producer, min distance). */
    std::vector<std::vector<std::pair<OpId, int>>> need_in_;
    /** Destination clusters needing a transfer: (cluster, budget). */
    std::vector<std::vector<std::pair<ClusterId, Cycle>>> need_out_;
    /** Placed-neighbour depths of the op at each depth (conflicts). */
    std::vector<std::uint64_t> nb_mask_;
    /** (slot, cluster, fu) -> depth bits of the current occupants. */
    std::vector<std::uint64_t> fu_depth_mask_;

    /** Transient dedup scratch, clean between uses. */
    std::vector<OpId> in_need_ids_;
    std::vector<int> in_min_dist_;
    std::vector<Cycle> out_budget_;
    std::vector<ClusterId> cluster_order_scratch_;
    std::vector<int> cluster_score_scratch_;
    /** Per-depth cluster visit order (survives the recursion). */
    std::vector<std::vector<ClusterId>> c_order_;

    /** FU-class counting bound. */
    int remaining_[ir::NUM_FU_TYPES];
    int used_[ir::NUM_FU_TYPES];

    /** Search accelerators. */
    PressureTracker pressure_;
    std::vector<int> order_pos_;     ///< op -> DFS depth
    bool cbj_ = false;
    /**
     * Incremental pressure tracking is maintained only when the
     * tiebreak needs its bound; with the tiebreak off (first feasible
     * leaf wins) leaves fall back to the one-shot computeLifetimes
     * check and the search skips the per-placement interval
     * bookkeeping entirely.
     */
    bool pressure_on_ = false;
    bool jump_active_ = false;
    int jump_to_ = 0;
    std::uint64_t carry_ = 0;

    /** Budgets. */
    std::int64_t nodes_ = 0;
    std::int64_t attempt_limit_ = 0;   ///< nodes_ cap of this II attempt
    std::int64_t attempt_start_nodes_ = 0;
    std::int64_t found_nodes_ = 0;     ///< nodes_ at the first leaf
    std::int64_t tiebreak_cap_ = 0;    ///< tiebreak node allowance
    bool node_cap_ = false;
    bool deadline_on_ = false;
    std::chrono::steady_clock::time_point deadline_;
    bool budget_hit_ = false;

    bool found_ = false;
    Cycle best_pressure_ = CYCLE_MAX;
    ModuloSchedule best_;
    std::vector<int> best_max_live_;

    /**
     * @name Observability tallies
     * Plain members bumped on the hot path (an increment is cheaper
     * than the branch that would skip it) and folded once per run()
     * by foldMetrics(). A search's counts are a pure function of
     * (loop, machine, options) and fold into the deterministic
     * section.
     */
    /// @{
    void foldMetrics(const ScheduleResult &result);

    Histogram *bj_hist_ = nullptr;   ///< non-null only when metricsOn
    std::int64_t leaves_ = 0;
    std::int64_t dead_leaves_ = 0;       ///< register-overflow leaves
    std::int64_t backjumps_ = 0;         ///< jumps skipping > 1 level
    std::int64_t ii_empty_conf_ = 0;     ///< empty-conflict certificates
    std::int64_t prune_fu_ = 0;          ///< FU slot already taken
    std::int64_t prune_bus_ = 0;         ///< transfers unbookable
    std::int64_t prune_window_ = 0;      ///< empty dependence window
    std::int64_t prune_pressure_ = 0;    ///< register bound cut
    std::int64_t fu_refuted_ = 0;        ///< IIs refuted by counting
    std::int64_t ii_refuted_ = 0;        ///< IIs refuted by search
    std::int64_t lifts_ = 0;             ///< lower-bound raises
    /// @}
};

void
Searcher::snapshotNeighbours(OpId v, std::size_t k)
{
    auto &ins = in_nbs_[k];
    auto &outs = out_nbs_[k];
    ins.clear();
    outs.clear();
    std::uint64_t mask = 0;
    for (int ei : graph_.inEdges(v)) {
        const auto &e = graph_.edges()[static_cast<std::size_t>(ei)];
        if (e.src == v || !placed_[static_cast<std::size_t>(e.src)])
            continue;
        const auto &pu = sched_.placed(e.src);
        const Cycle ii_dist = ii_ * e.distance;
        const Cycle ready = pu.time + pu.outLatency;
        const Cycle base_early =
            (e.isRegFlow() ? ready : pu.time + e.latency) - ii_dist;
        ins.push_back({e.src, e.distance, e.isRegFlow(), ii_dist, ready,
                       base_early, pu.cluster});
        if (cbj_)
            mask |= 1ull << order_pos_[static_cast<std::size_t>(e.src)];
    }
    for (int ei : graph_.outEdges(v)) {
        const auto &e = graph_.edges()[static_cast<std::size_t>(ei)];
        if (e.dst == v || !placed_[static_cast<std::size_t>(e.dst)])
            continue;
        const auto &pw = sched_.placed(e.dst);
        const Cycle budget = pw.time + ii_ * e.distance;
        outs.push_back(
            {e.isRegFlow(), pw.cluster, budget, budget - e.latency});
        if (cbj_)
            mask |= 1ull << order_pos_[static_cast<std::size_t>(e.dst)];
    }
    nb_mask_[k] = mask;
}

/**
 * The per-class counting bound: every op needs one slot of its FU
 * class somewhere in the II x clusters reservation table. Placement
 * keeps remaining_[f] + used_[f] invariant (the total op count of
 * class f), so the comparison is a pure function of the II — checked
 * once per attempt before the search starts, where a failure is an
 * instant II refutation; below the root it could never fire.
 */
bool
Searcher::resourcesFit() const
{
    for (int f = 0; f < ir::NUM_FU_TYPES; ++f) {
        const auto type = static_cast<ir::FuType>(f);
        const int capacity =
            static_cast<int>(ii_) * machine_.totalFus(type);
        if (remaining_[f] > capacity - used_[f])
            return false;
    }
    return true;
}

/**
 * Book every cross-cluster transfer the placement (v -> c at t) needs,
 * earliest-fit on the lowest free bus (the same deterministic rule the
 * heuristic applies, so its schedules are all reachable). On failure
 * everything booked by this call is rolled back.
 */
bool
Searcher::bookTransfers(OpId v, ClusterId c, Cycle t, std::size_t k)
{
    const Cycle lrb = machine_.regBusLatency;
    const Cycle out_lat = graph_.opLatency(v);
    const std::size_t mark = booked_.size();
    const int depth = static_cast<int>(k);

    for (const auto &[u, min_dist] : need_in_[k]) {
        const auto &pu = sched_.placed(u);
        const Cycle x_min = pu.time + pu.outLatency;
        const Cycle x_max = t + ii_ * min_dist - lrb;
        const Cycle hi = std::min(x_max, x_min + ii_ - 1);
        bool ok = false;
        if (x_min <= hi) {
            std::size_t sx = mrt_.slot(x_min);
            for (Cycle x = x_min; x <= hi; ++x) {
                const int bus = mrt_.findFreeBusAt(sx);
                if (bus != BUS_NONE) {
                    mrt_.reserveBusAt(bus, sx);
                    booked_.push_back(
                        {u, pu.cluster, c, x, sx, bus, depth});
                    commStart(u, c) = x;
                    ok = true;
                    break;
                }
                sx = mrt_.nextSlot(sx);
            }
        }
        if (!ok) {
            unbook(mark);
            return false;
        }
    }

    for (const auto &[dest, budget] : need_out_[k]) {
        const Cycle x_min = t + out_lat;
        const Cycle x_max = budget - lrb;
        const Cycle hi = std::min(x_max, x_min + ii_ - 1);
        bool ok = false;
        if (x_min <= hi) {
            std::size_t sx = mrt_.slot(x_min);
            for (Cycle x = x_min; x <= hi; ++x) {
                const int bus = mrt_.findFreeBusAt(sx);
                if (bus != BUS_NONE) {
                    mrt_.reserveBusAt(bus, sx);
                    booked_.push_back({v, c, dest, x, sx, bus, depth});
                    commStart(v, dest) = x;
                    ok = true;
                    break;
                }
                sx = mrt_.nextSlot(sx);
            }
        }
        if (!ok) {
            unbook(mark);
            return false;
        }
    }
    return true;
}

void
Searcher::unbook(std::size_t mark)
{
    while (booked_.size() > mark) {
        const BookedComm &bc = booked_.back();
        mrt_.releaseBusAt(bc.bus, bc.xferSlot);
        commStart(bc.producer, bc.to) = CYCLE_MAX;
        booked_.pop_back();
    }
}

/**
 * Mirror the placement (v -> c at t) into the pressure tracker: a new
 * local interval when v produces a value, a local extension plus a
 * remote interval per transfer this placement booked, and extensions
 * of every placed register neighbour's interval to the new read
 * times — exactly the intervals lifetimes.cc would derive from the
 * full schedule (a debug assert in leaf() keeps the two honest).
 * Returns false when the subtree is pruned: a cluster past its
 * register file (sound in both phases — intervals only grow), or a
 * summed MaxLive already at the incumbent (tiebreak phase; leaf
 * acceptance needs a strict improvement, so the winner is unchanged).
 */
bool
Searcher::applyPressure(OpId v, ClusterId c, Cycle t,
                        std::size_t comm_mark)
{
    const Cycle lrb = machine_.regBusLatency;
    if (graph_.loop().op(v).producesValue())
        pressure_.addLocal(v, c, t + graph_.opLatency(v));
    for (std::size_t i = comm_mark; i < booked_.size(); ++i) {
        const BookedComm &bc = booked_[i];
        pressure_.extendLocal(bc.producer, bc.xferStart);
        pressure_.addRemote(bc.producer, bc.to, bc.xferStart + lrb);
    }
    for (int ei : graph_.inEdges(v)) {
        const auto &e = graph_.edges()[static_cast<std::size_t>(ei)];
        if (e.src == v || !e.isRegFlow() ||
            !placed_[static_cast<std::size_t>(e.src)])
            continue;
        const Cycle read = t + ii_ * e.distance;
        const auto &pu = sched_.placed(e.src);
        if (pu.cluster == c)
            pressure_.extendLocal(e.src, read);
        else
            pressure_.extendRemote(e.src, c, read);
    }
    for (int ei : graph_.outEdges(v)) {
        const auto &e = graph_.edges()[static_cast<std::size_t>(ei)];
        if (!e.isRegFlow() || !placed_[static_cast<std::size_t>(e.dst)])
            continue;
        const auto &pw = sched_.placed(e.dst);
        const Cycle read = pw.time + ii_ * e.distance;
        if (pw.cluster == c)
            pressure_.extendLocal(v, read);
        else
            pressure_.extendRemote(v, pw.cluster, read);
    }
    if (pressure_.overflown())
        return false;
    return !(found_ && pressure_.sumMax() >= best_pressure_);
}

Walk
Searcher::leaf()
{
    ++leaves_;
    Cycle pressure = 0;
    if (pressure_on_) {
        if (pressure_.overflown())
            return Walk::Continue;   // defensive: pruned at placement
        pressure = pressure_.sumMax();
#ifndef NDEBUG
        // The tracker must agree with the from-scratch recompute on
        // every leaf it accepts.
        const LifetimeStats lt =
            computeLifetimes(graph_, sched_, machine_, ctx_.lifetimes);
        for (std::size_t c = 0; c < lt.maxLivePerCluster.size(); ++c)
            mvp_assert(lt.maxLivePerCluster[c] ==
                           pressure_.clusterMaxes()[c],
                       "pressure tracker diverged from "
                       "computeLifetimes at a leaf");
#endif
        if (!found_ || pressure < best_pressure_) {
            best_ = sched_;
            best_max_live_ = pressure_.clusterMaxes();
            best_pressure_ = pressure;
        }
    } else {
        const LifetimeStats lt =
            computeLifetimes(graph_, sched_, machine_, ctx_.lifetimes);
        for (int ml : lt.maxLivePerCluster)
            if (ml > machine_.regsPerCluster) {
                // Dead leaf (register overflow): refuted by the placed
                // lifetimes, which every decision shaped.
                ++dead_leaves_;
                if (cbj_)
                    setJump(prefixMask(order_.size()), order_.size());
                return Walk::Continue;
            }
        for (int ml : lt.maxLivePerCluster)
            pressure += ml;
        if (!found_ || pressure < best_pressure_) {
            best_ = sched_;
            best_max_live_ = lt.maxLivePerCluster;
            best_pressure_ = pressure;
        }
    }
    if (!found_) {
        found_ = true;
        found_nodes_ = nodes_;
    }
    // A leaf implicates every decision: the tiebreak enumeration above
    // it must stay chronological (backjumping may only skip certified
    // refutations, never unexplored schedules).
    if (cbj_)
        setJump(prefixMask(order_.size()), order_.size());
    // Keep searching this II for a lower-pressure schedule (bounded by
    // the budgets), or stop at the first one when the tiebreak is off.
    return options_.tiebreakPressure ? Walk::Continue : Walk::Stop;
}

Walk
Searcher::tryPlace(OpId v, ClusterId c, Cycle t, std::size_t slot,
                   std::size_t k, std::uint64_t &conf)
{
    if (!chargeNode())
        return Walk::Abort;
    const auto fu = graph_.loop().op(v).fuType();
    if (!mrt_.fuFreeAt(slot, c, fu)) {
        ++prune_fu_;
        if (cbj_)
            conf |= fuOccupantMask(c, slot, fu);
        return Walk::Continue;
    }

    const std::size_t comm_mark = booked_.size();
    const std::size_t sched_comm_mark = sched_.comms().size();
    if (!bookTransfers(v, c, t, k)) {
        ++prune_bus_;
        if (cbj_)
            conf |= nb_mask_[k] | bookedDepthMask();
        return Walk::Continue;
    }

    // Commit the placement.
    auto &pv = sched_.placed(v);
    pv.cluster = c;
    pv.time = t;
    pv.outLatency = graph_.opLatency(v);
    pv.missScheduled = false;
    placed_[static_cast<std::size_t>(v)] = 1;
    mrt_.placeFu(t, c, fu);
    if (cbj_)
        fu_depth_mask_[fuCell(c, slot, fu)] |= 1ull << k;
    ++used_[static_cast<int>(fu)];
    --remaining_[static_cast<int>(fu)];
    if (cluster_pop_[static_cast<std::size_t>(c)]++ == 0)
        ++opened_;
    for (std::size_t i = comm_mark; i < booked_.size(); ++i) {
        const BookedComm &bc = booked_[i];
        sched_.comms().push_back(
            {bc.producer, bc.from, bc.to, bc.xferStart, bc.bus});
    }

    Walk w = Walk::Continue;
    if (pressure_on_) {
        const std::size_t pressure_mark = pressure_.mark();
        if (applyPressure(v, c, t, comm_mark)) {
            w = dfs(k + 1);
        } else {
            ++prune_pressure_;
            if (cbj_)
                conf |= prefixMask(k);
        }
        pressure_.undoTo(pressure_mark);
    } else {
        w = dfs(k + 1);
    }

    // Undo in reverse commit order.
    sched_.comms().resize(sched_comm_mark);
    if (--cluster_pop_[static_cast<std::size_t>(c)] == 0)
        --opened_;
    ++remaining_[static_cast<int>(fu)];
    --used_[static_cast<int>(fu)];
    if (cbj_)
        fu_depth_mask_[fuCell(c, slot, fu)] &= ~(1ull << k);
    mrt_.removeFu(t, c, fu);
    placed_[static_cast<std::size_t>(v)] = 0;
    pv = PlacedOp{};
    unbook(comm_mark);
    return w;
}

Walk
Searcher::dfs(std::size_t k)
{
    if (k == order_.size())
        return leaf();

    const OpId v = order_[k];
    const Cycle lrb = machine_.regBusLatency;
    const Cycle out_lat = graph_.opLatency(v);

    snapshotNeighbours(v, k);
    const auto &ins = in_nbs_[k];
    const auto &outs = out_nbs_[k];
    const bool has_pred = !ins.empty();
    const bool has_succ = !outs.empty();

    // Union of conflict citations over every refuted candidate below.
    std::uint64_t conf = 0;

    // Cluster-symmetry break: populated clusters plus one fresh one.
    // In the tiebreak phase, clusters already holding this op's
    // register neighbours go first: co-location avoids remote
    // intervals, so low-pressure incumbents surface early and the
    // incumbent bound starts cutting while the allowance lasts.
    const ClusterId c_limit = std::min<ClusterId>(
        machine_.nClusters, opened_ + 1);
    auto &c_order = c_order_[k];
    c_order.resize(static_cast<std::size_t>(c_limit));
    for (ClusterId i = 0; i < c_limit; ++i)
        c_order[static_cast<std::size_t>(i)] = i;
    if (found_ && c_limit > 1) {
        auto &score = cluster_score_scratch_;
        score.assign(static_cast<std::size_t>(c_limit), 0);
        for (const InNb &nb : ins)
            if (nb.isReg && nb.cluster < c_limit)
                ++score[static_cast<std::size_t>(nb.cluster)];
        for (const OutNb &nb : outs)
            if (nb.isReg && nb.cluster < c_limit)
                ++score[static_cast<std::size_t>(nb.cluster)];
        std::stable_sort(c_order.begin(), c_order.end(),
                         [&](ClusterId a, ClusterId b) {
                             return score[static_cast<std::size_t>(a)] >
                                    score[static_cast<std::size_t>(b)];
                         });
    }
    for (ClusterId ci = 0; ci < c_limit; ++ci) {
        const ClusterId c = c_order[static_cast<std::size_t>(ci)];
        // --- Window bounds and transfer needs for this cluster, the
        // same arithmetic as the heuristic's trySlot(). The dedup
        // scratch drains into this depth's need lists so recursion
        // below cannot clobber them. ---
        auto &need_in = need_in_[k];
        auto &need_out = need_out_[k];
        need_in.clear();
        need_out.clear();

        Cycle early = 0;
        Cycle late = NO_BOUND;
        for (const InNb &nb : ins) {
            if (nb.isReg && nb.cluster != c) {
                if (const Cycle cs = commStart(nb.src, c);
                    cs != CYCLE_MAX) {
                    early = std::max(early, cs + lrb - nb.iiDist);
                } else {
                    early = std::max(early, nb.ready + lrb - nb.iiDist);
                    auto &min_dist =
                        in_min_dist_[static_cast<std::size_t>(nb.src)];
                    if (min_dist == DIST_UNSET) {
                        in_need_ids_.push_back(nb.src);
                        min_dist = nb.distance;
                    } else {
                        min_dist = std::min(min_dist, nb.distance);
                    }
                }
            } else {
                early = std::max(early, nb.baseEarly);
            }
        }
        // Bus reservation order must not depend on edge-visit order.
        if (in_need_ids_.size() > 1)
            std::sort(in_need_ids_.begin(), in_need_ids_.end());
        for (OpId u : in_need_ids_) {
            need_in.emplace_back(
                u, in_min_dist_[static_cast<std::size_t>(u)]);
            in_min_dist_[static_cast<std::size_t>(u)] = DIST_UNSET;
        }
        in_need_ids_.clear();

        for (const OutNb &nb : outs) {
            if (nb.isReg && nb.cluster != c) {
                auto &b =
                    out_budget_[static_cast<std::size_t>(nb.cluster)];
                b = std::min(b, nb.budget);
            } else {
                late = std::min(late, nb.isReg ? nb.budget - out_lat
                                               : nb.lateNonReg);
            }
        }
        for (ClusterId dest = 0; dest < machine_.nClusters; ++dest) {
            auto &b = out_budget_[static_cast<std::size_t>(dest)];
            if (b != CYCLE_MAX) {
                late = std::min(late, b - lrb - out_lat);
                need_out.emplace_back(dest, b);
                b = CYCLE_MAX;
            }
        }
        // A cluster whose dependence window is empty is a pruned child:
        // charge it like any candidate so budget exhaustion triggers at
        // a node count fixed by the tree alone. The window was pinched
        // by this op's placed neighbours (and any transfers consulted),
        // so those are the conflict citations.
        if (has_pred && has_succ && late < early) {
            ++prune_window_;
            if (cbj_)
                conf |= nb_mask_[k] | bookedDepthMask();
            if (!chargeNode())
                return Walk::Abort;
            continue;
        }

        // --- Enumerate every candidate cycle in the window (the
        // heuristic stops at the first fit; the search tries all). ---
        if (has_succ && !has_pred) {
            const Cycle hi = std::min(late, NO_BOUND);
            const Cycle lo = hi - ii_ + 1;
            std::size_t s = mrt_.slot(hi);
            for (Cycle t = hi; t >= lo; --t) {
                const Walk w = tryPlace(v, c, t, s, k, conf);
                if (w != Walk::Continue)
                    return w;
                if (jump_active_) {
                    if (jump_to_ != static_cast<int>(k))
                        return Walk::Continue;   // not implicated: skip
                    conf |= carry_;
                    jump_active_ = false;
                }
                s = mrt_.prevSlot(s);
            }
        } else {
            // Shift-invariance: the root op anchors the schedule, so a
            // single candidate cycle covers every shifted solution.
            const Cycle hi = (k == 0 && !has_pred && !has_succ)
                                 ? early
                                 : std::min(late, early + ii_ - 1);
            std::size_t s = mrt_.slot(early);
            for (Cycle t = early; t <= hi; ++t) {
                const Walk w = tryPlace(v, c, t, s, k, conf);
                if (w != Walk::Continue)
                    return w;
                if (jump_active_) {
                    if (jump_to_ != static_cast<int>(k))
                        return Walk::Continue;   // not implicated: skip
                    conf |= carry_;
                    jump_active_ = false;
                }
                s = mrt_.nextSlot(s);
            }
        }
    }
    // Exhausted cleanly: hand the conflict set to the deepest
    // implicated decision. The candidate windows themselves were
    // carved by this op's placed neighbours (and the booked transfers
    // commStart consulted), so those decisions are implicated in the
    // exhaustion even when no individual candidate cited them —
    // moving one shifts the window to cycles this enumeration never
    // saw.
    if (cbj_)
        setJump(conf | nb_mask_[k] | bookedDepthMask(), k);
    return Walk::Continue;
}

void
Searcher::foldMetrics(const ScheduleResult &result)
{
    if (!obs::metricsOn())
        return;
    // A search is a pure function of (loop, machine, options) within
    // budget, so its counts byte-compare across job counts.
    auto &m = ctx_.metrics;
    const auto c = [&](const char *name) -> std::int64_t & {
        return m.det(std::string("exact.") + name);
    };
    c("searches") += 1;
    c("nodes") += nodes_;
    c("ii_attempts") += result.stats.iiAttempts;
    c("ii_refuted") += ii_refuted_;
    c("fu_refuted") += fu_refuted_;
    c("lifts") += lifts_;
    c("leaves") += leaves_;
    c("dead_leaves") += dead_leaves_;
    c("backjumps") += backjumps_;
    c("ii_certified_infeasible") += ii_empty_conf_;
    c("prune_fu") += prune_fu_;
    c("prune_bus") += prune_bus_;
    c("prune_window") += prune_window_;
    c("prune_pressure") += prune_pressure_;
    if (budget_hit_)
        c("budget_exhausted") += 1;
}

ScheduleResult
Searcher::run()
{
    MVP_TRACE_SPAN("exact", graph_.loop().name());
    ScheduleResult result;
    result.stats.resMii = resMii(graph_.loop(), machine_);
    result.stats.recMii = graph_.recMii();
    result.stats.mii =
        std::max(result.stats.resMii, result.stats.recMii);
    result.stats.iiLowerBound = result.stats.mii;
    if (graph_.size() == 0) {
        result.error = "empty loop";
        return result;
    }

    // Same placement order as the heuristic (computed once at MII):
    // the search tree then contains every heuristic run as one path.
    computeOrdering(graph_, result.stats.mii, order_, ctx_.ordering);

    const std::size_t n = order_.size();
    cbj_ = options_.conflictLearning && n <= 64;
    pressure_on_ = options_.tiebreakPressure;
    order_pos_.assign(graph_.size(), 0);
    for (std::size_t d = 0; d < n; ++d)
        order_pos_[static_cast<std::size_t>(order_[d])] =
            static_cast<int>(d);

    node_cap_ = options_.nodeBudget > 0;
    if (options_.timeBudgetMs >= 0) {
        deadline_on_ = true;
        deadline_ = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(options_.timeBudgetMs);
    }
    tiebreak_cap_ = options_.tiebreakBudget;

    if (obs::metricsOn())
        bj_hist_ = &ctx_.metrics.detHist("exact.backjump_depth", 0.0,
                                         65.0, 65);

    // Up to this many II attempts may burn their whole node cap
    // without settling before the search gives up; the wall-clock
    // deadline instead ends the search at the first aborted attempt
    // (time does not come back at a larger II).
    constexpr int MAX_ABORTED_ATTEMPTS = 4;
    int aborted_attempts = 0;

    for (Cycle ii = result.stats.mii; ii <= options_.maxII; ++ii) {
        MVP_TRACE_SPAN("exact-ii", graph_.loop().name(),
                       static_cast<std::int64_t>(ii));
        ++result.stats.iiAttempts;
        ii_ = ii;
        mrt_.reset(ii);
        sched_.reset(ii, graph_.size(), machine_.nClusters);
        std::fill(placed_.begin(), placed_.end(), 0);
        std::fill(comm_start_.begin(), comm_start_.end(), CYCLE_MAX);
        std::fill(cluster_pop_.begin(), cluster_pop_.end(), 0);
        opened_ = 0;
        booked_.clear();
        for (int f = 0; f < ir::NUM_FU_TYPES; ++f)
            used_[f] = 0;
        pressure_.reset(ii, machine_.nClusters, graph_.size(),
                        machine_.regsPerCluster);
        if (cbj_)
            fu_depth_mask_.assign(static_cast<std::size_t>(ii) *
                                      static_cast<std::size_t>(
                                          machine_.nClusters) *
                                      ir::NUM_FU_TYPES,
                                  0);
        jump_active_ = false;
        attempt_start_nodes_ = nodes_;
        attempt_limit_ = nodes_ + options_.nodeBudget;

        // FU counting refutes the II before the attempt pays for a
        // single node (see resourcesFit — the check is II-pure, so
        // re-evaluating it inside the search would do no work).
        if (!resourcesFit()) {
            ++fu_refuted_;
            if (result.stats.iiLowerBound == ii) {
                result.stats.iiLowerBound = ii + 1;
                ++lifts_;
            }
            mvp_verbose("exact: loop '", graph_.loop().name(),
                        "' II=", ii, " refuted by FU counting");
            continue;
        }

        const Walk w = dfs(0);
        jump_active_ = false;
        if (found_) {
            // The first feasible II is minimal over the search space;
            // it carries the certificate when it meets the lower
            // bound — MII itself, or MII raised by exhaustive
            // refutation of every II below. An aborted attempt on the
            // way here left the lower bound behind, so the schedule
            // is then reported as best-in-budget, not proven.
            result.ok = true;
            result.stats.provenOptimal =
                ii == result.stats.iiLowerBound;
            result.stats.pressureOptimal =
                options_.tiebreakPressure && w != Walk::Abort;
            break;
        }
        if (w == Walk::Abort) {
            // Budget gone with nothing found at this II: the II is
            // neither feasible-in-space nor refuted; the lower bound
            // must not rise past it. An expired deadline ends the
            // search outright; a node-cap abort moves on (a larger II
            // is usually much easier) until the abort allowance is
            // spent.
            if (deadline_on_ &&
                std::chrono::steady_clock::now() >= deadline_)
                break;
            if (++aborted_attempts >= MAX_ABORTED_ATTEMPTS)
                break;
            continue;
        }
        // DFS ran dry within budget: II == ii is refuted; the lower
        // bound rises only while refutations are gapless from MII.
        ++ii_refuted_;
        if (result.stats.iiLowerBound == ii) {
            result.stats.iiLowerBound = ii + 1;
            ++lifts_;
        }
        mvp_verbose("exact: loop '", graph_.loop().name(), "' II=", ii,
                    " refuted (", nodes_, " nodes)");
    }

    result.stats.searchNodes = nodes_;
    result.stats.budgetExhausted = budget_hit_;
    foldMetrics(result);
    if (!result.ok) {
        result.error =
            budget_hit_
                ? "exact search budget exhausted before any schedule "
                  "was found for loop '" +
                      graph_.loop().name() + "'"
                : "no feasible II up to " +
                      std::to_string(options_.maxII) + " for loop '" +
                      graph_.loop().name() + "'";
        return result;
    }

    // Normalise the winner (placement may have gone below cycle zero;
    // modulo schedules are shift-invariant) and attach MaxLive.
    Cycle min_time = 0;
    for (const auto &p : best_.placements())
        min_time = std::min(min_time, p.time);
    if (min_time < 0) {
        const Cycle shift =
            ((-min_time + best_.ii() - 1) / best_.ii()) * best_.ii();
        for (std::size_t v = 0; v < graph_.size(); ++v)
            best_.placed(static_cast<OpId>(v)).time += shift;
        for (auto &cm : best_.comms())
            cm.xferStart += shift;
    }
    best_.setMaxLive(best_max_live_);
    result.schedule = std::move(best_);
    result.stats.comms = static_cast<int>(result.schedule.numComms());
    return result;
}

} // namespace

ScheduleResult
scheduleExact(const ddg::Ddg &graph, const MachineConfig &machine,
              const ExactOptions &options, SchedContext &ctx)
{
    return Searcher(graph, machine, options, ctx).run();
}

ScheduleResult
scheduleExact(const ddg::Ddg &graph, const MachineConfig &machine,
              const ExactOptions &options)
{
    SchedContext ctx;
    return scheduleExact(graph, machine, options, ctx);
}

} // namespace mvp::sched::exact
