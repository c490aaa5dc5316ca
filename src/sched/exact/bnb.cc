#include "sched/exact/bnb.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "obs/trace.hh"
#include "sched/exact/pressure.hh"
#include "sched/ladder.hh"
#include "sched/lifetimes.hh"
#include "sched/mrt.hh"
#include "sched/ordering.hh"
#include "sched/window.hh"

namespace mvp::sched::exact
{

namespace
{

/** Outcome of one DFS subtree. */
enum class Walk
{
    Continue,   ///< subtree exhausted, keep searching siblings
    Stop,       ///< a satisfying schedule was found, unwind
    Abort,      ///< budget exhausted, unwind
};

/**
 * Depth-first branch-and-bound over (op -> cluster, cycle) placements
 * at one II at a time. State mirrors the heuristic Attempt — the same
 * Mrt, the same comm-start table, the same placement kernel
 * (sched/window.hh) — but every commit is invertible, which is what
 * turns the greedy placement loop into an exhaustive search. Two
 * symmetry breaks keep the tree small without losing any schedule
 * shape:
 *
 *  - the first op is pinned to cycle 0 (modulo schedules are
 *    shift-invariant, so every solution has a shifted twin there);
 *  - an op may only enter a cluster that is already populated or the
 *    single lowest-numbered empty one (clusters are interchangeable in
 *    the machine model, so every solution has a relabelled twin whose
 *    clusters first appear in DFS order).
 *
 * The II ladder, its budgets and the certificate are climbIiLadder()'s
 * (sched/ladder.hh); the Searcher is its per-II probe.
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
class Searcher final : public IiProber
{
  public:
    Searcher(const ddg::Ddg &graph, const MachineConfig &machine,
             const SchedulerOptions &options, const ExactOptions &toggles,
             SchedContext &ctx)
        : graph_(graph), machine_(machine), options_(options),
          toggles_(toggles), ctx_(ctx), s_(ctx.search),
          mrt_(s_.mrt), sched_(s_.sched), comm_start_(s_.commStart),
          booked_(s_.booked), cluster_pop_(s_.clusterPop),
          pressure_(s_.pressure)
    {
    }

    /** @name The ladder's probe (sched/ladder.hh) */
    /// @{
    void begin(Cycle mii, SearchClock &clock) override;
    Probe probe(Cycle ii) override;
    bool budgetHit() const override { return budget_hit_; }
    void finish(ScheduleResult &result) override;
    /// @}

  private:
    Walk dfs(std::size_t k);
    Walk leaf();
    Walk tryPlace(const SearchLevel &lv, ClusterId c, Cycle t,
                  std::size_t slot, std::size_t k, std::uint64_t &conf);
    bool applyPressure(const SearchLevel &lv, ClusterId c, Cycle t,
                       std::span<const NewComm> booked);

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
        if (found_ && nodes_ - found_nodes_ > DEFAULT_TIEBREAK_BUDGET)
            return false;
        if ((nodes_ & 63) == 1 && clock_->expired()) {
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
        return s_.fuDepthMask[fuCell(c, slot, fu)];
    }
    /// @}

    /** Entries [@p from, @p to) of the per-depth edge table. */
    std::span<const NbEdge> edges(std::uint32_t from,
                                  std::uint32_t to) const
    {
        return std::span(s_.edges).subspan(from, to - from);
    }

    const ddg::Ddg &graph_;
    const MachineConfig &machine_;
    const SchedulerOptions &options_;
    const ExactOptions &toggles_;
    SchedContext &ctx_;   ///< ordering + lifetime scratch
    /**
     * The search state lives in the context (SchedContext::search), so
     * a warm context searches allocation-free; the members below are
     * the hot parts of it under their own names.
     */
    SearchScratch &s_;

    Cycle ii_ = 1;
    Mrt &mrt_;
    ModuloSchedule &sched_;
    CommStarts &comm_start_;
    /**
     * Undo stack of booked transfers: backtracking releases the bus
     * and the comm-start entry.
     */
    std::vector<NewComm> &booked_;
    /**
     * Depths whose placements booked the transfers booked_ holds, so
     * a candidate refuted by bus saturation cites the decisions whose
     * transfers crowd the window.
     */
    std::uint64_t booked_mask_ = 0;
    std::vector<int> &cluster_pop_;    ///< ops per cluster
    ClusterId opened_ = 0;             ///< populated clusters

    /** Search accelerators. */
    PressureTracker &pressure_;
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
    std::int64_t found_nodes_ = 0;     ///< nodes_ at the first leaf
    bool node_cap_ = false;
    SearchClock *clock_ = nullptr;
    bool budget_hit_ = false;

    bool found_ = false;
    bool pressure_optimal_ = false;
    Cycle best_pressure_ = CYCLE_MAX;

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
    std::int64_t ii_refuted_ = 0;        ///< IIs refuted by search
    /// @}
};

/**
 * Mirror the placement (v -> c at t) into the pressure tracker: a new
 * local interval when v produces a value, a local extension plus a
 * remote interval per transfer this placement @p booked, and extensions
 * of every placed register neighbour's interval to the new read
 * times — exactly the intervals lifetimes.cc would derive from the
 * full schedule (a debug assert in leaf() keeps the two honest).
 * Returns false when the subtree is pruned: a cluster past its
 * register file (sound in both phases — intervals only grow), or a
 * summed MaxLive already at the incumbent (tiebreak phase; leaf
 * acceptance needs a strict improvement, so the winner is unchanged).
 * Both only rise as intervals are added or extended, so the mirroring
 * stops at the first mutation that cuts; the caller's undoTo() rolls
 * back whatever was applied.
 */
bool
Searcher::applyPressure(const SearchLevel &lv, ClusterId c, Cycle t,
                        std::span<const NewComm> booked)
{
    const auto cut = [&] {
        return pressure_.overflown() ||
               (found_ && pressure_.sumMax() >= best_pressure_);
    };
    const Cycle lrb = machine_.regBusLatency;
    const OpId v = lv.op;
    if (lv.producesValue) {
        pressure_.addLocal(v, c, t + lv.outLat);
        if (cut())
            return false;
    }
    for (const NewComm &bc : booked) {
        pressure_.extendLocal(bc.producer, bc.xferStart);
        pressure_.addRemote(bc.producer, bc.to, bc.xferStart + lrb);
        if (cut())
            return false;
    }
    for (const NbEdge &e : edges(lv.in, lv.out)) {
        if (!e.isReg)
            continue;
        const Cycle read = t + ii_ * e.distance;
        if (sched_.placed(e.op).cluster == c)
            pressure_.extendLocal(e.op, read);
        else
            pressure_.extendRemote(e.op, c, read);
        if (cut())
            return false;
    }
    for (const NbEdge &e : edges(lv.regOut, lv.end)) {
        const PlacedOp &pw = sched_.placed(e.op);
        const Cycle read = pw.time + ii_ * e.distance;
        if (pw.cluster == c)
            pressure_.extendLocal(v, read);
        else
            pressure_.extendRemote(v, pw.cluster, read);
        if (cut())
            return false;
    }
    return true;
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
            s_.best = sched_;
            s_.bestMaxLive = pressure_.clusterMaxes();
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
                    setJump(prefixMask(s_.order.size()), s_.order.size());
                return Walk::Continue;
            }
        for (int ml : lt.maxLivePerCluster)
            pressure += ml;
        if (!found_ || pressure < best_pressure_) {
            s_.best = sched_;
            s_.bestMaxLive = lt.maxLivePerCluster;
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
        setJump(prefixMask(s_.order.size()), s_.order.size());
    // Keep searching this II for a lower-pressure schedule (bounded by
    // the budgets), or stop at the first one when the tiebreak is off.
    return toggles_.tiebreakPressure ? Walk::Continue : Walk::Stop;
}

Walk
Searcher::tryPlace(const SearchLevel &lv, ClusterId c, Cycle t,
                   std::size_t slot, std::size_t k, std::uint64_t &conf)
{
    if (!chargeNode())
        return Walk::Abort;
    const OpId v = lv.op;
    const ir::FuType fu = lv.fu;
    if (!mrt_.fuFreeAt(slot, c, fu)) {
        ++prune_fu_;
        if (cbj_)
            conf |= fuOccupantMask(c, slot, fu);
        return Walk::Continue;
    }

    const std::size_t comm_mark = booked_.size();
    if (!s_.win[k].book(mrt_, sched_, v, t, booked_)) {
        ++prune_bus_;
        if (cbj_)
            conf |= lv.nbMask | booked_mask_;
        return Walk::Continue;
    }

    // The placement itself: the pressure bound reads it (through a
    // register self-edge), the levels below read everything else.
    PlacedOp &pv = sched_.placed(v);
    pv = {c, t, lv.outLat, false};
    const auto fresh = std::span<const NewComm>(booked_).subspan(comm_mark);
    const std::size_t pressure_mark = pressure_.mark();
    Walk w = Walk::Continue;
    if (pressure_on_ && !applyPressure(lv, c, t, fresh)) {
        // Cut by the register bound before anything below could read
        // the rest of the commit, so it is skipped.
        ++prune_pressure_;
        if (cbj_)
            conf |= prefixMask(k);
    } else {
        // Commit the placement.
        mrt_.placeFuAt(slot, c, fu);
        if (cbj_)
            s_.fuDepthMask[fuCell(c, slot, fu)] |= 1ull << k;
        if (cluster_pop_[static_cast<std::size_t>(c)]++ == 0)
            ++opened_;
        const std::uint64_t booked_mask = booked_mask_;
        if (!fresh.empty())
            booked_mask_ |= 1ull << k;
        const std::size_t sched_comm_mark = sched_.comms().size();
        for (const NewComm &bc : fresh) {
            comm_start_(bc.producer, bc.to) = bc.xferStart;
            sched_.comms().push_back(
                {bc.producer, bc.from, bc.to, bc.xferStart, bc.bus});
        }

        w = dfs(k + 1);

        // Undo in reverse commit order (re-reading this placement's
        // transfers: the levels below may have moved booked_).
        for (const NewComm &bc :
             std::span<const NewComm>(booked_).subspan(comm_mark))
            comm_start_(bc.producer, bc.to) = CYCLE_MAX;
        sched_.comms().resize(sched_comm_mark);
        booked_mask_ = booked_mask;
        if (--cluster_pop_[static_cast<std::size_t>(c)] == 0)
            --opened_;
        if (cbj_)
            s_.fuDepthMask[fuCell(c, slot, fu)] &= ~(1ull << k);
        mrt_.removeFuAt(slot, c, fu);
    }
    if (pressure_on_)
        pressure_.undoTo(pressure_mark);
    pv = PlacedOp{};
    releaseTransfers(mrt_, std::span(booked_).subspan(comm_mark));
    booked_.resize(comm_mark);
    return w;
}

Walk
Searcher::dfs(std::size_t k)
{
    if (k == s_.order.size())
        return leaf();

    const SearchLevel &lv = s_.levels[k];
    Neighbours &nbs = s_.nbs[k];
    nbs.clear();
    for (const NbEdge &e : edges(lv.in, lv.out))
        nbs.addIn(e, sched_);
    for (const NbEdge &e : edges(lv.out, lv.regOut))
        nbs.addOut(e, sched_);

    // Union of conflict citations over every refuted candidate below.
    std::uint64_t conf = 0;

    // Cluster-symmetry break: populated clusters plus one fresh one.
    // In the tiebreak phase, clusters already holding this op's
    // register neighbours go first: co-location avoids remote
    // intervals, so low-pressure incumbents surface early and the
    // incumbent bound starts cutting while the allowance lasts.
    const ClusterId c_limit = std::min<ClusterId>(
        machine_.nClusters, opened_ + 1);
    ClusterId *c_order =
        s_.clusterOrder.data() +
        k * static_cast<std::size_t>(machine_.nClusters);
    for (ClusterId i = 0; i < c_limit; ++i)
        c_order[i] = i;
    if (found_ && c_limit > 1) {
        int *score = s_.clusterScore.data();
        std::fill(score, score + c_limit, 0);
        for (const InNb &nb : nbs.in)
            if (nb.isReg && nb.cluster < c_limit)
                ++score[nb.cluster];
        for (const OutNb &nb : nbs.out)
            if (nb.isReg && nb.cluster < c_limit)
                ++score[nb.cluster];
        // Stable insertion sort by descending score: a handful of
        // clusters, sorted in place.
        for (ClusterId i = 1; i < c_limit; ++i) {
            const ClusterId x = c_order[i];
            ClusterId j = i;
            for (; j > 0 && score[c_order[j - 1]] < score[x]; --j)
                c_order[j] = c_order[j - 1];
            c_order[j] = x;
        }
    }
    // The window lives in this depth's slot, so recursion below cannot
    // clobber it.
    Window &win = s_.win[k];
    for (ClusterId ci = 0; ci < c_limit; ++ci) {
        const ClusterId c = c_order[ci];
        // A cluster whose dependence window is empty is a pruned child:
        // charge it like any candidate so budget exhaustion triggers at
        // a node count fixed by the tree alone. The window was pinched
        // by this op's placed neighbours (and any transfers consulted),
        // so those are the conflict citations.
        if (!win.compute(nbs, c, lv.outLat, machine_.regBusLatency,
                         comm_start_)) {
            ++prune_window_;
            if (cbj_)
                conf |= lv.nbMask | booked_mask_;
            if (!chargeNode())
                return Walk::Abort;
            continue;
        }

        // --- Enumerate every candidate cycle in the window (the
        // heuristic stops at the first fit; the search tries all). The
        // root op anchors the schedule (shift invariance). A jump to a
        // shallower depth skips the rest of this level. ---
        Walk w = Walk::Continue;
        win.scan(mrt_, k == 0, [&](Cycle t, std::size_t s) {
            w = tryPlace(lv, c, t, s, k, conf);
            if (w != Walk::Continue)
                return true;
            if (jump_active_) {
                if (jump_to_ != static_cast<int>(k))
                    return true;   // not implicated: skip
                conf |= carry_;
                jump_active_ = false;
            }
            return false;
        });
        if (w != Walk::Continue || jump_active_)
            return w;
    }
    // Exhausted cleanly: hand the conflict set to the deepest
    // implicated decision. The candidate windows themselves were
    // carved by this op's placed neighbours (and the booked transfers
    // commStart consulted), so those decisions are implicated in the
    // exhaustion even when no individual candidate cited them —
    // moving one shifts the window to cycles this enumeration never
    // saw.
    if (cbj_)
        setJump(conf | lv.nbMask | booked_mask_, k);
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
    c("tiebreak_nodes") += found_ ? nodes_ - found_nodes_ : 0;
    c("ii_attempts") += result.stats.iiAttempts;
    c("ii_refuted") += ii_refuted_;
    c("lifts") += result.stats.iiLowerBound - result.stats.mii;
    c("leaves") += leaves_;
    c("dead_leaves") += dead_leaves_;
    c("backjumps") += backjumps_;
    c("ii_certified_infeasible") += ii_empty_conf_;
    c("prune_fu") += prune_fu_;
    c("prune_bus") += prune_bus_;
    c("prune_window") += prune_window_;
    c("prune_pressure") += prune_pressure_;
    if (result.stats.budgetExhausted)
        c("budget_exhausted") += 1;
}

void
Searcher::begin(Cycle mii, SearchClock &clock)
{
    // Same placement order as the heuristic (computed once at MII):
    // the search tree then contains every heuristic run as one path.
    computeOrdering(graph_, mii, s_.order, ctx_.ordering);

    const std::size_t n = s_.order.size();
    const auto nc = static_cast<std::size_t>(machine_.nClusters);
    cbj_ = toggles_.conflictLearning && n <= 64;
    pressure_on_ = toggles_.tiebreakPressure;
    s_.orderPos.assign(graph_.size(), 0);
    for (std::size_t d = 0; d < n; ++d)
        s_.orderPos[static_cast<std::size_t>(s_.order[d])] =
            static_cast<int>(d);

    // Per-depth tables: depth d has order[0..d) placed, so a neighbour
    // is placed there iff its depth is below d.
    s_.levels.resize(n);
    s_.edges.clear();
    const auto placedBefore = [&](OpId u, std::size_t d) {
        return static_cast<std::size_t>(
                   s_.orderPos[static_cast<std::size_t>(u)]) < d;
    };
    const auto edgeCount = [&] {
        return static_cast<std::uint32_t>(s_.edges.size());
    };
    const auto depthBit = [&](OpId u) {
        return cbj_ ? 1ull << s_.orderPos[static_cast<std::size_t>(u)]
                    : 0;
    };
    for (std::size_t d = 0; d < n; ++d) {
        const OpId v = s_.order[d];
        SearchLevel &lv = s_.levels[d];
        const ir::Operation &op = graph_.loop().op(v);
        lv.op = v;
        lv.fu = op.fuType();
        lv.outLat = graph_.opLatency(v);
        lv.producesValue = op.producesValue();
        lv.nbMask = 0;
        lv.in = edgeCount();
        for (int ei : graph_.inEdges(v)) {
            const auto &e = graph_.edges()[static_cast<std::size_t>(ei)];
            if (e.src == v || !placedBefore(e.src, d))
                continue;
            s_.edges.push_back(
                {e.src, e.distance, e.latency, e.isRegFlow()});
            lv.nbMask |= depthBit(e.src);
        }
        lv.out = edgeCount();
        for (int ei : graph_.outEdges(v)) {
            const auto &e = graph_.edges()[static_cast<std::size_t>(ei)];
            if (e.dst == v || !placedBefore(e.dst, d))
                continue;
            s_.edges.push_back(
                {e.dst, e.distance, e.latency, e.isRegFlow()});
            lv.nbMask |= depthBit(e.dst);
        }
        lv.regOut = edgeCount();
        for (int ei : graph_.outEdges(v)) {
            const auto &e = graph_.edges()[static_cast<std::size_t>(ei)];
            if (e.isRegFlow() && (e.dst == v || placedBefore(e.dst, d)))
                s_.edges.push_back({e.dst, e.distance, e.latency, true});
        }
        lv.end = edgeCount();
    }

    // Per-depth slots grow to the deepest search and never shrink, so
    // their buffers keep their capacity across searches.
    if (s_.nbs.size() < n)
        s_.nbs.resize(n);
    if (s_.win.size() < n)
        s_.win.resize(n);
    s_.clusterOrder.resize(n * nc);
    s_.clusterScore.resize(nc);
    cluster_pop_.assign(nc, 0);

    node_cap_ = options_.searchBudget > 0;
    clock_ = &clock;

    if (obs::metricsOn())
        bj_hist_ = &ctx_.metrics.detHist("exact.backjump_depth", 0.0,
                                         65.0, 65);
}

Probe
Searcher::probe(Cycle ii)
{
    MVP_TRACE_SPAN("exact-ii", graph_.loop().name(),
                   static_cast<std::int64_t>(ii));
    ii_ = ii;
    mrt_.reset(machine_, ii);
    sched_.reset(ii, graph_.size(), machine_.nClusters);
    comm_start_.reset(graph_.size(), machine_.nClusters);
    std::fill(cluster_pop_.begin(), cluster_pop_.end(), 0);
    opened_ = 0;
    booked_.clear();
    booked_mask_ = 0;
    pressure_.reset(ii, machine_.nClusters, graph_.size(),
                    machine_.regsPerCluster);
    if (cbj_)
        s_.fuDepthMask.assign(static_cast<std::size_t>(ii) *
                                  static_cast<std::size_t>(
                                      machine_.nClusters) *
                                  ir::NUM_FU_TYPES,
                              0);
    jump_active_ = false;
    attempt_limit_ = nodes_ + options_.searchBudget;

    const Walk w = dfs(0);
    jump_active_ = false;
    if (found_) {
        // The first feasible II is minimal over the search space.
        pressure_optimal_ =
            toggles_.tiebreakPressure && w != Walk::Abort;
        return Probe::Feasible;
    }
    if (w == Walk::Abort)
        return Probe::Aborted;
    // DFS ran dry within budget: II == ii is refuted.
    ++ii_refuted_;
    mvp_verbose("exact: loop '", graph_.loop().name(), "' II=", ii,
                " refuted (", nodes_, " nodes)");
    return Probe::Refuted;
}

void
Searcher::finish(ScheduleResult &result)
{
    result.stats.searchNodes = nodes_;
    foldMetrics(result);
    if (!result.ok)
        return;
    result.stats.pressureOptimal = pressure_optimal_;

    // Copy the incumbent out: the context keeps its buffers.
    result.schedule = s_.best;
    result.schedule.normalize();
    result.schedule.setMaxLive(s_.bestMaxLive);
    result.stats.comms = static_cast<int>(result.schedule.numComms());
}

} // namespace

ScheduleResult
scheduleExact(const ddg::Ddg &graph, const MachineConfig &machine,
              const SchedulerOptions &options, SchedContext &ctx,
              const ExactOptions &toggles)
{
    MVP_TRACE_SPAN("exact", graph.loop().name());
    Searcher searcher(graph, machine, options, toggles, ctx);
    return climbIiLadder(graph, machine, options, searcher);
}

ScheduleResult
scheduleExact(const ddg::Ddg &graph, const MachineConfig &machine,
              const SchedulerOptions &options, const ExactOptions &toggles)
{
    SchedContext ctx;
    return scheduleExact(graph, machine, options, ctx, toggles);
}

} // namespace mvp::sched::exact
