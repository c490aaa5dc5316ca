#include "sched/scheduler.hh"

#include <algorithm>
#include <optional>

#include "cme/reuse.hh"
#include "common/logging.hh"
#include "obs/trace.hh"
#include "sched/lifetimes.hh"
#include "sched/mii.hh"
#include "sched/mrt.hh"
#include "sched/ordering.hh"

namespace mvp::sched
{

namespace
{

constexpr double EPS = 1e-9;

using detail::Placement;

/**
 * State of one II attempt.
 *
 * Constructed once per scheduler run and re-armed with reset() for every
 * II bump, so the II search loop performs no per-attempt allocation. All
 * placement-loop scratch state lives in the caller's SchedContext (flat,
 * reusable buffers; no per-candidate maps or vectors): cross-cluster
 * communication starts are a dense [op x cluster] table, the window and
 * transfer needs of one trySlot() call come from the shared placement
 * kernel (sched/window.hh), the placed neighbourhood of the op being
 * placed is snapshotted once per place() instead of being re-walked per
 * candidate cluster, and the per-cluster locality base is cached
 * incrementally so the CME layer is queried once per (cluster,
 * candidate) instead of twice.
 */
class Attempt
{
  public:
    Attempt(const ddg::Ddg &graph, const MachineConfig &machine,
            const SchedulerOptions &options,
            detail::PlacementScratch &scratch)
        : graph_(graph), machine_(machine), options_(options),
          s_(scratch), mrt_(machine, 1),
          sched_(1, graph.size(), machine.nClusters),
          geom_(machine.clusterCacheGeom()),
          reuse_(graph.loop())
    {
        // Size the context's buffers for this graph/machine; assign()
        // reuses the capacity left by earlier scheduler runs, so a warm
        // context schedules without heap traffic.
        const auto n = graph.size();
        const auto nc = static_cast<std::size_t>(machine.nClusters);
        s_.isPlaced.assign(n, false);
        if (s_.memSet.size() < nc)
            s_.memSet.resize(nc);
        s_.overrideLat.assign(n, LAT_NO_OVERRIDE);
        s_.baseMiss.assign(nc, 0.0);
        s_.baseMissValid.assign(nc, false);
        s_.affinity.assign(nc, 0);
    }

    /** Re-arm for a fresh II attempt, reusing every buffer. */
    void reset(Cycle ii)
    {
        mrt_.reset(ii);
        sched_.reset(ii, graph_.size(), machine_.nClusters);
        std::fill(s_.isPlaced.begin(), s_.isPlaced.end(), false);
        for (auto &set : s_.memSet)
            set.clear();
        std::fill(s_.overrideLat.begin(), s_.overrideLat.end(),
                  LAT_NO_OVERRIDE);
        s_.commStart.reset(graph_.size(), machine_.nClusters);
        std::fill(s_.baseMissValid.begin(), s_.baseMissValid.end(),
                  false);
    }

    /** Place one op; false aborts the attempt (II must grow). */
    bool place(OpId v);

    /** Shift every time to non-negative (ModuloSchedule::normalize). */
    void normalize() { sched_.normalize(); }

    /** Final register-pressure check; false aborts the attempt. */
    bool checkRegisters(LifetimeScratch &lifetimes);

    ModuloSchedule takeSchedule() { return std::move(sched_); }

    const std::vector<std::vector<OpId>> &memSets() const
    {
        return s_.memSet;
    }

  private:
    bool trySlot(OpId v, ClusterId c, Cycle out_lat, Placement &out);
    bool tryCandidate(OpId v, Cycle t, std::size_t slot, Placement &out);
    void commit(OpId v, ClusterId c, const Placement &p, bool miss);
    double addedMisses(OpId v, ClusterId c);
    void computeAffinities(OpId v);
    int cachedAffinity(OpId v, ClusterId c);
    bool betterCluster(OpId v, ClusterId cand, ClusterId best,
                       double cand_miss, double best_miss, bool use_miss);

    const ddg::Ddg &graph_;
    const MachineConfig &machine_;
    const SchedulerOptions &options_;
    detail::PlacementScratch &s_;    ///< caller-owned scratch buffers
    Mrt mrt_;
    ModuloSchedule sched_;
    CacheGeom geom_;                           ///< per-cluster cache
    cme::ReuseAnalysis reuse_;                 ///< hoisted out of place()
    ir::FuType fu_ = ir::FuType::Int;          ///< FU class of current op
    bool affinity_valid_ = false;     ///< per-sweep affinity memo flag
};

bool
Attempt::trySlot(OpId v, ClusterId c, Cycle out_lat, Placement &out)
{
    Window &w = s_.window;
    if (!w.compute(s_.nbs, c, out_lat, machine_.regBusLatency,
                   s_.commStart))
        return false;
    return w.scan(mrt_, false, [&](Cycle t, std::size_t slot) {
        return tryCandidate(v, t, slot, out);
    });
}

/**
 * Evaluate one candidate cycle: FU slot plus tentative bus reservations
 * for every transfer the window needs. The reservations are always
 * rolled back — the caller re-applies them on commit; evaluation of
 * other clusters must not hold them.
 */
bool
Attempt::tryCandidate(OpId v, Cycle t, std::size_t slot, Placement &out)
{
    const Window &w = s_.window;
    if (!mrt_.fuFreeAt(slot, w.cluster, fu_))
        return false;
    out.time = t;
    out.outLatency = w.outLat;
    out.newComms.clear();
    // Fast path: no bus transfer to book, the FU slot alone decides.
    if (w.needIn.empty() && w.needOut.empty())
        return true;
    if (!w.book(mrt_, sched_, v, t, out.newComms))
        return false;
    releaseTransfers(mrt_, out.newComms);
    return true;
}

void
Attempt::commit(OpId v, ClusterId c, const Placement &p, bool miss)
{
    auto &slot = sched_.placed(v);
    slot.cluster = c;
    slot.time = p.time;
    slot.outLatency = p.outLatency;
    slot.missScheduled = miss;
    s_.isPlaced[static_cast<std::size_t>(v)] = true;
    mrt_.placeFu(p.time, c, graph_.loop().op(v).fuType());
    for (const auto &nc : p.newComms) {
        mrt_.reserveBusAt(nc.bus, nc.xferSlot);
        sched_.comms().push_back(
            {nc.producer, nc.from, nc.to, nc.xferStart, nc.bus});
        s_.commStart(nc.producer, nc.to) = nc.xferStart;
    }
    if (graph_.loop().op(v).isMemory()) {
        s_.memSet[static_cast<std::size_t>(c)].push_back(v);
        s_.baseMissValid[static_cast<std::size_t>(c)] = false;
    }
    if (miss)
        s_.overrideLat[static_cast<std::size_t>(v)] = p.outLatency;
}

double
Attempt::addedMisses(OpId v, ClusterId c)
{
    auto *loc = options_.locality;
    const auto &set = s_.memSet[static_cast<std::size_t>(c)];
    // The base set only changes when a memory op is committed to this
    // cluster, so its miss count is computed once per commit, not per
    // candidate evaluated against it.
    if (!s_.baseMissValid[static_cast<std::size_t>(c)]) {
        s_.baseMiss[static_cast<std::size_t>(c)] =
            loc->missesPerIteration(set, geom_);
        s_.baseMissValid[static_cast<std::size_t>(c)] = true;
    }
    s_.withScratch.assign(set.begin(), set.end());
    s_.withScratch.push_back(v);
    return loc->missesPerIteration(s_.withScratch, geom_) -
           s_.baseMiss[static_cast<std::size_t>(c)];
}

void
Attempt::computeAffinities(OpId v)
{
    // Output-edge profit of [22]: register edges between v and the ops
    // already placed in a cluster count double; additionally, a
    // *sibling* bond counts once — a placed node adjacent to an
    // unscheduled neighbour of v (e.g. the other operand of v's future
    // consumer). Joining that cluster lets the shared neighbour be
    // placed without any edge leaving the cluster's subgraph, which is
    // exactly the exit-edge quantity the heuristic minimises.
    //
    // One walk accumulates the profit of every cluster at once: each
    // placed neighbour contributes to its own cluster's bucket, so the
    // sweep never re-traverses the two-level neighbourhood per cluster.
    std::fill(s_.affinity.begin(), s_.affinity.end(), 0);
    auto neighbour_cluster_bonus = [&](OpId other) {
        if (other == v)
            return;
        if (s_.isPlaced[static_cast<std::size_t>(other)]) {
            s_.affinity[static_cast<std::size_t>(
                sched_.placed(other).cluster)] += 2;
            return;
        }
        // Unscheduled neighbour: look one level further.
        auto sibling = [&](OpId w) {
            if (w != v && w != other &&
                s_.isPlaced[static_cast<std::size_t>(w)])
                ++s_.affinity[static_cast<std::size_t>(
                    sched_.placed(w).cluster)];
        };
        for (int ei : graph_.inEdges(other)) {
            const auto &e = graph_.edges()[static_cast<std::size_t>(ei)];
            if (e.isRegFlow())
                sibling(e.src);
        }
        for (int ei : graph_.outEdges(other)) {
            const auto &e = graph_.edges()[static_cast<std::size_t>(ei)];
            if (e.isRegFlow())
                sibling(e.dst);
        }
    };
    for (int ei : graph_.inEdges(v)) {
        const auto &e = graph_.edges()[static_cast<std::size_t>(ei)];
        if (e.isRegFlow())
            neighbour_cluster_bonus(e.src);
    }
    for (int ei : graph_.outEdges(v)) {
        const auto &e = graph_.edges()[static_cast<std::size_t>(ei)];
        if (e.isRegFlow())
            neighbour_cluster_bonus(e.dst);
    }
}

/**
 * Affinities are invariant during one cluster sweep (no placement
 * changes mid-sweep), so the one-walk computation runs lazily on the
 * first tie-break of a sweep; place() invalidates it per op.
 */
int
Attempt::cachedAffinity(OpId v, ClusterId c)
{
    if (!affinity_valid_) {
        computeAffinities(v);
        affinity_valid_ = true;
    }
    return s_.affinity[static_cast<std::size_t>(c)];
}

bool
Attempt::betterCluster(OpId v, ClusterId cand, ClusterId best,
                       double cand_miss, double best_miss,
                       bool use_miss)
{
    if (use_miss) {
        if (cand_miss < best_miss - EPS)
            return true;
        if (cand_miss > best_miss + EPS)
            return false;
    }
    const int a_cand = cachedAffinity(v, cand);
    const int a_best = cachedAffinity(v, best);
    if (a_cand != a_best)
        return a_cand > a_best;
    // Workload balance: fewer ops of this FU class already placed.
    const int l_cand = mrt_.fuLoad(cand, fu_);
    const int l_best = mrt_.fuLoad(best, fu_);
    if (l_cand != l_best)
        return l_cand < l_best;
    return cand < best;
}

bool
Attempt::place(OpId v)
{
    const auto &op = graph_.loop().op(v);
    const Cycle hit_lat = graph_.opLatency(v);
    const bool mem_select = options_.memoryAware && op.isMemory() &&
                            options_.locality != nullptr;
    fu_ = op.fuType();
    s_.nbs.snapshot(graph_, sched_, s_.isPlaced, v);

    // Evaluate every cluster with the hit latency.
    affinity_valid_ = false;
    ClusterId best = INVALID_ID;
    double best_miss = 0.0;
    for (ClusterId c = 0; c < machine_.nClusters; ++c) {
        if (!trySlot(v, c, hit_lat, s_.curPlacement))
            continue;
        const double miss = mem_select ? addedMisses(v, c) : 0.0;
        if (best == INVALID_ID ||
            betterCluster(v, c, best, miss, best_miss, mem_select)) {
            best = c;
            std::swap(s_.bestPlacement, s_.curPlacement);
            best_miss = miss;
        }
    }
    if (best == INVALID_ID)
        return false;

    // Binding prefetching: promote likely-missing loads to the miss
    // latency in their chosen cluster (§4.3). A load whose CME miss
    // ratio exceeds the threshold is promoted; so is a load with
    // same-line (spatial group) reuse of an already-promoted leader in
    // the same cluster — its data rides the leader's outstanding fill,
    // so its consumers face the same worst-case latency (the spatial-
    // locality case §4.3 calls out).
    bool promoted = false;
    if (op.isLoad() && options_.missThreshold < 1.0 - EPS &&
        options_.locality != nullptr) {
        const double ratio = options_.locality->missRatio(
            s_.memSet[static_cast<std::size_t>(best)], v, geom_);
        bool rides_promoted_fill = false;
        if (ratio <= options_.missThreshold + EPS) {
            for (OpId u : s_.memSet[static_cast<std::size_t>(best)]) {
                if (!sched_.placed(u).missScheduled)
                    continue;
                const auto delta = reuse_.byteDelta(v, u);
                if (delta && std::llabs(*delta) <
                                 machine_.cacheLineBytes) {
                    rides_promoted_fill = true;
                    break;
                }
            }
        }
        const Cycle miss_lat = machine_.missLatency();
        if ((ratio > options_.missThreshold + EPS ||
             rides_promoted_fill) &&
            miss_lat > hit_lat) {
            // Probe in place: v is unplaced, so its override slot is
            // free; restore it unless the promotion actually commits.
            bool allowed = true;
            if (graph_.inRecurrence(v)) {
                s_.overrideLat[static_cast<std::size_t>(v)] = miss_lat;
                allowed = graph_.feasibleII(mrt_.ii(), s_.overrideLat);
                if (!allowed)
                    s_.overrideLat[static_cast<std::size_t>(v)] =
                        LAT_NO_OVERRIDE;
            }
            if (allowed) {
                if (trySlot(v, best, miss_lat, s_.curPlacement)) {
                    commit(v, best, s_.curPlacement, true);
                    promoted = true;
                } else {
                    s_.overrideLat[static_cast<std::size_t>(v)] =
                        LAT_NO_OVERRIDE;
                }
            }
        }
    }
    if (!promoted)
        commit(v, best, s_.bestPlacement, false);
    return true;
}

bool
Attempt::checkRegisters(LifetimeScratch &lifetimes)
{
    const LifetimeStats lt =
        computeLifetimes(graph_, sched_, machine_, lifetimes);
    sched_.setMaxLive(lt.maxLivePerCluster);
    for (int ml : lt.maxLivePerCluster)
        if (ml > machine_.regsPerCluster)
            return false;
    return true;
}

} // namespace

ClusteredModuloScheduler::ClusteredModuloScheduler(
    const ddg::Ddg &graph, const MachineConfig &machine,
    SchedulerOptions options)
    : graph_(graph), machine_(machine), options_(options)
{
    if ((options_.memoryAware ||
         options_.missThreshold < 1.0 - EPS) &&
        options_.locality == nullptr)
        mvp_fatal("scheduler options require a locality analysis");
    if (options_.locality &&
        &options_.locality->loop() != &graph.loop())
        mvp_fatal("locality analysis bound to a different loop");
}

ScheduleResult
ClusteredModuloScheduler::run(SchedContext &ctx)
{
    MVP_TRACE_SPAN("heuristic", graph_.loop().name());
    // Metric names carry the flavour so the A/B question ("does RMCA
    // retry IIs more often than the baseline?") reads off the report.
    const bool mets = obs::metricsOn();
    const std::string prefix =
        options_.memoryAware ? "sched.rmca." : "sched.baseline.";
    std::int64_t place_failures = 0;
    std::int64_t register_overflows = 0;

    ScheduleResult result;
    result.stats.resMii = resMii(graph_.loop(), machine_);
    result.stats.recMii = graph_.recMii();
    result.stats.mii =
        std::max(result.stats.resMii, result.stats.recMii);

    // The ordering is computed once at mII and kept across II bumps in
    // the context's order buffer.
    {
        MVP_TRACE_SPAN("ordering");
        computeOrdering(graph_, result.stats.mii, ctx.order,
                        ctx.ordering);
        result.stats.orderingBothNeighbours =
            bothNeighbourCount(graph_, ctx.order, ctx.ordering);
    }

    // One attempt object reused across II bumps (reset() re-arms it
    // without reallocating any buffer).
    Attempt attempt(graph_, machine_, options_, ctx.placement);
    for (Cycle ii = result.stats.mii; ii <= options_.maxII; ++ii) {
        MVP_TRACE_SPAN("place-ii", graph_.loop().name(),
                       static_cast<std::int64_t>(ii));
        ++result.stats.iiAttempts;
        attempt.reset(ii);
        bool ok = true;
        for (OpId v : ctx.order) {
            if (!attempt.place(v)) {
                mvp_verbose("loop '", graph_.loop().name(), "' II=", ii,
                            ": op ", v, " unplaceable");
                ok = false;
                ++place_failures;
                break;
            }
        }
        if (!ok)
            continue;
        attempt.normalize();
        if (!attempt.checkRegisters(ctx.lifetimes)) {
            mvp_verbose("loop '", graph_.loop().name(), "' II=", ii,
                        ": register pressure exceeded");
            ++register_overflows;
            continue;
        }

        if (options_.locality) {
            const CacheGeom geom = machine_.clusterCacheGeom();
            for (const auto &set : attempt.memSets())
                result.stats.predictedMissesPerIter +=
                    options_.locality->missesPerIteration(set, geom);
        }
        result.ok = true;
        result.schedule = attempt.takeSchedule();
        result.stats.comms =
            static_cast<int>(result.schedule.numComms());
        result.stats.missScheduledLoads =
            result.schedule.missScheduledLoads();
        if (mets) {
            ctx.metrics.det(prefix + "runs") += 1;
            ctx.metrics.det(prefix + "ii_attempts") +=
                result.stats.iiAttempts;
            ctx.metrics.det(prefix + "place_failures") += place_failures;
            ctx.metrics.det(prefix + "register_overflows") +=
                register_overflows;
            ctx.metrics.det(prefix + "promoted_loads") +=
                result.stats.missScheduledLoads;
        }
        return result;
    }

    result.error = "no feasible II up to " +
                   std::to_string(options_.maxII) + " for loop '" +
                   graph_.loop().name() + "'";
    if (mets) {
        ctx.metrics.det(prefix + "runs") += 1;
        ctx.metrics.det(prefix + "failed_runs") += 1;
        ctx.metrics.det(prefix + "ii_attempts") +=
            result.stats.iiAttempts;
        ctx.metrics.det(prefix + "place_failures") += place_failures;
        ctx.metrics.det(prefix + "register_overflows") +=
            register_overflows;
    }
    return result;
}

ScheduleResult
ClusteredModuloScheduler::run()
{
    SchedContext ctx;
    return run(ctx);
}

ScheduleResult
scheduleBaseline(const ddg::Ddg &graph, const MachineConfig &machine,
                 double miss_threshold, cme::LocalityAnalysis *locality)
{
    SchedulerOptions opt;
    opt.memoryAware = false;
    opt.missThreshold = miss_threshold;
    opt.locality = locality;
    return ClusteredModuloScheduler(graph, machine, opt).run();
}

ScheduleResult
scheduleRmca(const ddg::Ddg &graph, const MachineConfig &machine,
             double miss_threshold, cme::LocalityAnalysis &locality)
{
    SchedulerOptions opt;
    opt.memoryAware = true;
    opt.missThreshold = miss_threshold;
    opt.locality = &locality;
    return ClusteredModuloScheduler(graph, machine, opt).run();
}

} // namespace mvp::sched
