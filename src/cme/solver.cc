#include "cme/solver.hh"

#include <algorithm>
#include <string>
#include <tuple>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/strutil.hh"

namespace mvp::cme
{

namespace
{

/**
 * Per-thread working buffers of the solver. The analysis object is
 * shared by every worker of a parallel sweep, so the scratch cannot
 * live in the object; per-thread buffers keep the hot path
 * allocation-free exactly as the member buffers did single-threaded.
 */
struct SolverScratch
{
    std::vector<OpId> canonical;              ///< canonical-set buffer
    std::vector<LineView> lines;              ///< per-position streams
    std::vector<std::int64_t> conflicts;      ///< isMiss interference
};

SolverScratch &
solverScratch()
{
    static thread_local SolverScratch scratch;
    return scratch;
}

} // namespace

CmeAnalysis::CmeAnalysis(const ir::LoopNest &nest, CmeParams params,
                         std::shared_ptr<StreamCache> streams)
    : nest_(nest), params_(params), streams_(std::move(streams))
{
    mvp_assert(params_.minSamples > 0 && params_.maxSamples >=
               params_.minSamples, "bad CME sampling parameters");
    if (!streams_)
        streams_ = std::make_shared<StreamCache>(nest_);
    mvp_assert(&streams_->loop() == &nest_,
               "stream cache bound to a different loop");
}

std::string
CmeAnalysis::samplingKey(const std::vector<OpId> &set, OpId op,
                         const CacheGeom &geom)
{
    std::string key;
    key.reserve(16 + set.size() * 4);
    key += std::to_string(geom.capacityBytes);
    key += '/';
    key += std::to_string(geom.lineBytes);
    key += '/';
    key += std::to_string(geom.assoc);
    key += ':';
    key += std::to_string(op);
    key += '|';
    for (OpId o : set) {
        key += std::to_string(o);
        key += ',';
    }
    return key;
}

bool
CmeAnalysis::isMiss(const LineView *lines, std::size_t nops,
                    std::size_t ref_pos, std::int64_t point,
                    const CacheGeom &geom,
                    std::vector<std::int64_t> &conflicts)
{
    points_.fetch_add(1, std::memory_order_relaxed);
    const std::int64_t num_sets = geom.numSets();
    mvp_assert(num_sets > 0, "cache with no sets");

    const std::int64_t target_line = lines[ref_pos][point];
    const std::int64_t target_set = target_line % num_sets;

    // Distinct interfering lines seen so far in the target set.
    conflicts.clear();
    conflicts.reserve(static_cast<std::size_t>(geom.assoc));

    // Walk the interleaved access stream backwards: position-minor,
    // point-major, exactly the order the un-cached walk produced by
    // decrementing the IV vector in place.
    std::int64_t cur_point = point;
    auto cur_pos = static_cast<std::int64_t>(ref_pos);
    int walked = 0;

    for (;;) {
        if (--cur_pos < 0) {
            if (cur_point == 0)
                return true;   // start of the stream: cold miss
            --cur_point;
            cur_pos = static_cast<std::int64_t>(nops) - 1;
        }
        if (++walked > params_.maxWalk)
            return true;   // reuse beyond the window: treat as miss
        const std::int64_t line =
            lines[static_cast<std::size_t>(cur_pos)][cur_point];
        if (line == target_line) {
            // Reuse source found: the replacement equation fires iff the
            // interference already filled the set.
            return static_cast<int>(conflicts.size()) >= geom.assoc;
        }
        if (line % num_sets == target_set &&
            std::find(conflicts.begin(), conflicts.end(), line) ==
                conflicts.end()) {
            conflicts.push_back(line);
            if (static_cast<int>(conflicts.size()) >= geom.assoc)
                return true;   // set already refilled: guaranteed miss
        }
    }
}

detail::RatioValue
CmeAnalysis::solveRatio(const std::vector<OpId> &set, OpId op,
                        const CacheGeom &geom)
{
    const detail::QueryKeyRef ref{detail::queryHash(geom, op, set), &geom,
                                  op, &set};
    lookups_.fetch_add(1, std::memory_order_relaxed);
    if (detail::RatioValue hit; memo_.lookup(ref, &hit))
        return hit;
    queries_.fetch_add(1, std::memory_order_relaxed);

    const auto pos_it = std::find(set.begin(), set.end(), op);
    mvp_assert(pos_it != set.end(), "op not in reference set");
    const auto ref_pos =
        static_cast<std::size_t>(pos_it - set.begin());

    SolverScratch &scratch = solverScratch();
    // One shard-locked fetch per set position; from here the sampling
    // walk touches nothing but flat arrays.
    scratch.lines.clear();
    for (OpId o : set)
        scratch.lines.push_back(
            streams_->lines(o, geom.lineBytes).view());
    const LineView *lines = scratch.lines.data();
    const std::size_t nops = set.size();

    detail::RatioValue value;
    const std::int64_t points = streams_->points();
    if (points <= params_.maxSamples) {
        // Exhaustive mode: evaluate every iteration point.
        std::int64_t misses = 0;
        for (std::int64_t p = 0; p < points; ++p)
            misses += isMiss(lines, nops, ref_pos, p, geom,
                             scratch.conflicts)
                          ? 1
                          : 0;
        value.ratio =
            static_cast<double>(misses) / static_cast<double>(points);
    } else {
        // The sampling seed is a pure function of the query key, so two
        // threads racing on the same fresh query draw identical sample
        // sequences and compute identical ratios.
        Rng rng(params_.seed ^ fnv1a(samplingKey(set, op, geom)));
        RunningStat stat;
        while (static_cast<int>(stat.count()) < params_.maxSamples) {
            const auto p = static_cast<std::int64_t>(
                rng.nextBounded(static_cast<std::uint64_t>(points)));
            stat.add(isMiss(lines, nops, ref_pos, p, geom,
                            scratch.conflicts)
                         ? 1.0
                         : 0.0);
            if (static_cast<int>(stat.count()) >= params_.minSamples &&
                stat.ciHalfWidth() <= params_.ciTarget)
                break;
        }
        value.ratio = stat.mean();
        value.ciHalfWidth = stat.ciHalfWidth();
    }

    return memo_.tryInsert(ref, value);
}

double
CmeAnalysis::missRatio(const std::vector<OpId> &set, OpId op,
                       const CacheGeom &geom)
{
    return estimateRatio(set, op, geom).ratio;
}

RatioEstimate
CmeAnalysis::estimateRatio(const std::vector<OpId> &set, OpId op,
                           const CacheGeom &geom)
{
    mvp_assert(nest_.op(op).isMemory(), "missRatio of a non-memory op");
    return solveRatio(
        detail::canonicalInto(solverScratch().canonical, set, op), op,
        geom);
}

double
CmeAnalysis::missesPerIteration(const std::vector<OpId> &set,
                                const CacheGeom &geom)
{
    const std::vector<OpId> &s =
        detail::canonicalInto(solverScratch().canonical, set);
    double total = 0.0;
    for (std::size_t i = 0; i < s.size(); ++i)
        total += solveRatio(s, s[i], geom).ratio;
    return total;
}

std::vector<CmeMemoEntry>
CmeAnalysis::exportMemo() const
{
    std::vector<CmeMemoEntry> out;
    memo_.forEach([&](const detail::QueryKey &key,
                      const detail::RatioValue &value) {
        out.push_back({key.geom, key.op, key.set, value});
    });
    std::sort(out.begin(), out.end(),
              [](const CmeMemoEntry &a, const CmeMemoEntry &b) {
                  const auto ka = std::tie(a.geom.capacityBytes,
                                           a.geom.lineBytes, a.geom.assoc,
                                           a.op, a.set);
                  const auto kb = std::tie(b.geom.capacityBytes,
                                           b.geom.lineBytes, b.geom.assoc,
                                           b.op, b.set);
                  return ka < kb;
              });
    return out;
}

void
CmeAnalysis::importMemo(const std::vector<CmeMemoEntry> &entries)
{
    for (const CmeMemoEntry &entry : entries) {
        const detail::QueryKeyRef ref{
            detail::queryHash(entry.geom, entry.op, entry.set),
            &entry.geom, entry.op, &entry.set};
        memo_.tryInsert(ref, entry.value);
    }
}

} // namespace mvp::cme
