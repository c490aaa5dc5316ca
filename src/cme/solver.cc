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
 * One set position's place in a backward walk: the next point it has
 * not yet examined, that point's place in its innermost run and the
 * address the position touches there, plus the lowest point inside
 * the walk window.
 */
struct Cursor
{
    std::int64_t q;      ///< next point to examine (below qmin: done)
    std::int64_t k;      ///< q's index within its innermost run
    std::size_t run;     ///< q's innermost run
    Addr addr;           ///< address touched at q
    std::int64_t qmin;   ///< lowest point within the walk window
};

/**
 * Per-thread working buffers of the solver. The analysis object is
 * shared by every worker of a parallel sweep, so the scratch cannot
 * live in the object; per-thread buffers keep the hot path
 * allocation-free exactly as the member buffers did single-threaded.
 * The per-position vectors grow to the largest set queried.
 */
struct SolverScratch
{
    std::vector<OpId> canonical;               ///< canonical-set buffer
    std::vector<const AffineStream *> streams; ///< per-position streams
    std::vector<Cursor> cursors;               ///< per-position walk state
    std::vector<std::int64_t> conflicts;       ///< isMiss interference
};

SolverScratch &
solverScratch()
{
    static thread_local SolverScratch scratch;
    return scratch;
}

/** What one query's walks share: the geometry, hoisted. */
struct WalkGeom
{
    LineMap lineOf;
    std::int64_t numSets;
    std::size_t assoc;
    int maxWalk;
};

/**
 * Re-seed a cursor that just stepped back across a run boundary
 * (k == -1) on the last point of the previous run.
 */
void
reseed(Cursor &c, const AffineStream &stream)
{
    --c.run;
    c.k = stream.inner - 1;
    c.addr = stream.starts[c.run] + static_cast<Addr>(c.k) * stream.stride;
}

/** Step the cursor back one point. */
void
stepBack(Cursor &c, const AffineStream &stream)
{
    --c.q;
    c.addr -= stream.stride;
    if (--c.k < 0 && c.q >= 0)
        reseed(c, stream);
}

/**
 * Advance the cursor backwards until it rests on an access that maps
 * into @p target_set at a point >= @p limit (returns true) or has
 * examined every point down to @p limit (returns false). Inside a run
 * this is a tight loop on one running address: a subtract, a shift
 * (for power-of-two lines, @p SHIFT) and a set test per point.
 */
template <bool SHIFT>
bool
scanTo(Cursor &c, std::int64_t limit, const AffineStream &stream,
       const WalkGeom &g, std::int64_t target_set)
{
    while (c.q >= limit) {
        const std::int64_t steps = std::min(c.k, c.q - limit) + 1;
        Addr a = c.addr;
        std::int64_t i = 0;
        for (; i < steps; ++i, a -= stream.stride)
            if (CacheGeom::setOfLine(g.lineOf.map<SHIFT>(a), g.numSets) ==
                target_set)
                break;
        c.addr = a;
        c.q -= i;
        c.k -= i;
        if (i < steps)
            return true;
        if (c.k < 0 && c.q >= 0)
            reseed(c, stream);
    }
    return false;
}

/**
 * Decide hit/miss for position @p ref_pos of the set (whose streams are
 * in @p scratch) at iteration point @p point by evaluating the
 * cold/replacement equations with a bounded backward walk.
 *
 * The equations walk the interleaved access stream backwards,
 * point-major and position-minor: positions ref_pos-1 .. 0 of
 * @p point, then every position of each earlier point, until the
 * reuse source, a full set of interfering lines, the stream's start
 * or the maxWalk-th access. Only accesses that map into the target
 * set (the target line's own included) can decide the walk, so each
 * position is scanned on its own, with one running address stepped by
 * the stride (re-seeded from the run starts at run boundaries), and
 * the positions' in-set accesses are merged back into walk order: the
 * latest point first, the highest position first within a point. Scans
 * advance in widening point windows so no position runs far past the
 * access that decides the walk. The walk divides only when the line
 * size (@p SHIFT false) or the set count is not a power of two.
 */
template <bool SHIFT>
bool
isMiss(SolverScratch &scratch, std::size_t ref_pos, std::int64_t point,
       const WalkGeom g)   // by value: cursor stores cannot alias it
{
    const AffineStream *const *streams = scratch.streams.data();
    Cursor *cursors = scratch.cursors.data();
    const auto nops = static_cast<std::int64_t>(scratch.streams.size());
    const auto ref = static_cast<std::int64_t>(ref_pos);

    // The walk window per position. The walk index (1-based) of
    // position j is ref - j at `point` and ref + d * nops + (nops - j)
    // at point - 1 - d; indices up to maxWalk are walked.
    const std::int64_t window = std::max(g.maxWalk, 0);
    const std::int64_t rest = window - ref;   // left after `point`
    const std::int64_t full = rest >= 0 ? rest / nops : 0;
    const std::int64_t part = rest >= 0 ? rest % nops : 0;
    const std::int64_t inner = streams[0]->inner;
    const auto run = static_cast<std::size_t>(point / inner);
    const std::int64_t k = point % inner;
    std::int64_t target_line = 0;
    for (std::int64_t j = 0; j < nops; ++j) {
        Cursor &c = cursors[j];
        const AffineStream &stream = *streams[j];
        c.q = point;
        c.k = k;
        c.run = run;
        c.addr = stream.starts[run] + static_cast<Addr>(k) * stream.stride;
        if (j == ref)
            target_line = g.lineOf.map<SHIFT>(c.addr);
        if (j >= ref)
            stepBack(c, stream);   // walked from the previous point on
        if (rest < 0)
            c.qmin = j < ref && ref - j <= window ? point : point + 1;
        else
            c.qmin = std::max<std::int64_t>(
                point - (j >= nops - part ? full + 1 : full), 0);
    }
    const std::int64_t target_set =
        CacheGeom::setOfLine(target_line, g.numSets);

    // Distinct interfering lines seen so far in the target set.
    std::vector<std::int64_t> &conflicts = scratch.conflicts;
    conflicts.clear();

    std::int64_t horizon = point;   // this round scans points >= horizon
    std::int64_t widen = 2;
    for (;;) {
        // The earliest in-set access in walk order at or above the
        // horizon. A lower position must beat the best found so far at
        // a strictly later point: within a point, higher positions
        // come first.
        std::int64_t best = -1;
        bool more = false;   // some position has window below the horizon
        for (std::int64_t j = nops; j-- > 0;) {
            Cursor &c = cursors[j];
            const std::int64_t limit =
                std::max({c.qmin, horizon,
                          best >= 0 ? cursors[best].q + 1 : c.qmin});
            if (scanTo<SHIFT>(c, limit, *streams[j], g, target_set))
                best = j;
            else if (c.q >= c.qmin)
                more = true;
        }
        if (best < 0) {
            if (!more)
                return true;   // start of the stream or of the window
            horizon -= widen;
            widen *= 2;
            continue;
        }
        Cursor &c = cursors[best];
        const std::int64_t line = g.lineOf.map<SHIFT>(c.addr);
        if (line == target_line) {
            // Reuse source found: the replacement equation fires iff
            // the interference already filled the set.
            return conflicts.size() >= g.assoc;
        }
        if (std::find(conflicts.begin(), conflicts.end(), line) ==
            conflicts.end()) {
            conflicts.push_back(line);
            if (conflicts.size() >= g.assoc)
                return true;   // set already refilled: guaranteed miss
        }
        stepBack(c, *streams[best]);
    }
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

detail::RatioValue
CmeAnalysis::solveRatio(const std::vector<OpId> &set, OpId op,
                        const CacheGeom &geom)
{
    const detail::QueryKeyRef ref{detail::queryHash(geom, op, set), &geom,
                                  op, &set};
    lookups_.fetch_add(1, std::memory_order_relaxed);
    if (const detail::RatioValue *hit = memo_.find(ref))
        return *hit;
    queries_.fetch_add(1, std::memory_order_relaxed);

    const auto pos_it = std::find(set.begin(), set.end(), op);
    mvp_assert(pos_it != set.end(), "op not in reference set");
    const auto ref_pos =
        static_cast<std::size_t>(pos_it - set.begin());

    const std::int64_t num_sets = geom.numSets();
    mvp_assert(num_sets > 0, "cache with no sets");
    const WalkGeom walk{LineMap(geom.lineBytes), num_sets,
                        static_cast<std::size_t>(geom.assoc),
                        params_.maxWalk};

    SolverScratch &scratch = solverScratch();
    // One shard-locked fetch per set position; from here the sampling
    // walk touches nothing but the streams' run starts.
    scratch.streams.clear();
    for (OpId o : set)
        scratch.streams.push_back(&streams_->stream(o));
    scratch.cursors.resize(set.size());
    const auto miss = [&](std::int64_t p) {
        return walk.lineOf.shifts()
                   ? isMiss<true>(scratch, ref_pos, p, walk)
                   : isMiss<false>(scratch, ref_pos, p, walk);
    };

    detail::RatioValue value;
    const std::int64_t points = streams_->points();
    std::int64_t evaluated = 0;
    if (points <= params_.maxSamples) {
        // Exhaustive mode: evaluate every iteration point.
        std::int64_t misses = 0;
        for (std::int64_t p = 0; p < points; ++p)
            misses += miss(p) ? 1 : 0;
        evaluated = points;
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
            stat.add(miss(p) ? 1.0 : 0.0);
            if (static_cast<int>(stat.count()) >= params_.minSamples &&
                stat.ciHalfWidth() <= params_.ciTarget)
                break;
        }
        evaluated = static_cast<std::int64_t>(stat.count());
        value.ratio = stat.mean();
        value.ciHalfWidth = stat.ciHalfWidth();
    }
    points_.fetch_add(static_cast<std::size_t>(evaluated),
                      std::memory_order_relaxed);

    return memo_.tryInsert(detail::QueryKey{ref.hash, geom, op, set},
                           value);
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
        memo_.tryInsert(
            detail::QueryKey{
                detail::queryHash(entry.geom, entry.op, entry.set),
                entry.geom, entry.op, entry.set},
            entry.value);
    }
}

} // namespace mvp::cme
