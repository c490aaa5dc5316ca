#include "cme/oracle.hh"

#include <utility>

#include "common/logging.hh"

namespace mvp::cme
{

namespace
{

/** Per-thread working buffers (the oracle is shared by workers). */
struct OracleScratch
{
    std::vector<OpId> canonical;              ///< canonical-set buffer
    std::vector<const AffineStream *> streams; ///< per-position streams
    std::vector<Addr> stride;                 ///< per-position strides
    std::vector<Addr> addr;                   ///< per-position cursors
    std::vector<std::int64_t> tags;           ///< LRU ways, [set * assoc + w]
};

OracleScratch &
oracleScratch()
{
    static thread_local OracleScratch scratch;
    return scratch;
}

/** forEachAccess's loop, with LineMap's shift-or-divide choice made. */
template <bool SHIFT, class F>
void
walkAccesses(OracleScratch &scratch, const LineMap &line_of, F &f)
{
    const std::size_t m = scratch.streams.size();
    const AffineStream *const *streams = scratch.streams.data();
    const Addr *stride = scratch.stride.data();
    Addr *addr = scratch.addr.data();
    const std::size_t runs = streams[0]->starts.size();
    const std::int64_t inner = streams[0]->inner;
    for (std::size_t r = 0; r < runs; ++r) {
        for (std::size_t j = 0; j < m; ++j)
            addr[j] = streams[j]->starts[r];
        for (std::int64_t k = 0; k < inner; ++k) {
            for (std::size_t j = 0; j < m; ++j) {
                f(j, line_of.map<SHIFT>(addr[j]));
                addr[j] += stride[j];
            }
        }
    }
}

/**
 * Feed every access of the interleaved stream of @p set to
 * @p f(position, line), in execution order: point-major, set position
 * minor. One running address per position steps by its stride and is
 * re-seeded from the run starts at each innermost run.
 */
template <class F>
void
forEachAccess(StreamCache &cache, const std::vector<OpId> &set,
              const CacheGeom &geom, OracleScratch &scratch, F &&f)
{
    scratch.streams.clear();
    scratch.stride.clear();
    for (OpId op : set) {
        scratch.streams.push_back(&cache.stream(op));
        scratch.stride.push_back(scratch.streams.back()->stride);
    }
    scratch.addr.resize(set.size());
    const LineMap line_of(geom.lineBytes);
    if (line_of.shifts())
        walkAccesses<true>(scratch, line_of, f);
    else
        walkAccesses<false>(scratch, line_of, f);
}

/**
 * Apply one access to cache set @p s: LRU probe + MRU promotion, with
 * the direct-mapped case (the paper's configuration) special-cased to a
 * single compare-and-store. Returns true on a miss.
 */
inline bool
applyAccess(std::int64_t *tags, std::size_t s, std::size_t assoc,
            std::int64_t line)
{
    std::int64_t *way = tags + s * assoc;
    if (assoc == 1) {
        if (way[0] == line)
            return false;
        way[0] = line;
        return true;
    }
    for (std::size_t w = 0; w < assoc; ++w) {
        if (way[w] == line) {
            for (std::size_t k = w; k > 0; --k)
                way[k] = way[k - 1];
            way[0] = line;
            return false;
        }
    }
    for (std::size_t k = assoc - 1; k > 0; --k)
        way[k] = way[k - 1];
    way[0] = line;
    return true;
}

} // namespace

CacheOracle::CacheOracle(const ir::LoopNest &nest,
                         std::shared_ptr<StreamCache> streams)
    : nest_(nest), streams_(std::move(streams))
{
    if (!streams_)
        streams_ = std::make_shared<StreamCache>(nest_);
    mvp_assert(&streams_->loop() == &nest_,
               "stream cache bound to a different loop");
}

void
CacheOracle::simulateFresh(const std::vector<OpId> &set,
                           const CacheGeom &geom, SimResult &res)
{
    const std::int64_t num_sets = geom.numSets();
    const auto assoc = static_cast<std::size_t>(geom.assoc);

    OracleScratch &scratch = oracleScratch();
    scratch.tags.assign(static_cast<std::size_t>(num_sets) * assoc, -1);
    std::vector<std::int64_t> misses(set.size(), 0);
    forEachAccess(*streams_, set, geom, scratch,
                  [&](std::size_t j, std::int64_t line) {
                      const auto s = static_cast<std::size_t>(
                          CacheGeom::setOfLine(line, num_sets));
                      if (applyAccess(scratch.tags.data(), s, assoc, line))
                          ++misses[j];
                  });
    for (std::size_t j = 0; j < set.size(); ++j)
        res.misses[set[j]] = misses[j];
}

const CacheOracle::SimResult &
CacheOracle::simulate(const std::vector<OpId> &set, const CacheGeom &geom)
{
    const detail::QueryKeyRef ref{
        detail::queryHash(geom, INVALID_ID, set), &geom, INVALID_ID, &set};
    if (const SimResult *hit = memo_.find(ref))
        return *hit;

    SimResult res;
    res.points = streams_->points();
    simulateFresh(set, geom, res);

    // A concurrent simulation of the same set may have inserted first;
    // its result is identical (the trace simulation is deterministic).
    return memo_.tryInsert(
        detail::QueryKey{ref.hash, geom, INVALID_ID, set}, std::move(res));
}

double
CacheOracle::missesPerIteration(const std::vector<OpId> &set,
                                const CacheGeom &geom)
{
    if (set.empty())
        return 0.0;
    const SimResult &res = simulate(
        detail::canonicalInto(oracleScratch().canonical, set), geom);
    std::int64_t total = 0;
    for (const auto &[op, misses] : res.misses)
        total += misses;
    return static_cast<double>(total) / static_cast<double>(res.points);
}

double
CacheOracle::missRatio(const std::vector<OpId> &set, OpId op,
                       const CacheGeom &geom)
{
    mvp_assert(nest_.op(op).isMemory(), "missRatio of a non-memory op");
    const SimResult &res = simulate(
        detail::canonicalInto(oracleScratch().canonical, set, op), geom);
    return static_cast<double>(res.misses.at(op)) /
           static_cast<double>(res.points);
}

std::unordered_map<OpId, std::int64_t>
CacheOracle::missCounts(const std::vector<OpId> &set, const CacheGeom &geom)
{
    return simulate(detail::canonicalInto(oracleScratch().canonical, set),
                    geom)
        .misses;
}

} // namespace mvp::cme
