#include "cme/oracle.hh"

#include <algorithm>
#include <tuple>

#include "common/logging.hh"

namespace mvp::cme
{

namespace
{

/** Per-thread working buffers (the oracle is shared by workers). */
struct OracleScratch
{
    std::vector<OpId> canonical;              ///< canonical-set buffer
    std::vector<OpId> subset;                 ///< parent-probe buffer
    std::vector<const AffineStream *> streams; ///< per-position streams
    std::vector<Addr> stride;                 ///< per-position strides
    std::vector<Addr> addr;                   ///< per-position cursors
    std::vector<const SetBuckets *> buckets;  ///< per-position buckets
    std::vector<std::int64_t> cursor;         ///< merge iterators
    std::vector<std::int64_t> last;           ///< merge end offsets
    std::vector<char> touched;                ///< per-cache-set flags
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
                         std::shared_ptr<StreamCache> streams,
                         std::size_t checkpoint_byte_cap)
    : nest_(nest), streams_(std::move(streams)),
      checkpointByteCap_(checkpoint_byte_cap)
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
    const std::size_t m = set.size();

    res.perSetMisses.assign(static_cast<std::size_t>(num_sets) * m, 0);
    res.tags.assign(static_cast<std::size_t>(num_sets) * assoc, -1);
    forEachAccess(*streams_, set, geom, oracleScratch(),
                  [&](std::size_t j, std::int64_t line) {
                      const auto s = static_cast<std::size_t>(
                          CacheGeom::setOfLine(line, num_sets));
                      if (applyAccess(res.tags.data(), s, assoc, line))
                          ++res.perSetMisses[s * m + j];
                  });
}

void
CacheOracle::simulateExtended(const std::vector<OpId> &set,
                              std::size_t new_pos,
                              const SimResult &parent,
                              const CacheGeom &geom, SimResult &res)
{
    const std::int64_t num_sets = geom.numSets();
    const auto assoc = static_cast<std::size_t>(geom.assoc);
    const std::size_t m = set.size();
    const std::size_t pm = parent.ops.size();
    mvp_assert(pm + 1 == m, "extension parent has the wrong arity");

    OracleScratch &scratch = oracleScratch();
    scratch.buckets.clear();
    for (OpId op : set)
        scratch.buckets.push_back(&streams_->buckets(op, geom));
    const SetBuckets &grown = *scratch.buckets[new_pos];

    res.perSetMisses.assign(static_cast<std::size_t>(num_sets) * m, 0);
    res.tags.assign(static_cast<std::size_t>(num_sets) * assoc, -1);

    // The cache sets the grown op maps into — only these need
    // re-simulation; every other set keeps the parent's exact history.
    scratch.touched.assign(static_cast<std::size_t>(num_sets), 0);
    std::int64_t replayed = 0;   ///< accesses mapping into touched sets
    for (std::int64_t s = 0; s < num_sets; ++s) {
        if (!grown.touches(s))
            continue;
        scratch.touched[static_cast<std::size_t>(s)] = 1;
        for (std::size_t j = 0; j < m; ++j)
            replayed += scratch.buckets[j]->offsets
                            [static_cast<std::size_t>(s) + 1] -
                        scratch.buckets[j]
                            ->offsets[static_cast<std::size_t>(s)];
    }

    // Copy the untouched sets' checkpoint, remapping counter positions
    // around the insertion point (the grown op's own counter stays 0 —
    // untouched means it never maps there).
    for (std::int64_t s = 0; s < num_sets; ++s) {
        const auto su = static_cast<std::size_t>(s);
        if (scratch.touched[su])
            continue;
        for (std::size_t w = 0; w < assoc; ++w)
            res.tags[su * assoc + w] = parent.tags[su * assoc + w];
        for (std::size_t j = 0; j < pm; ++j)
            res.perSetMisses[su * m + (j < new_pos ? j : j + 1)] =
                parent.perSetMisses[su * pm + j];
    }

    const std::int64_t total =
        streams_->points() * static_cast<std::int64_t>(m);
    if (replayed * 4 > total) {
        // Dense extension (a streaming op touches most sets): a
        // touched-filtered chronological walk costs one flag test per
        // access on top of a from-scratch simulation — never the m-way
        // merge's per-access select. Identical results either way; the
        // cutover only picks the cheaper exact path.
        forEachAccess(*streams_, set, geom, scratch,
                      [&](std::size_t j, std::int64_t line) {
                          const auto s = static_cast<std::size_t>(
                              CacheGeom::setOfLine(line, num_sets));
                          if (!scratch.touched[s])
                              return;
                          if (applyAccess(res.tags.data(), s, assoc, line))
                              ++res.perSetMisses[s * m + j];
                      });
        return;
    }

    // Sparse extension: replay only the touched buckets, merging the
    // per-op chronological lists. Ties within one iteration point
    // resolve to the lowest set position — the order the interleaved
    // stream has.
    scratch.cursor.resize(m);
    scratch.last.resize(m);
    for (std::int64_t s = 0; s < num_sets; ++s) {
        const auto su = static_cast<std::size_t>(s);
        if (!scratch.touched[su])
            continue;
        for (std::size_t j = 0; j < m; ++j) {
            scratch.cursor[j] = scratch.buckets[j]->offsets[su];
            scratch.last[j] = scratch.buckets[j]->offsets[su + 1];
        }
        for (;;) {
            std::size_t best = m;
            std::int64_t best_point = 0;
            for (std::size_t j = 0; j < m; ++j) {
                if (scratch.cursor[j] >= scratch.last[j])
                    continue;
                const std::int64_t point =
                    scratch.buckets[j]
                        ->entries[static_cast<std::size_t>(
                            scratch.cursor[j])]
                        .point;
                if (best == m || point < best_point) {
                    best = j;
                    best_point = point;
                }
            }
            if (best == m)
                break;
            const std::int64_t line =
                scratch.buckets[best]
                    ->entries[static_cast<std::size_t>(
                        scratch.cursor[best]++)]
                    .line;
            if (applyAccess(res.tags.data(), su, assoc, line))
                ++res.perSetMisses[su * m + best];
        }
    }
}

const CacheOracle::SimResult &
CacheOracle::simulate(const std::vector<OpId> &set, const CacheGeom &geom)
{
    const detail::QueryKeyRef ref{
        detail::queryHash(geom, INVALID_ID, set), &geom, INVALID_ID, &set};
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (auto it = memo_.find(ref); it != memo_.end())
            return it->second;
    }

    // Incremental path: the scheduler grows cluster sets one op at a
    // time, so some one-op-smaller subset is usually memoised already.
    // Memoised results are immutable, so the parent pointer found under
    // the lock stays readable after it is released. Cap-trimmed
    // results (no checkpoint) cannot serve as parents.
    const SimResult *parent = nullptr;
    std::size_t new_pos = 0;
    if (set.size() > 1) {
        OracleScratch &scratch = oracleScratch();
        std::lock_guard<std::mutex> lock(mu_);   // one guard, m probes
        for (std::size_t x = 0; x < set.size() && !parent; ++x) {
            scratch.subset.clear();
            for (std::size_t j = 0; j < set.size(); ++j)
                if (j != x)
                    scratch.subset.push_back(set[j]);
            const detail::QueryKeyRef sub{
                detail::queryHash(geom, INVALID_ID, scratch.subset),
                &geom, INVALID_ID, &scratch.subset};
            if (auto it = memo_.find(sub);
                it != memo_.end() && it->second.hasCheckpoint()) {
                parent = &it->second;
                new_pos = x;
            }
        }
    }

    SimResult res;
    res.ops = set;
    res.points = streams_->points();
    if (parent) {
        incremental_.fetch_add(1, std::memory_order_relaxed);
        simulateExtended(set, new_pos, *parent, geom, res);
    } else {
        full_.fetch_add(1, std::memory_order_relaxed);
        simulateFresh(set, geom, res);
    }
    const std::int64_t num_sets = geom.numSets();
    for (std::size_t j = 0; j < set.size(); ++j) {
        std::int64_t total = 0;
        for (std::int64_t s = 0; s < num_sets; ++s)
            total += res.perSetMisses[static_cast<std::size_t>(s) *
                                          set.size() +
                                      j];
        res.misses[set[j]] = total;
    }

    // A concurrent simulation of the same set may have inserted first;
    // emplace then keeps the winner. Both results are identical (the
    // trace simulation is deterministic), so callers cannot tell.
    // Checkpoints are retained only up to the byte cap: past it the
    // result is memoised aggregates-only, which bounds memo memory on
    // long sweeps (checkpoints change extension *speed*, not answers —
    // which entries keep theirs may depend on interleaving, the values
    // never do).
    const std::size_t checkpoint_bytes =
        (res.perSetMisses.size() + res.tags.size()) *
        sizeof(std::int64_t);
    std::lock_guard<std::mutex> lock(mu_);
    const bool keep =
        checkpointBytes_ + checkpoint_bytes <= checkpointByteCap_;
    if (!keep) {
        res.perSetMisses = {};
        res.tags = {};
    }
    const auto [it, inserted] = memo_.emplace(
        detail::QueryKey{ref.hash, geom, INVALID_ID, set},
        std::move(res));
    if (inserted && keep)
        checkpointBytes_ += checkpoint_bytes;
    return it->second;
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

std::vector<OracleMemoEntry>
CacheOracle::exportMemo() const
{
    std::vector<OracleMemoEntry> out;
    {
        std::lock_guard<std::mutex> lock(mu_);
        out.reserve(memo_.size());
        for (const auto &[key, res] : memo_) {
            OracleMemoEntry entry;
            entry.geom = key.geom;
            entry.set = key.set;
            entry.points = res.points;
            entry.misses.reserve(key.set.size());
            for (const OpId op : key.set)
                entry.misses.push_back(res.misses.at(op));
            entry.perSetMisses = res.perSetMisses;
            entry.tags = res.tags;
            out.push_back(std::move(entry));
        }
    }
    std::sort(out.begin(), out.end(),
              [](const OracleMemoEntry &a, const OracleMemoEntry &b) {
                  const auto ka =
                      std::tie(a.geom.capacityBytes, a.geom.lineBytes,
                               a.geom.assoc, a.set);
                  const auto kb =
                      std::tie(b.geom.capacityBytes, b.geom.lineBytes,
                               b.geom.assoc, b.set);
                  return ka < kb;
              });
    return out;
}

void
CacheOracle::importMemo(const std::vector<OracleMemoEntry> &entries)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const OracleMemoEntry &entry : entries) {
        if (entry.set.empty() ||
            entry.misses.size() != entry.set.size() || entry.points <= 0)
            mvp_fatal("malformed oracle warm-state entry (",
                      entry.set.size(), " ops, ", entry.misses.size(),
                      " miss totals, ", entry.points, " points)");
        detail::QueryKey key{
            detail::queryHash(entry.geom, INVALID_ID, entry.set),
            entry.geom, INVALID_ID, entry.set};
        if (memo_.find(key) != memo_.end())
            continue;
        SimResult res;
        res.ops = entry.set;
        res.points = entry.points;
        for (std::size_t i = 0; i < entry.set.size(); ++i)
            res.misses[entry.set[i]] = entry.misses[i];
        // A checkpoint is only usable when its shape matches the
        // geometry; anything else (including a cap-trimmed export) is
        // memoised aggregates-only, which affects extension speed but
        // never answers.
        const auto num_sets =
            static_cast<std::size_t>(entry.geom.numSets());
        const bool shape_ok =
            entry.perSetMisses.size() == num_sets * entry.set.size() &&
            entry.tags.size() ==
                num_sets * static_cast<std::size_t>(entry.geom.assoc);
        const std::size_t checkpoint_bytes =
            (entry.perSetMisses.size() + entry.tags.size()) *
            sizeof(std::int64_t);
        const bool keep =
            shape_ok &&
            checkpointBytes_ + checkpoint_bytes <= checkpointByteCap_;
        if (keep) {
            res.perSetMisses = entry.perSetMisses;
            res.tags = entry.tags;
            checkpointBytes_ += checkpoint_bytes;
        }
        memo_.emplace(std::move(key), std::move(res));
    }
}

} // namespace mvp::cme
