/**
 * @file
 * Hashed memo keys for the locality analyses.
 *
 * Every CME / oracle query is identified by (cache geometry, optional
 * target op, sorted reference set). The schedulers issue millions of
 * these queries, so the memo key must be buildable without heap
 * allocation: QueryKeyRef borrows the caller's canonical set and carries
 * a precomputed FNV hash, and the transparent hash/equality functors let
 * unordered_map look it up without materialising an owning QueryKey.
 * Owning keys are only constructed on memo misses.
 */

#ifndef MVP_CME_SETKEY_HH
#define MVP_CME_SETKEY_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/types.hh"
#include "machine/machine.hh"

namespace mvp::cme::detail
{

/** FNV-1a step at 64-bit word granularity. */
inline std::uint64_t
fnvMix(std::uint64_t h, std::uint64_t x)
{
    h ^= x;
    h *= 1099511628211ULL;
    return h;
}

/** FNV over geometry + target op + sorted op ids. */
inline std::uint64_t
queryHash(const CacheGeom &geom, OpId op, const std::vector<OpId> &set)
{
    std::uint64_t h = 1469598103934665603ULL;
    h = fnvMix(h, static_cast<std::uint64_t>(geom.capacityBytes));
    h = fnvMix(h, static_cast<std::uint64_t>(geom.lineBytes));
    h = fnvMix(h, static_cast<std::uint64_t>(geom.assoc));
    h = fnvMix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(op)));
    for (OpId o : set)
        h = fnvMix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(o)));
    return h;
}

/** Owning memo key (stored in the map; built only on memo misses). */
struct QueryKey
{
    std::uint64_t hash;
    CacheGeom geom;
    OpId op;               ///< INVALID_ID for whole-set queries
    std::vector<OpId> set; ///< sorted, duplicate-free
};

/** Borrowed lookup key (never allocates). */
struct QueryKeyRef
{
    std::uint64_t hash;
    const CacheGeom *geom;
    OpId op;
    const std::vector<OpId> *set;
};

struct QueryHash
{
    using is_transparent = void;
    std::size_t operator()(const QueryKey &k) const
    {
        return static_cast<std::size_t>(k.hash);
    }
    std::size_t operator()(const QueryKeyRef &k) const
    {
        return static_cast<std::size_t>(k.hash);
    }
};

struct QueryEq
{
    using is_transparent = void;
    bool operator()(const QueryKey &a, const QueryKey &b) const
    {
        return a.hash == b.hash && a.geom == b.geom && a.op == b.op &&
               a.set == b.set;
    }
    bool operator()(const QueryKeyRef &a, const QueryKey &b) const
    {
        return a.hash == b.hash && *a.geom == b.geom && a.op == b.op &&
               *a.set == b.set;
    }
    bool operator()(const QueryKey &a, const QueryKeyRef &b) const
    {
        return (*this)(b, a);
    }
};

/**
 * Canonical view of @p set (+ optional @p extra): sorted and
 * duplicate-free. Returns @p set itself when it is already canonical
 * and contains @p extra — the zero-copy fast path the memoised-query
 * benchmarks hit — and otherwise materialises the canonical set in
 * @p scratch.
 */
inline const std::vector<OpId> &
canonicalInto(std::vector<OpId> &scratch, const std::vector<OpId> &set,
              OpId extra = INVALID_ID)
{
    bool increasing = true;
    for (std::size_t i = 1; i < set.size(); ++i) {
        if (set[i] <= set[i - 1]) {
            increasing = false;
            break;
        }
    }
    if (increasing) {
        if (extra == INVALID_ID)
            return set;
        const auto it =
            std::lower_bound(set.begin(), set.end(), extra);
        if (it != set.end() && *it == extra)
            return set;
        scratch.clear();
        scratch.reserve(set.size() + 1);
        scratch.insert(scratch.end(), set.begin(), it);
        scratch.push_back(extra);
        scratch.insert(scratch.end(), it, set.end());
        return scratch;
    }
    scratch.assign(set.begin(), set.end());
    if (extra != INVALID_ID)
        scratch.push_back(extra);
    std::sort(scratch.begin(), scratch.end());
    scratch.erase(std::unique(scratch.begin(), scratch.end()),
                  scratch.end());
    return scratch;
}

/**
 * Memoised answer of one locality query: the miss ratio plus the 95%
 * CI half-width the sampling solver stopped at (0 for exhaustive and
 * exact answers). The half-width rides along so a memoised query's
 * confidence survives the memo and the warm-state snapshot.
 */
struct RatioValue
{
    double ratio = 0.0;
    double ciHalfWidth = 0.0;
};

/**
 * Open-addressing memo from QueryKey to a RatioValue, specialised for
 * the solver's hot path: the caller supplies the precomputed hash,
 * lookups are one masked probe sequence over a power-of-two table (no
 * modulo division, no node allocation), and misses append to a flat
 * entry array.
 */
class RatioMemo
{
  public:
    /** Pointer to the memoised value, or nullptr on a miss. */
    const RatioValue *find(const QueryKeyRef &ref) const
    {
        if (table_.empty())
            return nullptr;
        const std::size_t mask = table_.size() - 1;
        for (std::size_t i = ref.hash & mask;; i = (i + 1) & mask) {
            const std::int32_t e = table_[i];
            if (e < 0)
                return nullptr;
            const Entry &ent = entries_[static_cast<std::size_t>(e)];
            if (ent.key.hash == ref.hash && ent.key.geom == *ref.geom &&
                ent.key.op == ref.op && ent.key.set == *ref.set)
                return &ent.value;
        }
    }

    /** Insert a value for @p ref (must not already be present). */
    void insert(const QueryKeyRef &ref, RatioValue value)
    {
        if ((entries_.size() + 1) * 4 > table_.size() * 3)
            grow();
        entries_.push_back(
            {QueryKey{ref.hash, *ref.geom, ref.op, *ref.set}, value});
        place(static_cast<std::int32_t>(entries_.size() - 1));
    }

    std::size_t size() const { return entries_.size(); }

    /** Visit every entry in insertion order (persistence export). */
    template <typename Fn>
    void forEach(Fn &&fn) const
    {
        for (const Entry &entry : entries_)
            fn(entry.key, entry.value);
    }

  private:
    struct Entry
    {
        QueryKey key;
        RatioValue value;
    };

    void place(std::int32_t index)
    {
        const std::size_t mask = table_.size() - 1;
        std::size_t i = entries_[static_cast<std::size_t>(index)].key.hash &
                        mask;
        while (table_[i] >= 0)
            i = (i + 1) & mask;
        table_[i] = index;
    }

    void grow()
    {
        const std::size_t cap = table_.empty() ? 64 : table_.size() * 2;
        table_.assign(cap, -1);
        for (std::size_t e = 0; e < entries_.size(); ++e)
            place(static_cast<std::int32_t>(e));
    }

    std::vector<Entry> entries_;
    std::vector<std::int32_t> table_;   ///< entry index or -1 (empty)
};

/**
 * Concurrency-safe RatioMemo: the open-addressing table sharded by the
 * high bits of the query hash, one mutex per shard. The parallel
 * experiment driver queries one loop's CmeAnalysis from every worker at
 * once; striping keeps the common case (different queries hitting
 * different shards) contention-free while the per-shard probe sequence
 * stays exactly the single-threaded RatioMemo's.
 *
 * Determinism does not depend on interleaving: a memoised value is a
 * pure function of the key (the sampling seed derives from the key, not
 * from query order), so when two threads race to answer the same fresh
 * query they compute identical values and tryInsert() keeps whichever
 * arrives first. Shard selection uses bits the in-shard probe (low
 * bits) ignores, so sharding does not degrade probe clustering.
 */
class ShardedRatioMemo
{
  public:
    /** True (and *out filled) when @p ref is memoised. */
    bool lookup(const QueryKeyRef &ref, RatioValue *out) const
    {
        const Shard &shard = shards_[shardOf(ref.hash)];
        std::lock_guard<std::mutex> lock(shard.mu);
        if (const RatioValue *hit = shard.memo.find(ref)) {
            *out = *hit;
            return true;
        }
        return false;
    }

    /**
     * Memoise @p value for @p ref unless another thread already did;
     * returns the value that ended up in the memo (identical to
     * @p value for deterministic solvers — asserted by the tests).
     */
    RatioValue tryInsert(const QueryKeyRef &ref, RatioValue value)
    {
        Shard &shard = shards_[shardOf(ref.hash)];
        std::lock_guard<std::mutex> lock(shard.mu);
        if (const RatioValue *hit = shard.memo.find(ref))
            return *hit;
        shard.memo.insert(ref, value);
        return value;
    }

    /** Total memoised queries (locks every shard; not a hot path). */
    std::size_t size() const
    {
        std::size_t n = 0;
        for (const Shard &shard : shards_) {
            std::lock_guard<std::mutex> lock(shard.mu);
            n += shard.memo.size();
        }
        return n;
    }

    /**
     * Visit every memoised (key, value) pair, shard by shard under the
     * shard lock (persistence export; not a hot path). @p fn must not
     * re-enter this memo.
     */
    template <typename Fn>
    void forEach(Fn &&fn) const
    {
        for (const Shard &shard : shards_) {
            std::lock_guard<std::mutex> lock(shard.mu);
            shard.memo.forEach(fn);
        }
    }

  private:
    static constexpr std::size_t NUM_SHARDS = 16;   // power of two

    struct Shard
    {
        mutable std::mutex mu;
        RatioMemo memo;
    };

    /** High hash bits: disjoint from the low bits RatioMemo probes
     * with. */
    static std::size_t shardOf(std::uint64_t hash)
    {
        return static_cast<std::size_t>(hash >> 60) & (NUM_SHARDS - 1);
    }

    std::array<Shard, NUM_SHARDS> shards_;
};

} // namespace mvp::cme::detail

#endif // MVP_CME_SETKEY_HH
