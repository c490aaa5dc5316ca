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
#include <cstdint>
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
 * confidence survives the memo.
 */
struct RatioValue
{
    double ratio = 0.0;
    double ciHalfWidth = 0.0;
};

} // namespace mvp::cme::detail

#endif // MVP_CME_SETKEY_HH
