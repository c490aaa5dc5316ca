/**
 * @file
 * Exact trace-driven locality oracle.
 *
 * Simulates the complete access stream of a reference set through one
 * cache (LRU within sets) and reports exact per-instruction miss ratios.
 * Serves two purposes: property-testing the CME sampling solver, and
 * acting as a drop-in LocalityAnalysis for the scheduler when exactness
 * matters more than analysis speed.
 *
 * Two structural facts keep the oracle fast enough for scheduler use:
 *
 *  1. Access streams come from the shared StreamCache (cme/stream.hh)
 *     in affine form, so a full simulation steps one running address
 *     per op by its stride and maps it to a line with a shift (for
 *     power-of-two lines) instead of deriving IV vectors and affine
 *     addresses per access. The set index follows
 *     CacheGeom::setOfLine, a mask for power-of-two set counts.
 *  2. Simulations are *incremental across set growth*. Cache sets of an
 *     LRU cache are independent, so every memoised simulation keeps a
 *     per-cache-set checkpoint (final LRU way states plus per-op miss
 *     counters per set). Simulating S ∪ {op} — exactly how the
 *     scheduler's Attempt::addedMisses grows cluster sets one op at a
 *     time — copies the checkpoint for every cache set op never
 *     touches and re-simulates only the touched sets from the bucketed
 *     stream view, bit-identically to a from-scratch run.
 *
 * Thread-safe: concurrent queries share the memo under a mutex
 * (simulation itself runs unlocked; a race on one fresh set costs a
 * redundant identical simulation, never a wrong answer).
 */

#ifndef MVP_CME_ORACLE_HH
#define MVP_CME_ORACLE_HH

#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "cme/locality.hh"
#include "cme/setkey.hh"
#include "cme/stream.hh"

namespace mvp::cme
{

/**
 * One exported oracle simulation: the query key (geometry + canonical
 * set), the aggregate answer (per-position miss totals + point count),
 * and the per-cache-set checkpoint when it was retained (empty vectors
 * otherwise). `misses[i]` is the total for `set[i]`, so the flattened
 * form is deterministic where the in-memory unordered_map is not.
 */
struct OracleMemoEntry
{
    CacheGeom geom;
    std::vector<OpId> set;
    std::vector<std::int64_t> misses;   ///< aligned with `set`
    std::int64_t points = 0;
    std::vector<std::int64_t> perSetMisses;   ///< checkpoint (may be empty)
    std::vector<std::int64_t> tags;           ///< checkpoint (may be empty)
};

/** Exact cache-behaviour oracle bound to one loop nest. */
class CacheOracle : public LocalityAnalysis
{
  public:
    /** Default bound on retained checkpoint bytes (see constructor). */
    static constexpr std::size_t DEFAULT_CHECKPOINT_BYTES = 64u << 20;

    /**
     * Bind to @p nest, drawing access streams from @p streams (one is
     * created privately when null; pass the loop's shared cache to
     * amortise stream building across analyses).
     *
     * @p checkpoint_byte_cap bounds the memory the memo spends on
     * per-cache-set checkpoints: once the cap is reached, further
     * simulations are memoised with their aggregate counts only, so
     * they answer queries but cannot serve as extension parents.
     * Checkpoints affect *speed*, never values — answers stay
     * bit-identical at any cap, including 0.
     */
    explicit CacheOracle(
        const ir::LoopNest &nest,
        std::shared_ptr<StreamCache> streams = nullptr,
        std::size_t checkpoint_byte_cap = DEFAULT_CHECKPOINT_BYTES);

    const ir::LoopNest &loop() const override { return nest_; }

    double missesPerIteration(const std::vector<OpId> &set,
                              const CacheGeom &geom) override;

    double missRatio(const std::vector<OpId> &set, OpId op,
                     const CacheGeom &geom) override;

    /** Exact miss count of every op in @p set over the full nest. */
    std::unordered_map<OpId, std::int64_t>
    missCounts(const std::vector<OpId> &set, const CacheGeom &geom);

    /** The shared access-stream cache this oracle draws from. */
    const std::shared_ptr<StreamCache> &streams() const
    {
        return streams_;
    }

    /** @name Simulation-path counters (tests assert the incremental
     * path actually runs; values are monotone and may transiently
     * overcount under racing identical queries). */
    /// @{
    std::size_t fullSimulations() const
    {
        return full_.load(std::memory_order_relaxed);
    }
    std::size_t incrementalExtensions() const
    {
        return incremental_.load(std::memory_order_relaxed);
    }
    /// @}

    /**
     * Snapshot every memoised simulation (checkpoints included),
     * deterministically sorted by (geometry, set) so identical oracle
     * states export byte-identical warm-state files.
     */
    std::vector<OracleMemoEntry> exportMemo() const;

    /**
     * Publish @p entries into the memo (keep-the-winner: keys already
     * memoised are dropped). Checkpoints count against the byte cap
     * exactly as freshly simulated ones do; entries whose checkpoint
     * shape does not match the geometry are kept aggregates-only.
     * Entries must come from an exportMemo() of an oracle of the same
     * nest — the simulation is deterministic, so imported and
     * recomputed values coincide.
     */
    void importMemo(const std::vector<OracleMemoEntry> &entries);

  private:
    /**
     * One memoised simulation. `misses`/`points` answer the public
     * queries; `ops`, `perSetMisses` and `tags` form the per-cache-set
     * checkpoint that incremental extension consumes (dropped for
     * results memoised past the checkpoint byte cap). Immutable once
     * published in the memo.
     */
    struct SimResult
    {
        std::unordered_map<OpId, std::int64_t> misses;
        std::int64_t points = 0;

        std::vector<OpId> ops;   ///< canonical set simulated
        /** Miss counters, [cache set * ops.size() + set position]. */
        std::vector<std::int64_t> perSetMisses;
        /** Final LRU state, [cache set * assoc + way], MRU first. */
        std::vector<std::int64_t> tags;

        /** True when the checkpoint was retained (extension parent). */
        bool hasCheckpoint() const { return !perSetMisses.empty(); }
    };

    /**
     * @p set must be canonical (sorted, duplicate-free). The returned
     * reference stays valid for the oracle's lifetime (unordered_map
     * references survive rehash, and memoised results are never
     * mutated).
     */
    const SimResult &simulate(const std::vector<OpId> &set,
                              const CacheGeom &geom);

    /** Full chronological simulation over the cached affine streams. */
    void simulateFresh(const std::vector<OpId> &set,
                       const CacheGeom &geom, SimResult &res);

    /**
     * Extend @p parent (the simulation of @p set minus the op at
     * @p new_pos) by that op: copy untouched cache sets, re-simulate
     * touched ones from the bucketed streams.
     */
    void simulateExtended(const std::vector<OpId> &set,
                          std::size_t new_pos, const SimResult &parent,
                          const CacheGeom &geom, SimResult &res);

    const ir::LoopNest &nest_;
    std::shared_ptr<StreamCache> streams_;
    std::size_t checkpointByteCap_;
    mutable std::mutex mu_;   ///< guards memo_ and checkpointBytes_
    std::unordered_map<detail::QueryKey, SimResult, detail::QueryHash,
                       detail::QueryEq>
        memo_;
    std::size_t checkpointBytes_ = 0;   ///< retained checkpoint bytes
    std::atomic<std::size_t> full_{0};
    std::atomic<std::size_t> incremental_{0};
};

} // namespace mvp::cme

#endif // MVP_CME_ORACLE_HH
