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
 * Access streams come from the shared StreamCache (cme/stream.hh) in
 * affine form, so a simulation steps one running address per op by its
 * stride and maps it to a line with a shift (for power-of-two lines)
 * instead of deriving IV vectors and affine addresses per access. The
 * set index follows CacheGeom::setOfLine, a mask for power-of-two set
 * counts. Every query the memo cannot answer is simulated from scratch
 * over the whole interleaved stream; a memo entry keeps only the
 * per-op miss totals and the point count, so its size does not grow
 * with the loop's trip counts.
 *
 * Thread-safe: concurrent queries share the memo, a ShardedMemo
 * (common/memo.hh); simulation itself runs unlocked, and a race on one
 * fresh set costs a redundant identical simulation, never a wrong
 * answer.
 */

#ifndef MVP_CME_ORACLE_HH
#define MVP_CME_ORACLE_HH

#include <memory>
#include <unordered_map>
#include <vector>

#include "cme/locality.hh"
#include "cme/setkey.hh"
#include "cme/stream.hh"
#include "common/memo.hh"

namespace mvp::cme
{

/** Exact cache-behaviour oracle bound to one loop nest. */
class CacheOracle : public LocalityAnalysis
{
  public:
    /**
     * Bind to @p nest, drawing access streams from @p streams (one is
     * created privately when null; pass the loop's shared cache to
     * amortise stream building across analyses).
     */
    explicit CacheOracle(const ir::LoopNest &nest,
                         std::shared_ptr<StreamCache> streams = nullptr);

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

  private:
    /** One memoised simulation. Immutable once published. */
    struct SimResult
    {
        std::unordered_map<OpId, std::int64_t> misses;
        std::int64_t points = 0;
    };

    /**
     * @p set must be canonical (sorted, duplicate-free). The returned
     * reference stays valid for the oracle's lifetime.
     */
    const SimResult &simulate(const std::vector<OpId> &set,
                              const CacheGeom &geom);

    /** Full chronological simulation over the cached affine streams. */
    void simulateFresh(const std::vector<OpId> &set,
                       const CacheGeom &geom, SimResult &res);

    const ir::LoopNest &nest_;
    std::shared_ptr<StreamCache> streams_;
    ShardedMemo<detail::QueryKey, SimResult, detail::QueryHash,
                detail::QueryEq>
        memo_;
};

} // namespace mvp::cme

#endif // MVP_CME_ORACLE_HH
