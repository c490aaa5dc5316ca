/**
 * @file
 * Cache Miss Equations with a sampling solver.
 *
 * The CME framework (Ghosh, Martonosi & Malik) describes, for every
 * reference R and iteration point i, two families of equations:
 *
 *  - *cold* equations: R misses at i when no earlier access in the
 *    analysed set touched R's memory line, and
 *  - *replacement* equations: R misses at i when, since the most recent
 *    access to the line (the reuse source), interfering accesses mapped
 *    at least `associativity` distinct other lines into the same cache
 *    set.
 *
 * Solving the equations exactly means counting integer points in an
 * exponential number of polyhedra (NP-hard); the paper instead uses the
 * accelerated solver of Bermudo et al. plus the sampling estimator of
 * Vera et al., which evaluates the equations at randomly sampled
 * iteration points until a confidence interval tightens. This class
 * implements that strategy: at each sampled point the equations are
 * decided exactly by walking the access stream backwards to the reuse
 * source while tracking same-set interference; the sample mean estimates
 * the miss ratio with a 95% CI stop rule. When the iteration space is
 * small the solver switches to exhaustive evaluation (zero-width CI).
 *
 * The access stream itself comes from a shared StreamCache
 * (cme/stream.hh) in affine form: one start address per innermost run
 * plus a stride per op, so the stream memory of a loop is
 * O(points / inner trip count) and one stream serves every geometry.
 * Only accesses that map into the target's cache set can decide an
 * equation, so the backward walk scans each set position on its own —
 * one running address stepped back by the stride, a shift and a masked
 * set test per point for power-of-two geometries — and merges the
 * positions' in-set accesses back into the interleaved stream's order.
 * The walk divides only for line sizes or set counts that are not
 * powers of two. The same streams feed the exact oracle bound to the
 * nest.
 *
 * Every answer is memoised under its (geometry, op, canonical set) key
 * in a ShardedMemo (common/memo.hh) that all querying threads share.
 * The sampling seed derives from the key, so a memoised answer equals
 * a fresh one whichever thread computed it.
 */

#ifndef MVP_CME_SOLVER_HH
#define MVP_CME_SOLVER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cme/locality.hh"
#include "cme/setkey.hh"
#include "cme/stream.hh"
#include "common/memo.hh"
#include "common/random.hh"

namespace mvp::cme
{

/** Tuning knobs for the sampling solver. */
struct CmeParams
{
    /** Samples always drawn before the CI stop rule may fire. */
    int minSamples = 48;

    /** Hard cap on samples per (set, op) query. */
    int maxSamples = 320;

    /** Stop when the 95% CI half-width drops below this. */
    double ciTarget = 0.04;

    /**
     * Upper bound on the backward walk (in accesses) while resolving one
     * equation; reuse further away than this is declared a miss, which
     * matches the capacity behaviour of the small caches studied.
     */
    int maxWalk = 4096;

    /** Seed for the deterministic sampling RNG. */
    std::uint64_t seed = 0x5eedULL;
};

/**
 * One solved query: the estimated miss ratio plus the 95% CI
 * half-width the stop rule settled at (0 when the solver evaluated the
 * iteration space exhaustively). The differential harness reads the
 * half-width to widen its CME-vs-oracle tolerance. This is exactly
 * what the memo stores (cme/setkey.hh), aliased rather than duplicated
 * so the two cannot drift.
 */
using RatioEstimate = detail::RatioValue;

/**
 * Sampling CME solver bound to one loop nest. Thread-safe: any number
 * of threads may query one instance concurrently (the experiment
 * driver's workers share the per-loop analysis of a sweep). The memo is
 * a ShardedMemo (common/memo.hh); working buffers are per-thread;
 * results are bit-identical regardless of interleaving because every
 * ratio — including its sampling seed — is a pure function of the
 * (set, op, geometry) key.
 */
class CmeAnalysis : public LocalityAnalysis
{
  public:
    /**
     * Bind to @p nest, drawing access streams from @p streams (one is
     * created privately when null). Sharing one StreamCache between the
     * solver, the oracle and any number of fresh analyses of the same
     * nest is the intended shape — the Workbench keeps one per loop.
     */
    explicit CmeAnalysis(const ir::LoopNest &nest, CmeParams params = {},
                         std::shared_ptr<StreamCache> streams = nullptr);

    const ir::LoopNest &loop() const override { return nest_; }

    double missesPerIteration(const std::vector<OpId> &set,
                              const CacheGeom &geom) override;

    double missRatio(const std::vector<OpId> &set, OpId op,
                     const CacheGeom &geom) override;

    /** missRatio() plus the CI half-width the stop rule settled at. */
    RatioEstimate estimateRatio(const std::vector<OpId> &set, OpId op,
                                const CacheGeom &geom);

    /** The solver's tuning knobs. */
    const CmeParams &params() const { return params_; }

    /** The shared access-stream cache this analysis draws from. */
    const std::shared_ptr<StreamCache> &streams() const
    {
        return streams_;
    }

    /**
     * Number of distinct (set, op, geometry) queries answered so far.
     * Under concurrent use this can momentarily exceed the memo size
     * (two threads racing on the same fresh query both count).
     */
    std::size_t queriesSolved() const
    {
        return queries_.load(std::memory_order_relaxed);
    }

    /** Total equation evaluations (sampled points) so far. */
    std::size_t pointsEvaluated() const
    {
        return points_.load(std::memory_order_relaxed);
    }

    /**
     * Total solveRatio() calls, memo hits included; with
     * queriesSolved() (the misses) this yields the memo hit
     * rate. Same concurrent-use caveat as queriesSolved().
     */
    std::size_t ratioLookups() const
    {
        return lookups_.load(std::memory_order_relaxed);
    }

  private:
    /**
     * Memoised estimate of one op's miss ratio inside a set. @p set must
     * be canonical (sorted, duplicate-free) and contain @p op.
     */
    detail::RatioValue solveRatio(const std::vector<OpId> &set, OpId op,
                                  const CacheGeom &geom);

    /**
     * Legacy string key; kept solely to derive the per-query sampling
     * seed, so the hashed-key memo stays bit-identical to the original
     * string-keyed implementation. Built only on memo misses that take
     * the sampling path.
     */
    static std::string samplingKey(const std::vector<OpId> &set, OpId op,
                                   const CacheGeom &geom);

    const ir::LoopNest &nest_;
    CmeParams params_;
    std::shared_ptr<StreamCache> streams_;
    ShardedMemo<detail::QueryKey, detail::RatioValue, detail::QueryHash,
                detail::QueryEq>
        memo_;
    std::atomic<std::size_t> queries_{0};
    std::atomic<std::size_t> points_{0};
    std::atomic<std::size_t> lookups_{0};
};

} // namespace mvp::cme

#endif // MVP_CME_SOLVER_HH
