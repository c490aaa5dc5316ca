/**
 * @file
 * Shared access-stream cache for the locality analyses.
 *
 * Both locality providers — the CME sampling solver and the exact trace
 * oracle — spend their time answering the same underlying question:
 * which cache line does memory operation `op` touch at iteration point
 * `p`? A StreamCache answers it from an *affine* form of each op's
 * stream. An affine reference is affine in the innermost IV, so along
 * one execution of the innermost loop (a *run*) the op touches
 * `start + k * stride`. The stream keeps one start address per run plus
 * the op's stride, built once per op with LoopNest::stridedAddressOf,
 * and
 *
 *     line(p) = (start[p / inner] + (p % inner) * stride) / lineBytes
 *
 * bit for bit what addressOf and CacheGeom::lineOf give. The form does
 * not depend on the line size, so one stream per op serves every
 * geometry, and it costs O(points / inner trip count) memory rather
 * than one entry per point. The hot loops never evaluate the formula
 * per access: they keep a running address per op and step it by the
 * stride, re-seeding it from `start` only at run boundaries, and map
 * addresses to lines with LineMap (a shift for power-of-two lines).
 *
 * Thread-safe and interleaving-independent: streams live in a
 * ShardedMemo (common/memo.hh), are built outside its locks and are
 * immutable once published; two threads racing on the same op build
 * identical values (a stream is a pure function of (nest, op)) and the
 * first insert wins.
 * One StreamCache per loop nest is meant to be shared by every analysis
 * bound to that nest — the harness Workbench keeps one per entry.
 */

#ifndef MVP_CME_STREAM_HH
#define MVP_CME_STREAM_HH

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/memo.hh"
#include "common/types.hh"
#include "ir/loop.hh"
#include "machine/machine.hh"

namespace mvp::cme
{

/**
 * Affine access stream of one memory operation: the address it touches
 * at every iteration point, as one start address per innermost run plus
 * a stride. Immutable after construction.
 */
struct AffineStream
{
    std::int64_t inner = 1;      ///< points per run (inner trip count)
    Addr stride = 0;             ///< address step per innermost iteration
    std::vector<Addr> starts;    ///< address at the first point of run r

    /** Number of iteration points. */
    std::int64_t points() const
    {
        return static_cast<std::int64_t>(starts.size()) * inner;
    }

    /** Address touched at linear iteration index @p p. */
    Addr address(std::int64_t p) const
    {
        return starts[static_cast<std::size_t>(p / inner)] +
               static_cast<Addr>(p % inner) * stride;
    }
};

/**
 * Per-loop-nest cache of affine access streams, shared by every
 * locality analysis bound to the nest.
 */
class StreamCache
{
  public:
    explicit StreamCache(const ir::LoopNest &nest);

    const ir::LoopNest &loop() const { return nest_; }

    /** Total iteration points of the nest. */
    std::int64_t points() const { return points_; }

    /**
     * The affine stream of @p op, building it on first use. The
     * returned reference stays valid (and immutable) for the cache's
     * lifetime. @p op must be a memory operation.
     */
    const AffineStream &stream(OpId op);

    /**
     * Affine streams built so far, at most one per memory op unless two
     * threads race on one (monotone; for tests and reports).
     */
    std::size_t streamsBuilt() const
    {
        return built_.load(std::memory_order_relaxed);
    }

    /**
     * stream() calls so far (monotone). Together with streamsBuilt()
     * this yields the cache hit rate; under concurrent use two racing
     * builders of one op both count a miss.
     */
    std::size_t streamRequests() const
    {
        return requests_.load(std::memory_order_relaxed);
    }

  private:
    /** Build the affine stream of @p op (no locks held). */
    AffineStream buildStream(OpId op) const;

    const ir::LoopNest &nest_;
    ir::IterationSpace space_;
    std::int64_t points_;
    ShardedMemo<OpId, AffineStream> streams_;
    std::atomic<std::size_t> built_{0};
    std::atomic<std::size_t> requests_{0};
};

} // namespace mvp::cme

#endif // MVP_CME_STREAM_HH
