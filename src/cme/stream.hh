/**
 * @file
 * Shared access-stream cache for the locality analyses.
 *
 * Both locality providers — the CME sampling solver and the exact trace
 * oracle — spend their time answering the same underlying question:
 * which cache line does memory operation `op` touch at iteration point
 * `p`? Before this layer existed each of them re-derived that answer on
 * every query (the solver per sampled point of its backward walk, the
 * oracle per simulated access), walking the iteration space and
 * evaluating the affine reference from scratch.
 *
 * A StreamCache materialises the answer once per (op, line size): a
 * flat line array over the whole iteration space, in lexicographic
 * execution order. Any reference set's access stream is then just the
 * point-major interleave of its ops' line arrays, so
 *
 *  - a fresh CME query walks cached arrays instead of re-evaluating
 *    affine expressions per backward step, and
 *  - an oracle simulation reads one line per access instead of
 *    computing IV vectors and addresses.
 *
 * The cache additionally serves a bucketed *footprint* view per
 * (op, line size, cache-set count): the op's accesses grouped by the
 * cache set they map to (CSR layout, chronological within a set). The
 * oracle's incremental set extension uses it to re-simulate only the
 * cache sets a newly-added op actually touches.
 *
 * Thread-safe and interleaving-independent, in the same style as the
 * solver's ShardedRatioMemo: entries live behind lock-striped shards,
 * are built outside the lock, and are immutable once published; two
 * threads racing on the same key build identical values (a stream is a
 * pure function of (nest, op, geometry)) and the first insert wins.
 * One StreamCache per loop nest is meant to be shared by every analysis
 * bound to that nest — the harness Workbench keeps one per entry.
 */

#ifndef MVP_CME_STREAM_HH
#define MVP_CME_STREAM_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "ir/loop.hh"
#include "machine/machine.hh"

namespace mvp::cme
{

/**
 * A line stream's storage, by value, for hot loops that read several
 * streams at once: @c view[p] is the line touched at point p.
 */
struct LineView
{
    const std::uint32_t *offsets;
    std::int64_t base;

    std::int64_t operator[](std::int64_t p) const
    {
        return base + offsets[p];
    }
};

/**
 * Materialised line stream of one memory operation: the cache line it
 * touches at every iteration point. Lines are kept as 32-bit offsets
 * from the stream's smallest line, half the footprint of absolute
 * lines; LoopNest::validate() caps arrays at 4 GiB, so a stream's span
 * always fits. Immutable after construction.
 */
struct LineStream
{
    std::int64_t base = 0;                ///< smallest line touched
    std::vector<std::uint32_t> offsets;   ///< line at point p, minus base

    /** Line touched at linear iteration index @p p. */
    std::int64_t line(std::int64_t p) const
    {
        return base + offsets[static_cast<std::size_t>(p)];
    }

    /** Number of iteration points. */
    std::size_t size() const { return offsets.size(); }

    LineView view() const { return {offsets.data(), base}; }
};

/**
 * The same stream bucketed by cache set for one set count: CSR over
 * sets, entries chronological within each bucket. Immutable after
 * construction.
 */
struct SetBuckets
{
    struct Entry
    {
        std::int64_t point;   ///< linear iteration index
        std::int64_t line;
    };

    /** offsets[s] .. offsets[s + 1] delimit set s's entries. */
    std::vector<std::int64_t> offsets;
    std::vector<Entry> entries;

    /** True when the op maps at least one access into set @p s. */
    bool touches(std::int64_t s) const
    {
        return offsets[static_cast<std::size_t>(s) + 1] >
               offsets[static_cast<std::size_t>(s)];
    }
};

/**
 * Per-loop-nest cache of materialised access streams, shared by every
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
     * The line stream of @p op under @p line_bytes, materialising it on
     * first use. The returned reference stays valid (and immutable) for
     * the cache's lifetime. @p op must be a memory operation.
     */
    const LineStream &lines(OpId op, int line_bytes);

    /**
     * The bucketed view of @p op's stream under @p geom (keyed on line
     * size and set count; associativity does not affect bucketing).
     */
    const SetBuckets &buckets(OpId op, const CacheGeom &geom);

    /** Streams materialised so far (monotone; for tests and reports). */
    std::size_t streamsBuilt() const
    {
        return built_.load(std::memory_order_relaxed);
    }

    /**
     * lines()/buckets() calls so far (monotone). Together with
     * streamsBuilt() this yields the cache hit rate; under concurrent
     * use two racing builders of one key both count a miss.
     */
    std::size_t streamRequests() const
    {
        return requests_.load(std::memory_order_relaxed);
    }

  private:
    struct Key
    {
        OpId op;
        std::int64_t lineBytes;
        std::int64_t numSets;   ///< 0 for plain line streams

        bool operator==(const Key &other) const = default;
    };

    struct KeyHash
    {
        std::size_t operator()(const Key &k) const
        {
            std::uint64_t h = 1469598103934665603ULL;
            auto mix = [&h](std::uint64_t x) {
                h ^= x;
                h *= 1099511628211ULL;
            };
            mix(static_cast<std::uint64_t>(
                static_cast<std::uint32_t>(k.op)));
            mix(static_cast<std::uint64_t>(k.lineBytes));
            mix(static_cast<std::uint64_t>(k.numSets));
            return static_cast<std::size_t>(h);
        }
    };

    /**
     * One lock-striped shard. Values sit behind unique_ptr so a
     * published stream's address survives rehashing; entries are never
     * mutated after insertion.
     */
    struct Shard
    {
        std::mutex mu;
        std::unordered_map<Key, std::unique_ptr<LineStream>, KeyHash>
            lines;
        std::unordered_map<Key, std::unique_ptr<SetBuckets>, KeyHash>
            buckets;
    };

    static constexpr std::size_t NUM_SHARDS = 8;

    Shard &shardOf(const Key &key)
    {
        return shards_[KeyHash{}(key) % NUM_SHARDS];
    }

    /** Build the line stream of @p op (no locks held). */
    std::unique_ptr<LineStream> buildLines(OpId op,
                                           std::int64_t line_bytes) const;

    const ir::LoopNest &nest_;
    ir::IterationSpace space_;
    std::int64_t points_;
    std::array<Shard, NUM_SHARDS> shards_;
    std::atomic<std::size_t> built_{0};
    std::atomic<std::size_t> requests_{0};
};

} // namespace mvp::cme

#endif // MVP_CME_STREAM_HH
