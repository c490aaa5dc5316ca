#include "cme/stream.hh"

#include <algorithm>
#include <cstdint>

#include "common/logging.hh"
#include "obs/trace.hh"

namespace mvp::cme
{

StreamCache::StreamCache(const ir::LoopNest &nest)
    : nest_(nest), space_(nest), points_(space_.points())
{
}

std::unique_ptr<LineStream>
StreamCache::buildLines(OpId op, std::int64_t line_bytes) const
{
    const auto &operation = nest_.op(op);
    mvp_assert(operation.isMemory(), "line stream of a non-memory op");
    mvp_assert(line_bytes > 0, "bad cache line size");

    // Feed (point, line) of every point in execution order to @p f. The
    // strided addresses equal addressOf bit for bit, and the division is
    // CacheGeom::lineOf's — the streams must be byte-for-byte what the
    // un-cached analyses computed.
    const std::int64_t inner = nest_.innerTripCount();
    std::vector<std::int64_t> ivs(nest_.depth());
    const auto walk = [&](auto &&f) {
        for (std::int64_t first = 0; first < points_; first += inner) {
            space_.at(first, ivs);
            const ir::StridedAddress addr =
                nest_.stridedAddressOf(*operation.memRef, ivs);
            for (std::int64_t k = 0; k < inner; ++k)
                f(first + k,
                  static_cast<std::int64_t>(addr.at(k)) / line_bytes);
        }
    };

    auto stream = std::make_unique<LineStream>();
    std::int64_t lo = INT64_MAX;
    std::int64_t hi = INT64_MIN;
    walk([&](std::int64_t, std::int64_t line) {
        lo = std::min(lo, line);
        hi = std::max(hi, line);
    });
    mvp_assert(static_cast<std::uint64_t>(hi) -
                       static_cast<std::uint64_t>(lo) <=
                   UINT32_MAX,
               "line stream of op ", op, " spans more than 2^32 lines");
    stream->base = lo;
    stream->offsets.resize(static_cast<std::size_t>(points_));
    walk([&](std::int64_t p, std::int64_t line) {
        stream->offsets[static_cast<std::size_t>(p)] =
            static_cast<std::uint32_t>(line - lo);
    });
    return stream;
}

const LineStream &
StreamCache::lines(OpId op, int line_bytes)
{
    requests_.fetch_add(1, std::memory_order_relaxed);
    const Key key{op, line_bytes, 0};
    Shard &shard = shardOf(key);
    {
        std::lock_guard<std::mutex> lock(shard.mu);
        if (auto it = shard.lines.find(key); it != shard.lines.end())
            return *it->second;
    }

    // Build outside the lock: streams are pure functions of the key, so
    // a racing builder produces an identical value and emplace() keeps
    // whichever arrived first.
    MVP_TRACE_SPAN("stream-build", {}, static_cast<std::int64_t>(op));
    auto fresh = buildLines(op, line_bytes);
    built_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(shard.mu);
    return *shard.lines.emplace(key, std::move(fresh)).first->second;
}

const SetBuckets &
StreamCache::buckets(OpId op, const CacheGeom &geom)
{
    requests_.fetch_add(1, std::memory_order_relaxed);
    const std::int64_t num_sets = geom.numSets();
    mvp_assert(num_sets > 0, "cache with no sets");
    const Key key{op, geom.lineBytes, num_sets};
    Shard &shard = shardOf(key);
    {
        std::lock_guard<std::mutex> lock(shard.mu);
        if (auto it = shard.buckets.find(key); it != shard.buckets.end())
            return *it->second;
    }

    const LineStream &stream = lines(op, geom.lineBytes);
    auto fresh = std::make_unique<SetBuckets>();
    // Counting pass, then a placement pass over stable offsets: the
    // entries of one set come out chronological because the stream is
    // walked in point order both times.
    fresh->offsets.assign(static_cast<std::size_t>(num_sets) + 1, 0);
    const auto points = static_cast<std::int64_t>(stream.size());
    for (std::int64_t p = 0; p < points; ++p) {
        const auto s = static_cast<std::size_t>(stream.line(p) % num_sets);
        ++fresh->offsets[s + 1];
    }
    for (std::size_t s = 1; s < fresh->offsets.size(); ++s)
        fresh->offsets[s] += fresh->offsets[s - 1];
    fresh->entries.resize(stream.size());
    std::vector<std::int64_t> cursor(
        fresh->offsets.begin(), fresh->offsets.end() - 1);
    for (std::int64_t p = 0; p < points; ++p) {
        const std::int64_t line = stream.line(p);
        const auto s = static_cast<std::size_t>(line % num_sets);
        fresh->entries[static_cast<std::size_t>(cursor[s]++)] = {p, line};
    }

    std::lock_guard<std::mutex> lock(shard.mu);
    return *shard.buckets.emplace(key, std::move(fresh)).first->second;
}

} // namespace mvp::cme
