#include "cme/stream.hh"

#include <cstdint>

#include "common/logging.hh"
#include "obs/trace.hh"

namespace mvp::cme
{

StreamCache::StreamCache(const ir::LoopNest &nest)
    : nest_(nest), space_(nest), points_(space_.points())
{
}

std::unique_ptr<AffineStream>
StreamCache::buildStream(OpId op) const
{
    const auto &operation = nest_.op(op);
    mvp_assert(operation.isMemory(), "access stream of a non-memory op");

    // The strided addresses equal addressOf bit for bit; an affine
    // reference's innermost stride does not depend on the outer IVs.
    auto stream = std::make_unique<AffineStream>();
    stream->inner = nest_.innerTripCount();
    stream->starts.reserve(
        static_cast<std::size_t>(points_ / stream->inner));
    std::vector<std::int64_t> ivs(nest_.depth());
    for (std::int64_t first = 0; first < points_; first += stream->inner) {
        space_.at(first, ivs);
        const ir::StridedAddress addr =
            nest_.stridedAddressOf(*operation.memRef, ivs);
        if (first == 0)
            stream->stride = addr.stride;
        mvp_assert(addr.stride == stream->stride, "op ", op,
                   " has an innermost stride that varies between runs");
        stream->starts.push_back(addr.start);
    }
    return stream;
}

const AffineStream &
StreamCache::stream(OpId op)
{
    requests_.fetch_add(1, std::memory_order_relaxed);
    Shard &shard = shardOf(Key{op, 0, 0});
    {
        std::lock_guard<std::mutex> lock(shard.mu);
        if (auto it = shard.streams.find(op); it != shard.streams.end())
            return *it->second;
    }

    // Build outside the lock: streams are pure functions of the key, so
    // a racing builder produces an identical value and emplace() keeps
    // whichever arrived first.
    MVP_TRACE_SPAN("stream-build", {}, static_cast<std::int64_t>(op));
    auto fresh = buildStream(op);
    built_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(shard.mu);
    return *shard.streams.emplace(op, std::move(fresh)).first->second;
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

    const AffineStream &affine = stream(op);
    const LineMap line_of(geom.lineBytes);
    // Feed (point, line) of every point in execution order to @p f,
    // stepping one running address per run.
    const auto walk = [&](auto &&f) {
        std::int64_t p = 0;
        for (const Addr start : affine.starts) {
            Addr addr = start;
            for (std::int64_t k = 0; k < affine.inner; ++k, ++p) {
                f(p, line_of(addr));
                addr += affine.stride;
            }
        }
    };

    auto fresh = std::make_unique<SetBuckets>();
    // Counting pass, then a placement pass over stable offsets: the
    // entries of one set come out chronological because the stream is
    // walked in point order both times.
    fresh->offsets.assign(static_cast<std::size_t>(num_sets) + 1, 0);
    walk([&](std::int64_t, std::int64_t line) {
        ++fresh->offsets[static_cast<std::size_t>(
                             CacheGeom::setOfLine(line, num_sets)) +
                         1];
    });
    for (std::size_t s = 1; s < fresh->offsets.size(); ++s)
        fresh->offsets[s] += fresh->offsets[s - 1];
    fresh->entries.resize(static_cast<std::size_t>(points_));
    std::vector<std::int64_t> cursor(
        fresh->offsets.begin(), fresh->offsets.end() - 1);
    walk([&](std::int64_t p, std::int64_t line) {
        const auto s = static_cast<std::size_t>(
            CacheGeom::setOfLine(line, num_sets));
        fresh->entries[static_cast<std::size_t>(cursor[s]++)] = {p, line};
    });

    std::lock_guard<std::mutex> lock(shard.mu);
    return *shard.buckets.emplace(key, std::move(fresh)).first->second;
}

} // namespace mvp::cme
