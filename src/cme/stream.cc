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

AffineStream
StreamCache::buildStream(OpId op) const
{
    const auto &operation = nest_.op(op);
    mvp_assert(operation.isMemory(), "access stream of a non-memory op");

    // The strided addresses equal addressOf bit for bit; an affine
    // reference's innermost stride does not depend on the outer IVs.
    AffineStream stream;
    stream.inner = nest_.innerTripCount();
    stream.starts.reserve(static_cast<std::size_t>(points_ / stream.inner));
    std::vector<std::int64_t> ivs(nest_.depth());
    for (std::int64_t first = 0; first < points_; first += stream.inner) {
        space_.at(first, ivs);
        const ir::StridedAddress addr =
            nest_.stridedAddressOf(*operation.memRef, ivs);
        if (first == 0)
            stream.stride = addr.stride;
        mvp_assert(addr.stride == stream.stride, "op ", op,
                   " has an innermost stride that varies between runs");
        stream.starts.push_back(addr.start);
    }
    return stream;
}

const AffineStream &
StreamCache::stream(OpId op)
{
    requests_.fetch_add(1, std::memory_order_relaxed);
    if (const AffineStream *hit = streams_.find(op))
        return *hit;

    // Build outside the memo's locks: streams are pure functions of the
    // key, so a racing builder produces an identical value.
    MVP_TRACE_SPAN("stream-build", {}, static_cast<std::int64_t>(op));
    AffineStream fresh = buildStream(op);
    built_.fetch_add(1, std::memory_order_relaxed);
    return streams_.tryInsert(op, std::move(fresh));
}

} // namespace mvp::cme
