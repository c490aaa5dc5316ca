#include "ir/loop.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"

namespace mvp::ir
{

std::int64_t
LoopDim::tripCount() const
{
    if (step <= 0 || upper <= lower)
        return 0;
    return (upper - lower + step - 1) / step;
}

std::int64_t
ArrayDecl::sizeBytes() const
{
    return elements() * elemSize;
}

std::int64_t
ArrayDecl::elements() const
{
    std::int64_t n = 1;
    for (auto d : dims)
        n *= d;
    return n;
}

Operand
liveIn()
{
    return Operand{INVALID_ID, 0};
}

Operand
use(OpId producer, int distance)
{
    return Operand{producer, distance};
}

LoopNest::LoopNest(std::string name) : name_(std::move(name)) {}

const LoopDim &
LoopNest::innerLoop() const
{
    mvp_assert(!loops_.empty(), "loop nest '", name_, "' has no loops");
    return loops_.back();
}

std::int64_t
LoopNest::innerTripCount() const
{
    return innerLoop().tripCount();
}

std::int64_t
LoopNest::outerExecutions() const
{
    mvp_assert(!loops_.empty(), "loop nest '", name_, "' has no loops");
    std::int64_t n = 1;
    for (std::size_t d = 0; d + 1 < loops_.size(); ++d)
        n *= loops_[d].tripCount();
    return n;
}

const ArrayDecl &
LoopNest::array(ArrayId id) const
{
    mvp_assert(id >= 0 && static_cast<std::size_t>(id) < arrays_.size(),
               "array id ", id, " out of range in loop '", name_, "'");
    return arrays_[static_cast<std::size_t>(id)];
}

const Operation &
LoopNest::op(OpId id) const
{
    mvp_assert(id >= 0 && static_cast<std::size_t>(id) < ops_.size(),
               "op id ", id, " out of range in loop '", name_, "'");
    return ops_[static_cast<std::size_t>(id)];
}

std::vector<OpId>
LoopNest::memoryOps() const
{
    std::vector<OpId> out;
    for (const auto &o : ops_)
        if (o.isMemory())
            out.push_back(o.id);
    return out;
}

Addr
LoopNest::addressOf(const AffineRef &ref,
                    const std::vector<std::int64_t> &ivs) const
{
    const ArrayDecl &arr = array(ref.array);
    mvp_assert(ref.index.size() == arr.dims.size(),
               "reference to '", arr.name, "' has ", ref.index.size(),
               " indices, array has ", arr.dims.size(), " dims");
    std::int64_t linear = 0;
    for (std::size_t d = 0; d < ref.index.size(); ++d)
        linear = linear * arr.dims[d] + ref.index[d].eval(ivs);
    return arr.base + static_cast<Addr>(linear * arr.elemSize);
}

StridedAddress
LoopNest::stridedAddressOf(const AffineRef &ref,
                           std::vector<std::int64_t> &ivs) const
{
    mvp_assert(ivs.size() == depth(), "IV vector has wrong arity");
    const LoopDim &inner = innerLoop();
    std::int64_t &iv = ivs[innerDepth()];
    iv = inner.lower;
    const Addr start = addressOf(ref, ivs);
    iv = inner.lower + inner.step;
    return {start, addressOf(ref, ivs) - start};
}

namespace
{

/** Largest array validate() accepts, in bytes. */
constexpr std::int64_t MAX_ARRAY_BYTES = std::int64_t{1} << 32;

/**
 * Minimum and maximum of an affine expression over the (box) iteration
 * space: evaluate coefficient-by-coefficient at the bound that minimises
 * or maximises the term.
 */
std::pair<std::int64_t, std::int64_t>
affineRange(const AffineExpr &expr, const std::vector<LoopDim> &loops)
{
    std::int64_t lo = expr.constant;
    std::int64_t hi = expr.constant;
    for (std::size_t d = 0; d < loops.size(); ++d) {
        const std::int64_t c = expr.coeff(d);
        if (c == 0 || loops[d].tripCount() == 0)
            continue;
        const std::int64_t first = loops[d].lower;
        const std::int64_t last =
            loops[d].lower + (loops[d].tripCount() - 1) * loops[d].step;
        lo += c > 0 ? c * first : c * last;
        hi += c > 0 ? c * last : c * first;
    }
    return {lo, hi};
}

} // namespace

void
LoopNest::validate() const
{
    if (loops_.empty())
        mvp_fatal("loop nest '", name_, "' has no loops");
    for (const auto &l : loops_) {
        if (l.step <= 0)
            mvp_fatal("loop '", l.name, "' in '", name_,
                      "' has non-positive step ", l.step);
        if (l.tripCount() <= 0)
            mvp_fatal("loop '", l.name, "' in '", name_,
                      "' has empty iteration range");
    }
    for (std::size_t a = 0; a < arrays_.size(); ++a) {
        const auto &arr = arrays_[a];
        if (arr.id != static_cast<ArrayId>(a))
            mvp_fatal("array '", arr.name, "' has id ", arr.id,
                      ", expected ", a);
        if (arr.dims.empty())
            mvp_fatal("array '", arr.name, "' has no dimensions");
        for (auto d : arr.dims)
            if (d <= 0)
                mvp_fatal("array '", arr.name, "' has non-positive extent");
        if (arr.elemSize <= 0)
            mvp_fatal("array '", arr.name, "' has non-positive elemSize");
        // The 4 GiB cap keeps addressOf's int64 linearisation (index
        // times elemSize) and every extent product far from overflow,
        // and bounds the address range one request can describe.
        std::int64_t bytes = arr.elemSize;
        for (auto d : arr.dims) {
            if (bytes > MAX_ARRAY_BYTES / d)
                mvp_fatal("array '", arr.name, "' is larger than 4 GiB");
            bytes *= d;
        }
        // Addresses below 2^63 are non-negative as int64, so the
        // locality analyses may map them to lines by shift and to sets
        // by mask (cme/stream.hh, CacheGeom::setOfLine).
        if (arr.base > (Addr{1} << 63) - static_cast<Addr>(bytes))
            mvp_fatal("array '", arr.name, "' extends past address 2^63");
    }
    for (std::size_t i = 0; i < ops_.size(); ++i) {
        const Operation &o = ops_[i];
        if (o.id != static_cast<OpId>(i))
            mvp_fatal("op ", i, " in '", name_, "' has id ", o.id);
        for (const Operand &in : o.inputs) {
            if (in.isLiveIn())
                continue;
            if (in.producer < 0 ||
                static_cast<std::size_t>(in.producer) >= ops_.size())
                mvp_fatal("op ", o.id, " in '", name_,
                          "' reads unknown producer ", in.producer);
            if (!ops_[static_cast<std::size_t>(in.producer)].producesValue())
                mvp_fatal("op ", o.id, " in '", name_,
                          "' reads a store result");
            if (in.distance < 0)
                mvp_fatal("op ", o.id, " in '", name_,
                          "' has negative dependence distance");
            if (in.distance == 0 && in.producer >= o.id)
                mvp_fatal("op ", o.id, " in '", name_,
                          "' reads op ", in.producer,
                          " in the same iteration before it executes");
        }
        if (o.isMemory() != o.memRef.has_value())
            mvp_fatal("op ", o.id, " in '", name_,
                      "': memory reference present iff Load/Store");
        if (o.isStore() && o.inputs.empty())
            mvp_fatal("store op ", o.id, " in '", name_,
                      "' has no value operand");
        if (o.memRef) {
            const ArrayDecl &arr = array(o.memRef->array);
            if (o.memRef->index.size() != arr.dims.size())
                mvp_fatal("op ", o.id, " indexes '", arr.name, "' with ",
                          o.memRef->index.size(), " subscripts, expected ",
                          arr.dims.size());
            for (std::size_t d = 0; d < arr.dims.size(); ++d) {
                auto [lo, hi] = affineRange(o.memRef->index[d], loops_);
                if (lo < 0 || hi >= arr.dims[d])
                    mvp_fatal("op ", o.id, " in '", name_, "' indexes '",
                              arr.name, "' dim ", d, " with range [", lo,
                              ", ", hi, "], extent ", arr.dims[d]);
            }
        }
    }
}

std::string
LoopNest::toString() const
{
    std::ostringstream os;
    os << "loop nest '" << name_ << "'\n";
    for (std::size_t d = 0; d < loops_.size(); ++d) {
        os << std::string(2 * (d + 1), ' ') << "for " << loops_[d].name
           << " = " << loops_[d].lower << " .. <" << loops_[d].upper
           << " step " << loops_[d].step << "  (trip "
           << loops_[d].tripCount() << ")\n";
    }
    os << "  arrays:\n";
    for (const auto &a : arrays_) {
        os << "    " << a.name << "[";
        for (std::size_t d = 0; d < a.dims.size(); ++d)
            os << (d ? "][" : "") << a.dims[d];
        os << "] elem=" << a.elemSize << "B base=0x" << std::hex << a.base
           << std::dec << "\n";
    }
    os << "  body:\n";
    for (const auto &o : ops_) {
        os << "    %" << o.id << " = " << opcodeName(o.opcode);
        if (!o.name.empty())
            os << " '" << o.name << "'";
        for (const auto &in : o.inputs) {
            if (in.isLiveIn())
                os << " livein";
            else if (in.distance == 0)
                os << " %" << in.producer;
            else
                os << " %" << in.producer << "@-" << in.distance;
        }
        if (o.memRef) {
            os << " " << array(o.memRef->array).name << "(";
            for (std::size_t d = 0; d < o.memRef->index.size(); ++d)
                os << (d ? ", " : "") << o.memRef->index[d].toString();
            os << ")";
        }
        os << "\n";
    }
    return os.str();
}

std::size_t
LoopNest::addLoop(LoopDim dim)
{
    loops_.push_back(std::move(dim));
    return loops_.size() - 1;
}

ArrayId
LoopNest::addArray(ArrayDecl decl)
{
    decl.id = static_cast<ArrayId>(arrays_.size());
    arrays_.push_back(std::move(decl));
    return arrays_.back().id;
}

OpId
LoopNest::addOp(Operation op)
{
    op.id = static_cast<OpId>(ops_.size());
    ops_.push_back(std::move(op));
    return ops_.back().id;
}

ArrayDecl &
LoopNest::mutableArray(ArrayId id)
{
    mvp_assert(id >= 0 && static_cast<std::size_t>(id) < arrays_.size(),
               "array id out of range");
    return arrays_[static_cast<std::size_t>(id)];
}

IterationSpace::IterationSpace(const LoopNest &nest) : nest_(nest)
{
    points_ = 1;
    for (const auto &l : nest.loops()) {
        trips_.push_back(l.tripCount());
        points_ *= l.tripCount();
    }
}

std::vector<std::int64_t>
IterationSpace::at(std::int64_t idx) const
{
    std::vector<std::int64_t> out;
    at(idx, out);
    return out;
}

void
IterationSpace::at(std::int64_t idx, std::vector<std::int64_t> &out) const
{
    mvp_assert(idx >= 0 && idx < points_, "iteration index out of range");
    out.resize(trips_.size());
    for (std::size_t d = trips_.size(); d-- > 0;) {
        const std::int64_t k = idx % trips_[d];
        idx /= trips_[d];
        const auto &l = nest_.loops()[d];
        out[d] = l.lower + k * l.step;
    }
}

std::int64_t
IterationSpace::indexOf(const std::vector<std::int64_t> &ivs) const
{
    mvp_assert(ivs.size() == trips_.size(), "IV vector has wrong arity");
    std::int64_t idx = 0;
    for (std::size_t d = 0; d < trips_.size(); ++d) {
        const auto &l = nest_.loops()[d];
        const std::int64_t k = (ivs[d] - l.lower) / l.step;
        mvp_assert(k >= 0 && k < trips_[d], "IV out of loop range");
        idx = idx * trips_[d] + k;
    }
    return idx;
}

} // namespace mvp::ir
