#include "ir/builder.hh"

#include "common/logging.hh"

namespace mvp::ir
{

LoopNestBuilder::LoopNestBuilder(std::string name) : nest_(std::move(name))
{
}

std::size_t
LoopNestBuilder::loop(const std::string &name, std::int64_t lower,
                      std::int64_t upper, std::int64_t step)
{
    LoopDim dim;
    dim.name = name;
    dim.lower = lower;
    dim.upper = upper;
    dim.step = step;
    return nest_.addLoop(std::move(dim));
}

ArrayId
LoopNestBuilder::array(const std::string &name,
                       std::vector<std::int64_t> dims, int elem_size)
{
    ArrayDecl decl;
    decl.name = name;
    decl.dims = std::move(dims);
    decl.elemSize = elem_size;
    const ArrayId id = nest_.addArray(std::move(decl));
    auto_layout_.push_back(true);
    return id;
}

ArrayId
LoopNestBuilder::arrayAt(const std::string &name,
                         std::vector<std::int64_t> dims, Addr base,
                         int elem_size)
{
    ArrayDecl decl;
    decl.name = name;
    decl.dims = std::move(dims);
    decl.elemSize = elem_size;
    decl.base = base;
    const ArrayId id = nest_.addArray(std::move(decl));
    auto_layout_.push_back(false);
    return id;
}

OpId
LoopNestBuilder::load(ArrayId arr, std::vector<AffineExpr> index,
                      const std::string &name)
{
    Operation o;
    o.opcode = Opcode::Load;
    o.name = name;
    o.memRef = AffineRef{arr, std::move(index)};
    return nest_.addOp(std::move(o));
}

OpId
LoopNestBuilder::store(ArrayId arr, std::vector<AffineExpr> index,
                       Operand value, const std::string &name)
{
    Operation o;
    o.opcode = Opcode::Store;
    o.name = name;
    o.inputs = {value};
    o.memRef = AffineRef{arr, std::move(index)};
    return nest_.addOp(std::move(o));
}

OpId
LoopNestBuilder::op(Opcode opcode, std::vector<Operand> inputs,
                    const std::string &name)
{
    mvp_assert(!ir::isMemory(opcode),
               "use load()/store() for memory operations");
    Operation o;
    o.opcode = opcode;
    o.name = name;
    o.inputs = std::move(inputs);
    return nest_.addOp(std::move(o));
}

LoopNest
LoopNestBuilder::build()
{
    mvp_assert(!built_, "LoopNestBuilder::build() called twice");
    built_ = true;

    Addr cursor = layout_base_;
    for (std::size_t a = 0; a < nest_.arrays().size(); ++a) {
        if (!auto_layout_[a])
            continue;
        auto &decl = nest_.mutableArray(static_cast<ArrayId>(a));
        const auto align = static_cast<Addr>(layout_align_);
        cursor = (cursor + align - 1) / align * align;
        decl.base = cursor;
        cursor += static_cast<Addr>(decl.sizeBytes());
    }

    nest_.validate();
    return std::move(nest_);
}

} // namespace mvp::ir
