/**
 * @file
 * Convenience builder for loop nests, including the data-layout
 * allocator that assigns array base addresses.
 *
 * Array placement matters in this reproduction exactly as it does in the
 * paper: the motivating example (Figure 3) relies on two arrays being
 * laid out a multiple of the cache size apart so that their references
 * ping-pong in a direct-mapped cache.
 */

#ifndef MVP_IR_BUILDER_HH
#define MVP_IR_BUILDER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "ir/loop.hh"

namespace mvp::ir
{

/**
 * Fluent construction of a LoopNest.
 *
 * Usage:
 * @code
 *   LoopNestBuilder b("saxpy");
 *   auto i = b.loop("i", 0, 256);
 *   auto x = b.array("X", {256});
 *   auto y = b.array("Y", {256});
 *   auto lx = b.load(x, {affineVar(i)});
 *   auto ly = b.load(y, {affineVar(i)});
 *   auto m  = b.op(Opcode::FMul, {use(lx), liveIn()});
 *   auto s  = b.op(Opcode::FAdd, {use(m), use(ly)});
 *   b.store(y, {affineVar(i)}, use(s));
 *   LoopNest nest = b.build();
 * @endcode
 */
class LoopNestBuilder
{
  public:
    explicit LoopNestBuilder(std::string name);

    /** Add a loop (outermost first); returns its depth index. */
    std::size_t loop(const std::string &name, std::int64_t lower,
                     std::int64_t upper, std::int64_t step = 1);

    /**
     * Declare an array whose base address the layout allocator assigns
     * at build() time.
     */
    ArrayId array(const std::string &name, std::vector<std::int64_t> dims,
                  int elem_size = 4);

    /** Declare an array at an explicit base address. */
    ArrayId arrayAt(const std::string &name, std::vector<std::int64_t> dims,
                    Addr base, int elem_size = 4);

    /** Add a load of @p arr at the given affine indices. */
    OpId load(ArrayId arr, std::vector<AffineExpr> index,
              const std::string &name = "");

    /** Add a store of @p value to @p arr at the given affine indices. */
    OpId store(ArrayId arr, std::vector<AffineExpr> index, Operand value,
               const std::string &name = "");

    /** Add a non-memory operation. */
    OpId op(Opcode opcode, std::vector<Operand> inputs,
            const std::string &name = "");

    /**
     * Id the next added operation will receive. Lets a body reference an
     * operation inside its own operand list (loop-carried recurrences,
     * e.g. accumulators: op(FAdd, {use(x), use(b.nextOpId(), 1)})).
     */
    OpId nextOpId() const { return static_cast<OpId>(nest_.size()); }

    /** @name Layout allocator controls */
    /// @{
    /** First address handed out (default 0x10000). */
    void layoutBase(Addr base) { layout_base_ = base; }
    /** Alignment of every allocated array (default 64 bytes). */
    void layoutAlign(std::int64_t align) { layout_align_ = align; }
    /// @}

    /**
     * Assign base addresses to all auto-layout arrays, validate the nest
     * and return it. The builder can be reused afterwards only by
     * constructing a new one.
     */
    LoopNest build();

  private:
    LoopNest nest_;
    std::vector<bool> auto_layout_;
    Addr layout_base_ = 0x10000;
    std::int64_t layout_align_ = 64;
    bool built_ = false;
};

} // namespace mvp::ir

#endif // MVP_IR_BUILDER_HH
