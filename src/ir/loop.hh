/**
 * @file
 * Loop-nest intermediate representation.
 *
 * A LoopNest holds a perfect loop nest whose innermost body is the unit
 * of modulo scheduling. It carries:
 *  - the loop dimensions (bounds and steps; outermost first),
 *  - the arrays referenced by the body (sizes, element width, base
 *    address in the flat benchmark address space),
 *  - the body operations and their register dataflow (with loop-carried
 *    distances on the innermost loop).
 *
 * This is the information the ICTINEO front-end hands the paper's
 * scheduler; reproducing the IR lets every downstream component (DDG
 * construction, Cache Miss Equations, the lockstep simulator) work from
 * first principles.
 */

#ifndef MVP_IR_LOOP_HH
#define MVP_IR_LOOP_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hh"
#include "ir/affine.hh"
#include "ir/opcode.hh"

namespace mvp::ir
{

/**
 * One loop of the nest: iterates lower, lower+step, ... while < upper.
 */
struct LoopDim
{
    std::string name;
    std::int64_t lower = 0;
    std::int64_t upper = 0;   ///< exclusive
    std::int64_t step = 1;    ///< must be positive

    /** Number of iterations executed by this loop. */
    std::int64_t tripCount() const;
};

/**
 * An array declaration: row-major, element size in bytes, and the base
 * address the benchmark's data layout assigned to it.
 */
struct ArrayDecl
{
    ArrayId id = INVALID_ID;
    std::string name;
    std::vector<std::int64_t> dims;   ///< extents, outermost first
    int elemSize = 4;                 ///< bytes per element
    Addr base = 0;                    ///< assigned base address

    /** Total size in bytes. */
    std::int64_t sizeBytes() const;

    /** Total number of elements. */
    std::int64_t elements() const;
};

/**
 * A register operand: the body operation producing the value plus the
 * innermost-loop distance (0 = same iteration, k = value produced k
 * iterations earlier). producer == INVALID_ID denotes a loop-invariant
 * live-in (constant or value computed outside the loop) that creates no
 * dependence edge.
 */
struct Operand
{
    OpId producer = INVALID_ID;
    int distance = 0;

    /** True when this operand is a loop-invariant live-in. */
    bool isLiveIn() const { return producer == INVALID_ID; }
};

/** A live-in operand (no dependence). */
Operand liveIn();

/** An operand reading @p producer 's value from @p distance iterations ago. */
Operand use(OpId producer, int distance = 0);

/**
 * One operation of the innermost loop body.
 */
struct Operation
{
    OpId id = INVALID_ID;
    Opcode opcode = Opcode::IAdd;
    std::string name;                 ///< optional label for dumps
    std::vector<Operand> inputs;      ///< register operands
    std::optional<AffineRef> memRef;  ///< present iff Load/Store

    /** FU class of this operation. */
    FuType fuType() const { return fuTypeOf(opcode); }

    /** True for Load/Store. */
    bool isMemory() const { return ir::isMemory(opcode); }

    /** True for Load. */
    bool isLoad() const { return ir::isLoad(opcode); }

    /** True for Store. */
    bool isStore() const { return ir::isStore(opcode); }

    /** True when the op defines a register value. */
    bool producesValue() const { return ir::producesValue(opcode); }
};

/**
 * A reference's addresses along one execution of the innermost loop.
 * An affine reference is affine in the innermost IV too, so iteration
 * k touches start + k * stride; in Addr (mod 2^64) arithmetic this
 * equals LoopNest::addressOf bit for bit, negative strides included.
 */
struct StridedAddress
{
    Addr start = 0;    ///< address at the innermost loop's lower bound
    Addr stride = 0;   ///< address step per innermost iteration

    /** Address at innermost iteration @p k. */
    Addr at(std::int64_t k) const
    {
        return start + static_cast<Addr>(k) * stride;
    }
};

/**
 * A perfect loop nest with a modulo-schedulable innermost body.
 */
class LoopNest
{
  public:
    /** Construct an empty nest with a name (for reports). */
    explicit LoopNest(std::string name = "loop");

    /** Loop-nest name. */
    const std::string &name() const { return name_; }

    /** All loops, outermost first. */
    const std::vector<LoopDim> &loops() const { return loops_; }

    /** Number of loops in the nest. */
    std::size_t depth() const { return loops_.size(); }

    /** Index of the innermost loop. */
    std::size_t innerDepth() const { return loops_.size() - 1; }

    /** Innermost loop descriptor. */
    const LoopDim &innerLoop() const;

    /** NITER: trip count of the innermost loop. */
    std::int64_t innerTripCount() const;

    /** NTIMES: number of innermost-loop executions (outer trips product). */
    std::int64_t outerExecutions() const;

    /** All arrays declared for this nest. */
    const std::vector<ArrayDecl> &arrays() const { return arrays_; }

    /** Array by id. */
    const ArrayDecl &array(ArrayId id) const;

    /** All body operations (ids are dense, in program order). */
    const std::vector<Operation> &ops() const { return ops_; }

    /** Operation by id. */
    const Operation &op(OpId id) const;

    /** Number of body operations. */
    std::size_t size() const { return ops_.size(); }

    /** Ids of the memory operations, in program order. */
    std::vector<OpId> memoryOps() const;

    /**
     * Byte address touched by @p ref at induction-variable values
     * @p ivs (row-major linearisation).
     */
    Addr addressOf(const AffineRef &ref,
                   const std::vector<std::int64_t> &ivs) const;

    /**
     * @p ref 's addresses over the innermost-loop execution whose outer
     * induction variables are in @p ivs (one entry per loop; the
     * innermost entry is overwritten). Built from two addressOf calls.
     */
    StridedAddress stridedAddressOf(const AffineRef &ref,
                                    std::vector<std::int64_t> &ivs) const;

    /**
     * Check structural invariants: operand producers exist and produce
     * values, distances are non-negative, memory ops carry references to
     * declared arrays with one index per dimension, every reference stays
     * in bounds over the whole iteration space, no array exceeds 4 GiB
     * or extends past address 2^63, loop bounds are sane.
     * Calls mvp_fatal() with a diagnostic on violation.
     */
    void validate() const;

    /** Multi-line dump of loops, arrays and operations. */
    std::string toString() const;

    /** @name Mutators (used by LoopNestBuilder) */
    /// @{
    std::size_t addLoop(LoopDim dim);
    ArrayId addArray(ArrayDecl decl);
    OpId addOp(Operation op);
    ArrayDecl &mutableArray(ArrayId id);
    /// @}

  private:
    std::string name_;
    std::vector<LoopDim> loops_;
    std::vector<ArrayDecl> arrays_;
    std::vector<Operation> ops_;
};

/**
 * Dense view of a loop nest's iteration space: maps linear indices
 * [0, points()) to induction-variable vectors in lexicographic execution
 * order (outermost slowest). Used by the CME sampling solver and the
 * simulator.
 */
class IterationSpace
{
  public:
    explicit IterationSpace(const LoopNest &nest);

    /** Total iteration points of the full nest. */
    std::int64_t points() const { return points_; }

    /** Points of the innermost loop only. */
    std::int64_t innerPoints() const { return trips_.back(); }

    /** Induction-variable values at linear index @p idx. */
    std::vector<std::int64_t> at(std::int64_t idx) const;

    /** Write the IVs for @p idx into @p out (resized as needed). */
    void at(std::int64_t idx, std::vector<std::int64_t> &out) const;

    /** Linear index of an IV vector. */
    std::int64_t indexOf(const std::vector<std::int64_t> &ivs) const;

  private:
    const LoopNest &nest_;
    std::vector<std::int64_t> trips_;
    std::int64_t points_;
};

} // namespace mvp::ir

#endif // MVP_IR_LOOP_HH
