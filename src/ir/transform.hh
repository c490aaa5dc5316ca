/**
 * @file
 * Loop transformations on the IR.
 *
 * The paper (§4.3) observes that a load with spatial locality has a
 * fractional miss ratio (e.g. 1/8 with 8 elements per line) and
 * suggests — without evaluating it — that "loop unrolling could be used
 * to generate multiple instances of the same instruction such that one
 * of them always misses and the others always hit", letting the
 * threshold mechanism schedule only the missing instance with the miss
 * latency. unrollInner() implements that transformation; `repro
 * unroll` (harness::reproduceUnroll) evaluates the suggestion.
 */

#ifndef MVP_IR_TRANSFORM_HH
#define MVP_IR_TRANSFORM_HH

#include "ir/loop.hh"

namespace mvp::ir
{

/**
 * Unroll the innermost loop of @p nest by @p factor.
 *
 * The innermost trip count must be divisible by the factor (fatal
 * otherwise — callers pick factors that divide their trips). Register
 * operands are remapped across copies: a distance-d operand of copy u
 * reads copy (u-d) mod factor at distance ceil((d-u)/factor). Memory
 * references gain the per-copy offset on every dimension that involves
 * the innermost induction variable.
 *
 * The result executes the same operations on the same addresses in the
 * same order as the original.
 */
LoopNest unrollInner(const LoopNest &nest, int factor);

} // namespace mvp::ir

#endif // MVP_IR_TRANSFORM_HH
