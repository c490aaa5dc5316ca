/**
 * @file
 * Unit tests for the loop-nest IR: affine expressions, address
 * computation, validation, iteration spaces and the builder's layout
 * allocator.
 */

#include <gtest/gtest.h>

#include "ir/builder.hh"
#include "ir/loop.hh"
#include "ir/opcode.hh"

namespace mvp::ir
{
namespace
{

// --------------------------------------------------------------- opcode

TEST(Opcode, FuClasses)
{
    EXPECT_EQ(fuTypeOf(Opcode::IAdd), FuType::Int);
    EXPECT_EQ(fuTypeOf(Opcode::Copy), FuType::Int);
    EXPECT_EQ(fuTypeOf(Opcode::FMadd), FuType::Fp);
    EXPECT_EQ(fuTypeOf(Opcode::FDiv), FuType::Fp);
    EXPECT_EQ(fuTypeOf(Opcode::Load), FuType::Mem);
    EXPECT_EQ(fuTypeOf(Opcode::Store), FuType::Mem);
}

TEST(Opcode, Predicates)
{
    EXPECT_TRUE(isMemory(Opcode::Load));
    EXPECT_TRUE(isMemory(Opcode::Store));
    EXPECT_FALSE(isMemory(Opcode::FAdd));
    EXPECT_TRUE(isLoad(Opcode::Load));
    EXPECT_FALSE(isLoad(Opcode::Store));
    EXPECT_TRUE(producesValue(Opcode::Load));
    EXPECT_FALSE(producesValue(Opcode::Store));
}

TEST(Opcode, NamesAreStable)
{
    EXPECT_EQ(opcodeName(Opcode::FMadd), "fmadd");
    EXPECT_EQ(fuTypeName(FuType::Mem), "MEM");
}

// --------------------------------------------------------------- affine

TEST(AffineExpr, EvalLinearCombination)
{
    AffineExpr e;
    e.coeffs = {2, -1};
    e.constant = 5;
    EXPECT_EQ(e.eval({10, 3}), 22);
    EXPECT_EQ(e.eval({0, 0}), 5);
}

TEST(AffineExpr, MissingCoefficientsAreZero)
{
    const AffineExpr e = affineVar(0);
    EXPECT_EQ(e.coeff(0), 1);
    EXPECT_EQ(e.coeff(5), 0);
    EXPECT_EQ(e.eval({7, 100, 100}), 7);
}

TEST(AffineExpr, ConstantDetection)
{
    EXPECT_TRUE(affineConst(3).isConstant());
    EXPECT_FALSE(affineVar(1).isConstant());
    AffineExpr zero_coeffs;
    zero_coeffs.coeffs = {0, 0};
    zero_coeffs.constant = -1;
    EXPECT_TRUE(zero_coeffs.isConstant());
}

TEST(AffineExpr, EqualityIgnoresTrailingZeros)
{
    AffineExpr a = affineVar(0);
    AffineExpr b = affineVar(0);
    b.coeffs.push_back(0);
    EXPECT_EQ(a, b);
    b.constant = 1;
    EXPECT_FALSE(a == b);
}

TEST(AffineExpr, ToString)
{
    EXPECT_EQ(affineVar(1, 2, 3).toString(), "2*i1 + 3");
    EXPECT_EQ(affineVar(0).toString(), "i0");
    EXPECT_EQ(affineConst(0).toString(), "0");
}

TEST(AffineRef, UniformlyGenerated)
{
    const AffineRef a{0, {affineVar(0), affineVar(1, 1, -1)}};
    const AffineRef b{0, {affineVar(0), affineVar(1, 1, 4)}};
    const AffineRef c{0, {affineVar(0), affineVar(1, 2, 0)}};
    const AffineRef d{1, {affineVar(0), affineVar(1, 1, 0)}};
    EXPECT_TRUE(a.uniformlyGeneratedWith(b));
    EXPECT_FALSE(a.uniformlyGeneratedWith(c));   // different coefficient
    EXPECT_FALSE(a.uniformlyGeneratedWith(d));   // different array
}

// ----------------------------------------------------------------- loop

LoopNest
smallNest()
{
    LoopNestBuilder b("t");
    b.loop("i", 0, 4);
    b.loop("j", 0, 8, 2);
    const auto A = b.arrayAt("A", {4, 16}, 0x1000);
    const auto l = b.load(A, {affineVar(0), affineVar(1)}, "l");
    const auto m = b.op(Opcode::FMul, {use(l), liveIn()}, "m");
    b.store(A, {affineVar(0), affineVar(1)}, use(m), "s");
    return b.build();
}

TEST(LoopNest, TripCounts)
{
    const LoopNest nest = smallNest();
    EXPECT_EQ(nest.depth(), 2u);
    EXPECT_EQ(nest.innerTripCount(), 4);   // 0,2,4,6
    EXPECT_EQ(nest.outerExecutions(), 4);
    EXPECT_EQ(nest.loops()[0].tripCount(), 4);
}

TEST(LoopNest, RowMajorAddressing)
{
    const LoopNest nest = smallNest();
    const auto &ref = *nest.op(0).memRef;
    // A[i][j] at 0x1000 + (i*16 + j) * 4.
    EXPECT_EQ(nest.addressOf(ref, {0, 0}), 0x1000u);
    EXPECT_EQ(nest.addressOf(ref, {1, 0}), 0x1000u + 64);
    EXPECT_EQ(nest.addressOf(ref, {2, 6}), 0x1000u + (2 * 16 + 6) * 4);
}

TEST(LoopNest, MemoryOpsList)
{
    const LoopNest nest = smallNest();
    const auto mem = nest.memoryOps();
    ASSERT_EQ(mem.size(), 2u);
    EXPECT_EQ(mem[0], 0);
    EXPECT_EQ(mem[1], 2);
}

TEST(LoopNestDeath, OutOfBoundsReferenceIsFatal)
{
    LoopNestBuilder b("bad");
    b.loop("i", 0, 10);
    const auto A = b.array("A", {8});
    b.load(A, {affineVar(0)});   // i reaches 9, extent is 8
    EXPECT_EXIT((void)b.build(), ::testing::ExitedWithCode(1), "indexes");
}

TEST(LoopNestDeath, ReadBeforeDefInSameIterationIsFatal)
{
    LoopNestBuilder b("bad2");
    b.loop("i", 0, 4);
    const auto A = b.array("A", {4});
    // Op 0 reads op 1 at distance 0: not yet executed.
    b.op(Opcode::FAdd, {use(1, 0)});
    b.load(A, {affineVar(0)});
    EXPECT_EXIT((void)b.build(), ::testing::ExitedWithCode(1),
                "before it executes");
}

TEST(LoopNestDeath, StoreWithoutValueIsFatal)
{
    LoopNest nest("manual");
    nest.addLoop({"i", 0, 4, 1});
    nest.addArray({INVALID_ID, "A", {4}, 4, 0});
    Operation st;
    st.opcode = Opcode::Store;
    st.memRef = AffineRef{0, {affineVar(0)}};
    nest.addOp(std::move(st));
    EXPECT_EXIT(nest.validate(), ::testing::ExitedWithCode(1),
                "no value operand");
}

TEST(LoopNest, ArraysUpToFourGiBValidate)
{
    LoopNestBuilder b("huge");
    b.loop("i", 0, 2);
    const auto A = b.array("A", {1 << 15, 1 << 15}, 4);   // exactly 4 GiB
    b.load(A, {affineVar(0, (1 << 15) - 1), affineVar(0, (1 << 15) - 1)});
    const LoopNest nest = b.build();
    EXPECT_EQ(nest.array(A).sizeBytes(), std::int64_t{1} << 32);
}

TEST(LoopNestDeath, ArrayLargerThanFourGiBIsFatal)
{
    LoopNestBuilder b("huge");
    b.loop("i", 0, 4);
    const auto A = b.array("A", {1 << 15, (1 << 15) + 1}, 4);
    b.load(A, {affineVar(0), affineVar(0)});
    EXPECT_EXIT((void)b.build(), ::testing::ExitedWithCode(1),
                "larger than 4 GiB");
}

TEST(LoopNestDeath, ArrayPastAddressTwoToTheSixtyThreeIsFatal)
{
    // The last byte may sit at 2^63 - 1, not one byte further.
    const Addr limit = Addr{1} << 63;
    for (const Addr base : {limit - 4096, limit - 4095}) {
        LoopNestBuilder b("high");
        b.loop("i", 0, 4);
        const auto A = b.arrayAt("A", {1024}, base, 4);
        b.load(A, {affineVar(0)});
        if (base == limit - 4096) {
            EXPECT_EQ(b.build().array(A).base, base);
        } else {
            EXPECT_EXIT((void)b.build(), ::testing::ExitedWithCode(1),
                        "extends past address 2\\^63");
        }
    }
}

TEST(LoopNest, ToStringMentionsEverything)
{
    const std::string s = smallNest().toString();
    EXPECT_NE(s.find("for i"), std::string::npos);
    EXPECT_NE(s.find("A["), std::string::npos);
    EXPECT_NE(s.find("fmul"), std::string::npos);
}

// ------------------------------------------------------ iteration space

TEST(IterationSpace, LexicographicOrder)
{
    const LoopNest nest = smallNest();
    const IterationSpace space(nest);
    EXPECT_EQ(space.points(), 16);
    EXPECT_EQ(space.innerPoints(), 4);
    // First point: i=0, j=0; second: i=0, j=2 (inner advances first).
    EXPECT_EQ(space.at(0), (std::vector<std::int64_t>{0, 0}));
    EXPECT_EQ(space.at(1), (std::vector<std::int64_t>{0, 2}));
    EXPECT_EQ(space.at(4), (std::vector<std::int64_t>{1, 0}));
    EXPECT_EQ(space.at(15), (std::vector<std::int64_t>{3, 6}));
}

TEST(IterationSpace, IndexRoundTrip)
{
    const LoopNest nest = smallNest();
    const IterationSpace space(nest);
    for (std::int64_t p = 0; p < space.points(); ++p)
        EXPECT_EQ(space.indexOf(space.at(p)), p);
}

// -------------------------------------------------------------- builder

TEST(Builder, AutoLayoutIsAlignedAndDisjoint)
{
    LoopNestBuilder b("layout");
    b.loop("i", 0, 4);
    b.layoutBase(0x1000);
    b.layoutAlign(64);
    const auto A = b.array("A", {5});       // 20 bytes
    const auto B = b.array("B", {4});
    const auto l = b.load(A, {affineVar(0)});
    b.store(B, {affineVar(0)}, use(l));
    const LoopNest nest = b.build();
    EXPECT_EQ(nest.array(A).base, 0x1000u);
    EXPECT_EQ(nest.array(B).base % 64, 0u);
    EXPECT_GE(nest.array(B).base,
              nest.array(A).base +
                  static_cast<Addr>(nest.array(A).sizeBytes()));
}

TEST(Builder, ExplicitBasesAreKept)
{
    LoopNestBuilder b("explicit");
    b.loop("i", 0, 4);
    const auto A = b.arrayAt("A", {4}, 0x2000);
    const auto l = b.load(A, {affineVar(0)});
    b.op(Opcode::FAdd, {use(l), liveIn()});
    const LoopNest nest = b.build();
    EXPECT_EQ(nest.array(A).base, 0x2000u);
}

TEST(Builder, NextOpIdSupportsRecurrences)
{
    LoopNestBuilder b("acc");
    b.loop("i", 0, 8);
    const auto A = b.array("A", {8});
    const auto l = b.load(A, {affineVar(0)});
    const OpId acc = b.op(Opcode::FAdd, {use(l), use(b.nextOpId(), 1)});
    const LoopNest nest = b.build();
    EXPECT_EQ(nest.op(acc).inputs[1].producer, acc);
    EXPECT_EQ(nest.op(acc).inputs[1].distance, 1);
}

TEST(Builder, ElementSizeAffectsLayoutAndAddressing)
{
    LoopNestBuilder b("elem8");
    b.loop("i", 0, 4);
    const auto A = b.arrayAt("A", {8}, 0x100, 8);
    const auto l = b.load(A, {affineVar(0)});
    b.op(Opcode::FAdd, {use(l), liveIn()});
    const LoopNest nest = b.build();
    EXPECT_EQ(nest.array(A).sizeBytes(), 64);
    EXPECT_EQ(nest.addressOf(*nest.op(l).memRef, {3}), 0x100u + 24);
}

} // namespace
} // namespace mvp::ir
