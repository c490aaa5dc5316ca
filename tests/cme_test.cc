/**
 * @file
 * Tests for the Cache Miss Equations framework: reuse analysis, the
 * sampling solver, and agreement between the solver and the exact
 * trace-driven oracle (the property the paper relies on when it lets
 * CME guide cluster selection).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cme/oracle.hh"
#include "cme/reuse.hh"
#include "cme/solver.hh"
#include "gen/generator.hh"
#include "ir/builder.hh"

namespace mvp::cme
{
namespace
{

using namespace mvp::ir;

const CacheGeom GEOM_4K{4096, 32, 1};
const CacheGeom GEOM_2K{2048, 32, 1};
const CacheGeom GEOM_8K{8192, 32, 1};

/** Unit-stride streaming loop over one array. */
LoopNest
streamingLoop(std::int64_t n = 512)
{
    LoopNestBuilder b("stream");
    b.loop("r", 0, 8);
    b.loop("i", 0, n);
    const auto A = b.arrayAt("A", {n}, 0x10000);
    const auto l = b.load(A, {affineVar(1)}, "l");
    b.op(Opcode::FMul, {use(l), liveIn()});
    return b.build();
}

/** The motivating example's ping-pong pair: same set in every config. */
LoopNest
pingPongLoop()
{
    LoopNestBuilder b("pingpong");
    b.loop("r", 0, 8);
    b.loop("i", 0, 512);
    const auto B = b.arrayAt("B", {512}, 0x10000);
    const auto C = b.arrayAt("C", {512}, 0x10000 + 0x2000);   // 8KB apart
    const auto lb = b.load(B, {affineVar(1)}, "lb");
    const auto lc = b.load(C, {affineVar(1)}, "lc");
    b.op(Opcode::FMul, {use(lb), use(lc)});
    return b.build();
}

/** Small loop so the solver runs in exhaustive mode. */
LoopNest
tinyLoop()
{
    LoopNestBuilder b("tiny");
    b.loop("i", 0, 64);
    const auto A = b.arrayAt("A", {64}, 0x10000);
    const auto l = b.load(A, {affineVar(0)}, "l");
    b.op(Opcode::FMul, {use(l), liveIn()});
    return b.build();
}

// ---------------------------------------------------------------- reuse

TEST(Reuse, InnerStride)
{
    const auto nest = streamingLoop();
    const ReuseAnalysis ra(nest);
    EXPECT_EQ(ra.innerStrideBytes(0), 4);
    EXPECT_EQ(ra.selfReuse(0, 32), ReuseKind::SelfSpatial);
}

TEST(Reuse, ColumnWalkHasNoSpatialReuse)
{
    LoopNestBuilder b("col");
    b.loop("c", 0, 4);
    b.loop("l", 0, 16);
    const auto A = b.arrayAt("A", {16, 64}, 0x1000);
    const auto l = b.load(A, {affineVar(1), affineVar(0)}, "l");
    b.op(Opcode::FMul, {use(l), liveIn()});
    const auto nest = b.build();
    const ReuseAnalysis ra(nest);
    EXPECT_EQ(ra.innerStrideBytes(l), 64 * 4);
    EXPECT_EQ(ra.selfReuse(l, 32), ReuseKind::None);
}

TEST(Reuse, TemporalWhenInnerInvariant)
{
    LoopNestBuilder b("inv");
    b.loop("i", 0, 4);
    b.loop("j", 0, 16);
    const auto A = b.arrayAt("A", {4}, 0x1000);
    const auto l = b.load(A, {affineVar(0)}, "l");
    b.op(Opcode::FMul, {use(l), liveIn()});
    const auto nest = b.build();
    const ReuseAnalysis ra(nest);
    EXPECT_EQ(ra.innerStrideBytes(l), 0);
    EXPECT_EQ(ra.selfReuse(l, 32), ReuseKind::SelfTemporal);
}

TEST(Reuse, GroupTemporalPair)
{
    LoopNestBuilder b("grp");
    b.loop("i", 0, 4);
    b.loop("j", 1, 33);
    const auto A = b.arrayAt("A", {4, 34}, 0x1000);
    const auto lead = b.load(A, {affineVar(0), affineVar(1)}, "lead");
    const auto trail =
        b.load(A, {affineVar(0), affineVar(1, 1, -1)}, "trail");
    b.op(Opcode::FAdd, {use(lead), use(trail)});
    const auto nest = b.build();
    const ReuseAnalysis ra(nest);
    ASSERT_TRUE(ra.byteDelta(lead, trail).has_value());
    EXPECT_EQ(*ra.byteDelta(lead, trail), 4);
    const auto pairs = ra.groupPairs({lead, trail}, 32);
    ASSERT_EQ(pairs.size(), 1u);
    EXPECT_EQ(pairs[0].kind, ReuseKind::GroupTemporal);
    EXPECT_EQ(pairs[0].from, lead);    // lead touches the element first
    EXPECT_EQ(pairs[0].to, trail);
    EXPECT_EQ(pairs[0].distance, 1);
}

TEST(Reuse, NonUniformPairHasNoByteDelta)
{
    LoopNestBuilder b("nug");
    b.loop("j", 0, 16);
    const auto A = b.arrayAt("A", {64}, 0x1000);
    const auto a = b.load(A, {affineVar(0)}, "a");
    const auto c = b.load(A, {affineVar(0, 2, 0)}, "c");
    b.op(Opcode::FAdd, {use(a), use(c)});
    const auto nest = b.build();
    const ReuseAnalysis ra(nest);
    EXPECT_FALSE(ra.byteDelta(a, c).has_value());
}

// --------------------------------------------------------------- solver

TEST(CmeSolver, StreamingMissRatioIsOneEighth)
{
    // An 8KB array swept through a 4KB cache: every line is evicted
    // before its next sweep, so with 8 elements per 32B line the miss
    // ratio is 1/8.
    const auto nest = streamingLoop(2048);
    CmeAnalysis cme(nest);
    const double ratio = cme.missRatio({}, 0, GEOM_4K);
    EXPECT_NEAR(ratio, 0.125, 0.05);
}

TEST(CmeSolver, ResidentArrayOnlyColdMisses)
{
    // A 2KB array is resident in a 4KB cache: after the first of the 8
    // outer sweeps every access hits, so the ratio is ~ 64/4096.
    const auto nest = streamingLoop(512);
    CmeAnalysis cme(nest);
    EXPECT_LT(cme.missRatio({}, 0, GEOM_4K), 0.07);
}

TEST(CmeSolver, TemporalReuseHitsAlways)
{
    LoopNestBuilder b("inv");
    b.loop("i", 0, 8);
    b.loop("j", 0, 64);
    const auto A = b.arrayAt("A", {8}, 0x1000);
    const auto l = b.load(A, {affineVar(0)}, "l");
    b.op(Opcode::FMul, {use(l), liveIn()});
    const auto nest = b.build();
    CmeAnalysis cme(nest);
    // Only cold misses on a handful of sampled boundary points.
    EXPECT_LT(cme.missRatio({}, l, GEOM_4K), 0.05);
}

TEST(CmeSolver, PingPongPairAlwaysMissesTogether)
{
    const auto nest = pingPongLoop();
    CmeAnalysis cme(nest);
    // Together in one 4KB cache: the 8KB-apart arrays share every set.
    EXPECT_GT(cme.missRatio({0, 1}, 0, GEOM_4K), 0.9);
    EXPECT_GT(cme.missRatio({0, 1}, 1, GEOM_4K), 0.9);
    // Separated (each alone), both stream with spatial reuse.
    EXPECT_LT(cme.missRatio({}, 0, GEOM_4K), 0.2);
    EXPECT_LT(cme.missRatio({}, 1, GEOM_4K), 0.2);
}

TEST(CmeSolver, MissesPerIterationIsSumOfRatios)
{
    const auto nest = pingPongLoop();
    CmeAnalysis cme(nest);
    const double together = cme.missesPerIteration({0, 1}, GEOM_4K);
    EXPECT_GT(together, 1.8);   // both references miss nearly always
    const double split = cme.missesPerIteration({0}, GEOM_4K) +
                         cme.missesPerIteration({1}, GEOM_4K);
    EXPECT_LT(split, 0.4);      // ~ 0.125 each
}

TEST(CmeSolver, EmptySetHasNoMisses)
{
    const auto nest = tinyLoop();
    CmeAnalysis cme(nest);
    EXPECT_DOUBLE_EQ(cme.missesPerIteration({}, GEOM_4K), 0.0);
}

TEST(CmeSolver, ExhaustiveModeMatchesOracleExactly)
{
    // 64 points < maxSamples: the solver evaluates every point, so it
    // must agree with the oracle to the last digit.
    const auto nest = tinyLoop();
    CmeAnalysis cme(nest);
    CacheOracle oracle(nest);
    EXPECT_DOUBLE_EQ(cme.missRatio({}, 0, GEOM_4K),
                     oracle.missRatio({}, 0, GEOM_4K));
}

TEST(CmeSolver, DeterministicAcrossInstances)
{
    const auto nest = pingPongLoop();
    CmeAnalysis a(nest);
    CmeAnalysis b(nest);
    EXPECT_DOUBLE_EQ(a.missRatio({0, 1}, 0, GEOM_2K),
                     b.missRatio({0, 1}, 0, GEOM_2K));
}

TEST(CmeSolver, MemoisationCountsQueries)
{
    const auto nest = pingPongLoop();
    CmeAnalysis cme(nest);
    (void)cme.missRatio({0, 1}, 0, GEOM_4K);
    const auto solved = cme.queriesSolved();
    (void)cme.missRatio({0, 1}, 0, GEOM_4K);   // memoised
    EXPECT_EQ(cme.queriesSolved(), solved);
    (void)cme.missRatio({0, 1}, 0, GEOM_2K);   // new geometry
    EXPECT_GT(cme.queriesSolved(), solved);
}

TEST(CmeSolver, AssociativityRemovesPingPong)
{
    const auto nest = pingPongLoop();
    CmeAnalysis cme(nest);
    const CacheGeom two_way{4096, 32, 2};
    // A 2-way cache holds both streams: only cold/capacity misses.
    EXPECT_LT(cme.missRatio({0, 1}, 0, two_way), 0.3);
}

/**
 * The cache equations, evaluated the slow and obvious way: every
 * point's line from addressOf, and an access-by-access backward walk
 * over the interleaved stream. Returns the miss count of
 * set[ref_pos] over every iteration point.
 */
std::int64_t
naiveMisses(const LoopNest &nest, const std::vector<OpId> &set,
            std::size_t ref_pos, const CacheGeom &geom, int max_walk)
{
    const IterationSpace space(nest);
    const std::int64_t points = space.points();
    const std::size_t n = set.size();
    std::vector<std::int64_t> lines(static_cast<std::size_t>(points) * n);
    std::vector<std::int64_t> ivs;
    for (std::int64_t p = 0; p < points; ++p) {
        space.at(p, ivs);
        for (std::size_t j = 0; j < n; ++j)
            lines[static_cast<std::size_t>(p) * n + j] = geom.lineOf(
                nest.addressOf(*nest.op(set[j]).memRef, ivs));
    }
    const std::int64_t num_sets = geom.numSets();
    std::int64_t misses = 0;
    for (std::int64_t p = 0; p < points; ++p) {
        const std::size_t target = static_cast<std::size_t>(p) * n + ref_pos;
        const std::int64_t target_line = lines[target];
        std::vector<std::int64_t> conflicts;
        bool miss = true;
        int walked = 0;
        for (std::size_t i = target; i-- > 0;) {
            if (++walked > max_walk)
                break;
            const std::int64_t line = lines[i];
            if (line == target_line) {
                miss = static_cast<int>(conflicts.size()) >= geom.assoc;
                break;
            }
            if (line % num_sets == target_line % num_sets &&
                std::find(conflicts.begin(), conflicts.end(), line) ==
                    conflicts.end()) {
                conflicts.push_back(line);
                if (static_cast<int>(conflicts.size()) >= geom.assoc)
                    break;
            }
        }
        misses += miss ? 1 : 0;
    }
    return misses;
}

TEST(CmeSolver, ExhaustiveModeMatchesNaiveEquations)
{
    // Every loop here has at most 320 points, so the solver evaluates
    // each one: its ratio must equal the naive walk's exactly, for
    // power-of-two and other line sizes and set counts, 1- to 4-way
    // caches, strides that do and do not jump lines, and walk windows
    // that end inside a point.
    std::vector<LoopNest> nests;
    for (std::uint64_t i = 0; i < 24; ++i)
        nests.push_back(
            gen::generateScenario(gen::deriveSeed(0xc3e, i)).nest);
    {
        // Descending addresses (strides that wrap mod 2^64), non-unit
        // steps and a loop-invariant reference.
        LoopNestBuilder b("negative");
        b.loop("r", 1, 7, 2);
        b.loop("i", 3, 61, 3);
        const auto A = b.array("A", {8, 128});
        const auto B = b.array("B", {200}, 8);
        const auto l = b.load(A, {AffineExpr{{-1, 0}, 6},
                                  AffineExpr{{0, -2}, 125}});
        const auto m = b.load(B, {AffineExpr{{3, 1}, 0}});
        const auto c = b.load(B, {AffineExpr{{1, 0}, 0}});
        const auto s = b.op(Opcode::FAdd, {use(l), use(m)});
        const auto t = b.op(Opcode::FAdd, {use(s), use(c)});
        b.store(B, {AffineExpr{{-5, -3}, 205}}, use(t));
        nests.push_back(b.build());
    }
    {
        // Power-of-two strides in both directions, from zero (per run)
        // up to a full 32-byte line and past it, on unaligned bases.
        LoopNestBuilder b("pow2");
        b.loop("r", 0, 5);
        b.loop("i", 0, 60);
        const auto A = b.arrayAt("A", {5, 64}, 0x1004, 4);
        const auto B = b.arrayAt("B", {256}, 0x1804, 8);
        const auto C = b.arrayAt("C", {8, 8}, 0x1f00, 4);
        const auto D = b.arrayAt("D", {512}, 0x2010, 8);
        const auto down = b.load(A, {affineVar(0), affineVar(1, -1, 63)});
        const auto line = b.load(B, {affineVar(1, 4)});
        const auto back = b.load(B, {affineVar(1, -2, 200)});
        const auto flat = b.load(C, {affineVar(0), affineConst(3)});
        const auto wide = b.load(B, {AffineExpr{{1, 0}, 0}});
        const auto skip = b.load(D, {affineVar(1, 8)});
        const auto s = b.op(Opcode::FAdd, {use(down), use(line)});
        const auto t = b.op(Opcode::FAdd, {use(back), use(flat)});
        const auto u = b.op(Opcode::FAdd, {use(s), use(t)});
        const auto w = b.op(Opcode::FAdd, {use(wide), use(skip)});
        const auto v = b.op(Opcode::FAdd, {use(u), use(w)});
        b.store(A, {affineVar(0), affineVar(1, 1, 2)}, use(v));
        nests.push_back(b.build());
    }
    const CacheGeom geoms[] = {{512, 32, 1},  {1024, 32, 2}, {2048, 64, 4},
                               {2304, 24, 2}, {960, 16, 1},  {720, 12, 3}};
    const int walks[] = {0, 1, 5, 37, 4096};

    std::size_t checked = 0;
    for (const LoopNest &nest : nests) {
        const auto mem = nest.memoryOps();
        ASSERT_LE(IterationSpace(nest).points(), 320) << nest.name();
        for (const CacheGeom &geom : geoms) {
            for (const int walk : walks) {
                CmeParams params;
                params.maxWalk = walk;
                CmeAnalysis cme(nest, params);
                for (std::size_t r = 0; r < mem.size(); ++r) {
                    const double expected =
                        static_cast<double>(
                            naiveMisses(nest, mem, r, geom, walk)) /
                        static_cast<double>(IterationSpace(nest).points());
                    EXPECT_EQ(cme.missRatio(mem, mem[r], geom), expected)
                        << nest.name() << " op " << mem[r] << " line "
                        << geom.lineBytes << " sets " << geom.numSets()
                        << " assoc " << geom.assoc << " walk " << walk;
                    ++checked;
                }
            }
        }
    }
    EXPECT_GT(checked, 1000u);
}

// --------------------------------------------- solver vs oracle property

struct GeomCase
{
    const char *name;
    CacheGeom geom;
};

class SolverVsOracle : public ::testing::TestWithParam<GeomCase>
{
};

TEST_P(SolverVsOracle, AgreesWithinTolerance)
{
    // Property: on a mixed loop (streaming + stencil + conflicts), the
    // sampled CME estimate tracks the exact trace simulation within the
    // CI target plus sampling noise.
    LoopNestBuilder b("mixed");
    b.loop("i", 1, 13);
    b.loop("j", 1, 63);
    const auto A = b.arrayAt("A", {14, 64}, 0x10000);
    const auto B = b.arrayAt("B", {14, 64}, 0x10000 + 0x2000);
    const auto a0 = b.load(A, {affineVar(0), affineVar(1)}, "a0");
    const auto a1 = b.load(A, {affineVar(0), affineVar(1, 1, -1)}, "a1");
    const auto bb = b.load(B, {affineVar(0), affineVar(1)}, "b");
    const auto s = b.op(Opcode::FAdd, {use(a0), use(a1)});
    const auto m = b.op(Opcode::FMul, {use(s), use(bb)});
    b.store(B, {affineVar(0), affineVar(1)}, use(m), "sb");
    const auto nest = b.build();

    CmeParams params;
    params.maxSamples = 480;
    params.ciTarget = 0.03;
    CmeAnalysis cme(nest, params);
    CacheOracle oracle(nest);

    const auto &geom = GetParam().geom;
    const std::vector<OpId> set = {a0, a1, bb, 5};
    for (OpId op : set) {
        const double est = cme.missRatio(set, op, geom);
        const double exact = oracle.missRatio(set, op, geom);
        EXPECT_NEAR(est, exact, 0.12)
            << "op " << op << " geom " << GetParam().name;
    }
    EXPECT_NEAR(cme.missesPerIteration(set, geom),
                oracle.missesPerIteration(set, geom), 0.3)
        << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, SolverVsOracle,
    ::testing::Values(GeomCase{"2k_dm", GEOM_2K},
                      GeomCase{"4k_dm", GEOM_4K},
                      GeomCase{"8k_dm", GEOM_8K},
                      GeomCase{"4k_2way", CacheGeom{4096, 32, 2}},
                      GeomCase{"2k_64b", CacheGeom{2048, 64, 1}}),
    [](const auto &info) { return info.param.name; });

// --------------------------------------------------------------- oracle

TEST(Oracle, ExactStreamingCounts)
{
    // 512 elements, 8 per line, 8 outer reps with cache large enough for
    // the whole array after the first sweep? 512*4 = 2KB exactly fills
    // the 2KB cache -> after the first rep everything hits.
    const auto nest = streamingLoop(512);
    CacheOracle oracle(nest);
    const auto counts = oracle.missCounts({0}, GEOM_2K);
    EXPECT_EQ(counts.at(0), 64);   // one cold miss per line, then resident
}

TEST(Oracle, ConflictEviction)
{
    const auto nest = pingPongLoop();
    CacheOracle oracle(nest);
    const auto counts = oracle.missCounts({0, 1}, GEOM_4K);
    // Both references evict each other every iteration.
    EXPECT_EQ(counts.at(0), 8 * 512);
    EXPECT_EQ(counts.at(1), 8 * 512);
}

TEST(Oracle, MissRatioAddsOpToSet)
{
    const auto nest = pingPongLoop();
    CacheOracle oracle(nest);
    // Asking for op 0's ratio "in the set {1}" must include op 0 itself.
    EXPECT_GT(oracle.missRatio({1}, 0, GEOM_4K), 0.9);
}

} // namespace
} // namespace mvp::cme
