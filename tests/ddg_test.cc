/**
 * @file
 * Unit tests for DDG construction: register and memory dependence
 * edges, RecMII, SCCs, latency overrides and time bounds, checked
 * against a Floyd-Warshall reference on the builtin loops and generated
 * scenarios, and a graph shared by threads straight after build().
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <thread>
#include <utility>

#include "ddg/ddg.hh"
#include "ddg/memdep.hh"
#include "gen/generator.hh"
#include "ir/builder.hh"
#include "machine/presets.hh"
#include "workloads/workloads.hh"

namespace mvp::ddg
{
namespace
{

using namespace mvp::ir;

const MachineConfig kMachine = makeUnified();

/** Whether Ddg::build() accepts a nest of value category @p Nest. */
template <class Nest>
constexpr bool BUILDS_FROM = requires(Nest &&nest) {
    Ddg::build(std::forward<Nest>(nest), kMachine);
};

// The graph points at its nest, so a temporary nest must not compile:
// Ddg::build(ir::unrollInner(loop, f), m) would read a dead object.
static_assert(!BUILDS_FROM<LoopNest>);
static_assert(BUILDS_FROM<LoopNest &>);
static_assert(BUILDS_FROM<const LoopNest &>);

/** Count edges matching a predicate. */
template <typename Pred>
int
countEdges(const Ddg &g, Pred pred)
{
    return static_cast<int>(
        std::count_if(g.edges().begin(), g.edges().end(), pred));
}

const DdgEdge *
findEdge(const Ddg &g, OpId src, OpId dst)
{
    for (const auto &e : g.edges())
        if (e.src == src && e.dst == dst)
            return &e;
    return nullptr;
}

// -------------------------------------------------------- register edges

TEST(DdgBuild, RegisterEdgesFollowOperands)
{
    LoopNestBuilder b("reg");
    b.loop("i", 0, 16);
    const auto A = b.array("A", {16});
    const auto l = b.load(A, {affineVar(0)});
    const auto m = b.op(Opcode::FMul, {use(l), liveIn()});
    const auto s = b.op(Opcode::FAdd, {use(m), use(l)});
    b.store(A, {affineVar(0)}, use(s));
    const auto nest = b.build();
    const auto g = Ddg::build(nest, kMachine);

    const auto *lm = findEdge(g, l, m);
    ASSERT_NE(lm, nullptr);
    EXPECT_EQ(lm->latency, kMachine.latCacheHit);
    EXPECT_EQ(lm->distance, 0);
    EXPECT_TRUE(lm->isRegFlow());
    ASSERT_NE(findEdge(g, l, s), nullptr);
    ASSERT_NE(findEdge(g, m, s), nullptr);
}

TEST(DdgBuild, LiveInsCreateNoEdges)
{
    LoopNestBuilder b("livein");
    b.loop("i", 0, 8);
    const auto A = b.array("A", {8});
    const auto l = b.load(A, {affineVar(0)});
    b.op(Opcode::FMul, {use(l), liveIn()});
    const LoopNest nest = b.build();
    const auto g = Ddg::build(nest, kMachine);
    EXPECT_EQ(g.edges().size(), 1u);
}

TEST(DdgBuild, LoopCarriedOperandDistance)
{
    LoopNestBuilder b("acc");
    b.loop("i", 0, 16);
    const auto A = b.array("A", {16});
    const auto l = b.load(A, {affineVar(0)});
    const auto acc = b.op(Opcode::FAdd, {use(l), use(b.nextOpId(), 1)});
    const LoopNest nest = b.build();
    const auto g = Ddg::build(nest, kMachine);
    const auto *self = findEdge(g, acc, acc);
    ASSERT_NE(self, nullptr);
    EXPECT_EQ(self->distance, 1);
    EXPECT_TRUE(g.inRecurrence(acc));
    EXPECT_FALSE(g.inRecurrence(l));
}

// ----------------------------------------------------------- memdep unit

TEST(MemDep, UniformPairExactDistance)
{
    // A(i, j-1) written, A(i, j) read: the read at iteration j touches
    // what was written at j+1 -> dependence read->write? Check both
    // directions through the raw test.
    LoopNestBuilder b("md");
    b.loop("i", 0, 4);
    b.loop("j", 1, 17);
    const auto A = b.array("A", {4, 18});
    const auto ld = b.load(A, {affineVar(0), affineVar(1, 1, -1)});
    const auto m = b.op(Opcode::FMul, {use(ld), liveIn()});
    b.store(A, {affineVar(0), affineVar(1)}, use(m));
    const auto nest = b.build();

    const auto &ld_ref = *nest.op(0).memRef;
    const auto &st_ref = *nest.op(2).memRef;
    // store at iteration j writes A(i,j); load at j' reads A(i,j'-1):
    // same element when j' = j + 1 -> store -> load, distance +1.
    const auto res = testMemoryDependence(nest, st_ref, ld_ref);
    EXPECT_EQ(res.kind, MemDepResult::Kind::Exact);
    EXPECT_EQ(res.distance, 1);
    EXPECT_FALSE(res.everyIteration);
}

TEST(MemDep, IndependentWhenOffsetNotMultipleOfStride)
{
    LoopNestBuilder b("md2");
    b.loop("i", 0, 32);
    const auto A = b.array("A", {70});
    const auto l = b.load(A, {affineVar(0, 2, 0)});
    const auto m = b.op(Opcode::FMul, {use(l), liveIn()});
    b.store(A, {affineVar(0, 2, 1)}, use(m));
    const auto nest = b.build();
    const auto res = testMemoryDependence(nest, *nest.op(0).memRef,
                                          *nest.op(2).memRef);
    EXPECT_EQ(res.kind, MemDepResult::Kind::Independent);
}

TEST(MemDep, EveryIterationCollision)
{
    LoopNestBuilder b("md3");
    b.loop("i", 0, 8);
    const auto A = b.array("A", {8});
    const auto l = b.load(A, {affineConst(3)});
    const auto m = b.op(Opcode::FMul, {use(l), liveIn()});
    b.store(A, {affineConst(3)}, use(m));
    const auto nest = b.build();
    const auto res = testMemoryDependence(nest, *nest.op(0).memRef,
                                          *nest.op(2).memRef);
    EXPECT_EQ(res.kind, MemDepResult::Kind::Exact);
    EXPECT_TRUE(res.everyIteration);
}

TEST(MemDep, DisjointRangesIndependent)
{
    LoopNestBuilder b("md4");
    b.loop("i", 0, 8);
    const auto A = b.array("A", {32});
    const auto l = b.load(A, {affineVar(0)});               // [0, 7]
    const auto m = b.op(Opcode::FMul, {use(l), liveIn()});
    b.store(A, {affineVar(0, 2, 16)}, use(m));              // [16, 30]
    const auto nest = b.build();
    const auto res = testMemoryDependence(nest, *nest.op(0).memRef,
                                          *nest.op(2).memRef);
    EXPECT_EQ(res.kind, MemDepResult::Kind::Independent);
}

TEST(MemDep, NonUniformOverlapIsUnknown)
{
    LoopNestBuilder b("md5");
    b.loop("i", 0, 8);
    const auto A = b.array("A", {32});
    const auto l = b.load(A, {affineVar(0)});
    const auto m = b.op(Opcode::FMul, {use(l), liveIn()});
    b.store(A, {affineVar(0, 3, 1)}, use(m));
    const auto nest = b.build();
    const auto res = testMemoryDependence(nest, *nest.op(0).memRef,
                                          *nest.op(2).memRef);
    EXPECT_EQ(res.kind, MemDepResult::Kind::Unknown);
}

// -------------------------------------------------------- memory edges

TEST(DdgBuild, StoreLoadFlowEdgeAcrossIterations)
{
    // The applu.blts pattern: v(j) stored, v(j-1) loaded next iteration.
    LoopNestBuilder b("blts");
    b.loop("i", 0, 4);
    b.loop("j", 1, 33);
    const auto V = b.array("V", {4, 34});
    const auto vw = b.load(V, {affineVar(0), affineVar(1, 1, -1)}, "vw");
    const auto v = b.op(Opcode::FMul, {use(vw), liveIn()}, "v");
    const auto st = b.store(V, {affineVar(0), affineVar(1)}, use(v), "sv");
    const LoopNest nest = b.build();
    const auto g = Ddg::build(nest, kMachine);

    const auto *flow = findEdge(g, st, vw);
    ASSERT_NE(flow, nullptr);
    EXPECT_EQ(flow->kind, EdgeKind::MemFlow);
    EXPECT_EQ(flow->distance, 1);
    // This creates a genuine memory recurrence: vw -> v -> st -> vw.
    EXPECT_TRUE(g.inRecurrence(vw));
    EXPECT_TRUE(g.inRecurrence(st));
    EXPECT_GE(g.recMii(), 2);
}

TEST(DdgBuild, LoadLoadPairsUnordered)
{
    LoopNestBuilder b("ll");
    b.loop("i", 0, 8);
    const auto A = b.array("A", {9});
    const auto l1 = b.load(A, {affineVar(0)});
    const auto l2 = b.load(A, {affineVar(0, 1, 1)});
    b.op(Opcode::FAdd, {use(l1), use(l2)});
    const LoopNest nest = b.build();
    const auto g = Ddg::build(nest, kMachine);
    EXPECT_EQ(countEdges(g, [](const DdgEdge &e) {
                  return e.kind != EdgeKind::RegFlow;
              }),
              0);
}

TEST(DdgBuild, SameLocationStoreLoadSameIteration)
{
    LoopNestBuilder b("rmw");
    b.loop("i", 0, 8);
    const auto A = b.array("A", {8});
    const auto l = b.load(A, {affineVar(0)});
    const auto m = b.op(Opcode::FMul, {use(l), liveIn()});
    const auto st = b.store(A, {affineVar(0)}, use(m));
    const LoopNest nest = b.build();
    const auto g = Ddg::build(nest, kMachine);
    // Anti edge load -> store at distance 0.
    const auto *anti = findEdge(g, l, st);
    ASSERT_NE(anti, nullptr);
    EXPECT_EQ(anti->kind, EdgeKind::MemAnti);
    EXPECT_EQ(anti->distance, 0);
}

TEST(DdgBuild, UnknownPairSerialisedBothWays)
{
    LoopNestBuilder b("unk");
    b.loop("i", 0, 8);
    const auto A = b.array("A", {32});
    const auto l = b.load(A, {affineVar(0)});
    const auto m = b.op(Opcode::FMul, {use(l), liveIn()});
    const auto st = b.store(A, {affineVar(0, 3, 1)}, use(m));
    const LoopNest nest = b.build();
    const auto g = Ddg::build(nest, kMachine);
    ASSERT_NE(findEdge(g, l, st), nullptr);    // program order
    ASSERT_NE(findEdge(g, st, l), nullptr);    // distance-1 back edge
    EXPECT_EQ(findEdge(g, st, l)->distance, 1);
}

// ------------------------------------------------------------- recMii

TEST(RecMii, AcyclicIsOne)
{
    LoopNestBuilder b("acyc");
    b.loop("i", 0, 8);
    const auto A = b.array("A", {8});
    const auto l = b.load(A, {affineVar(0)});
    b.op(Opcode::FMul, {use(l), liveIn()});
    const LoopNest nest = b.build();
    const auto g = Ddg::build(nest, kMachine);
    EXPECT_EQ(g.recMii(), 1);
}

TEST(RecMii, SelfLoopAccumulator)
{
    LoopNestBuilder b("acc");
    b.loop("i", 0, 8);
    const auto A = b.array("A", {8});
    const auto l = b.load(A, {affineVar(0)});
    b.op(Opcode::FAdd, {use(l), use(b.nextOpId(), 1)});
    const LoopNest nest = b.build();
    const auto g = Ddg::build(nest, kMachine);
    // One FAdd of latency 2 per iteration distance 1.
    EXPECT_EQ(g.recMii(), kMachine.latFp);
}

TEST(RecMii, TwoOpCycleDistanceOne)
{
    LoopNestBuilder b("cyc2");
    b.loop("i", 0, 8);
    // r = a * d@-1 ; d = r - c  => cycle latency 4, distance 1.
    const auto r = b.op(Opcode::FMul, {liveIn(), use(1, 1)});
    b.op(Opcode::FSub, {use(r), liveIn()});
    const LoopNest nest = b.build();
    const auto g = Ddg::build(nest, kMachine);
    EXPECT_EQ(g.recMii(), 2 * kMachine.latFp);
}

TEST(RecMii, DistanceTwoHalvesTheBound)
{
    LoopNestBuilder b("cyc3");
    b.loop("i", 0, 8);
    const auto r = b.op(Opcode::FMul, {liveIn(), use(1, 2)});
    b.op(Opcode::FSub, {use(r), liveIn()});
    const LoopNest nest = b.build();
    const auto g = Ddg::build(nest, kMachine);
    EXPECT_EQ(g.recMii(), 2);   // ceil(4 / 2)
}

TEST(FeasibleII, OverrideRaisesRequiredII)
{
    LoopNestBuilder b("ovr");
    b.loop("i", 0, 16);
    const auto A = b.array("A", {17});
    // load feeds an accumulator through a recurrence that includes it:
    // acc = (load + acc@-1); load reads A(i) but the recurrence is only
    // through acc, so build a cycle through the load explicitly:
    // x = load; y = x * z@-1; z = y + c.
    const auto x = b.load(A, {affineVar(0)});
    const auto y = b.op(Opcode::FMul, {use(x), use(b.nextOpId() + 1, 1)});
    b.op(Opcode::FAdd, {use(y), liveIn()});
    const LoopNest nest = b.build();
    const auto g = Ddg::build(nest, kMachine);
    const Cycle rec = g.recMii();
    EXPECT_TRUE(g.feasibleII(rec));
    EXPECT_FALSE(g.feasibleII(rec - 1));
    // The load is not on the cycle; overriding its latency leaves the
    // recurrence intact but lengthens the x->y edge, which is acyclic.
    std::vector<Cycle> ov(g.size(), -1);
    ov[static_cast<std::size_t>(x)] = 50;
    EXPECT_TRUE(g.feasibleII(rec, ov));
    // Overriding an op on the cycle (y) does raise the bound.
    std::vector<Cycle> ov2(g.size(), -1);
    ov2[static_cast<std::size_t>(y)] = 50;
    EXPECT_FALSE(g.feasibleII(rec, ov2));
}

// ---------------------------------------------------------------- sccs

TEST(Sccs, PartitionAndRecurrenceFlags)
{
    LoopNestBuilder b("scc");
    b.loop("i", 0, 8);
    const auto A = b.array("A", {8});
    const auto l = b.load(A, {affineVar(0)});
    const auto y = b.op(Opcode::FMul, {use(l), use(b.nextOpId() + 1, 1)});
    const auto z = b.op(Opcode::FAdd, {use(y), liveIn()});
    b.store(A, {affineVar(0)}, use(z));
    const LoopNest nest = b.build();
    const auto g = Ddg::build(nest, kMachine);

    // {y, z} form one SCC; l and the store are trivial.
    int cyclic = 0;
    for (std::size_t s = 0; s < g.sccs().size(); ++s)
        if (g.sccs()[s].size() > 1)
            ++cyclic;
    EXPECT_EQ(cyclic, 1);
    EXPECT_EQ(g.sccOf(y), g.sccOf(z));
    EXPECT_NE(g.sccOf(l), g.sccOf(y));
    EXPECT_GE(g.sccRecMii(g.sccOf(y)), 2 * kMachine.latFp);
    EXPECT_EQ(g.sccRecMii(g.sccOf(l)), 1);
}

// ---------------------------------------------------------- time bounds

TEST(TimeBounds, ChainAsapAlap)
{
    LoopNestBuilder b("chain");
    b.loop("i", 0, 8);
    const auto A = b.array("A", {8});
    const auto l = b.load(A, {affineVar(0)});                   // lat 2
    const auto m = b.op(Opcode::FMul, {use(l), liveIn()});      // lat 2
    const auto s = b.op(Opcode::FAdd, {use(m), liveIn()});      // lat 2
    b.store(A, {affineVar(0)}, use(s));
    const LoopNest nest = b.build();
    const auto g = Ddg::build(nest, kMachine);
    const auto tb = g.timeBounds(4);

    EXPECT_EQ(tb.asap[0], 0);
    EXPECT_EQ(tb.asap[1], 2);
    EXPECT_EQ(tb.asap[2], 4);
    EXPECT_EQ(tb.asap[3], 6);
    EXPECT_EQ(tb.criticalPath, 6);
    // A pure chain has zero mobility everywhere...
    for (OpId v = 0; v < 4; ++v)
        EXPECT_EQ(tb.mobility(v), 0) << "op " << v;
    // ...except nothing; heights decrease along the chain.
    EXPECT_GT(tb.height(0), tb.height(3));
}

TEST(TimeBounds, MobilityOfSideBranch)
{
    LoopNestBuilder b("diamond");
    b.loop("i", 0, 8);
    const auto A = b.array("A", {8});
    const auto l = b.load(A, {affineVar(0)});
    const auto slow1 = b.op(Opcode::FMul, {use(l), liveIn()});
    const auto slow2 = b.op(Opcode::FMul, {use(slow1), liveIn()});
    const auto fast = b.op(Opcode::Copy, {use(l)});   // lat 1 branch
    const auto join = b.op(Opcode::FAdd, {use(slow2), use(fast)});
    b.store(A, {affineVar(0)}, use(join));
    const LoopNest nest = b.build();
    const auto g = Ddg::build(nest, kMachine);
    const auto tb = g.timeBounds(3);
    EXPECT_GT(tb.mobility(fast), 0);
    EXPECT_EQ(tb.mobility(slow1), 0);
    EXPECT_EQ(tb.mobility(slow2), 0);
}

// ------------------------------------------------- reference longest paths

/**
 * Max-plus all-pairs longest walks by Floyd-Warshall, independent of
 * the DDG's own Bellman-Ford: best[u][v] is the heaviest walk of one
 * or more edges from u to v under latency - ii*distance, restricted to
 * the nodes in @p member (NONE when there is no such walk). Sums are
 * clamped so a positive cycle cannot overflow; the diagonal stays
 * positive, which is all the feasibility test needs.
 */
struct MaxPlusPaths
{
    static constexpr Cycle NONE = std::numeric_limits<Cycle>::min();
    static constexpr Cycle CAP = Cycle{1} << 40;

    std::size_t n = 0;
    std::vector<Cycle> best;

    MaxPlusPaths(const Ddg &g, Cycle ii, const std::vector<char> &member)
        : n(g.size()), best(n * n, NONE)
    {
        for (const auto &e : g.edges()) {
            const auto u = static_cast<std::size_t>(e.src);
            const auto v = static_cast<std::size_t>(e.dst);
            if (member[u] && member[v])
                best[u * n + v] = std::max(best[u * n + v],
                                           e.latency - ii * e.distance);
        }
        for (std::size_t k = 0; k < n; ++k)
            for (std::size_t i = 0; i < n; ++i) {
                if (best[i * n + k] == NONE)
                    continue;
                for (std::size_t j = 0; j < n; ++j) {
                    if (best[k * n + j] == NONE)
                        continue;
                    const Cycle via = std::min(
                        best[i * n + k] + best[k * n + j], CAP);
                    best[i * n + j] = std::max(best[i * n + j], via);
                }
            }
    }

    Cycle at(std::size_t u, std::size_t v) const { return best[u * n + v]; }

    /** No positive-weight cycle among the member nodes. */
    bool feasible() const
    {
        for (std::size_t v = 0; v < n; ++v)
            if (at(v, v) != NONE && at(v, v) > 0)
                return false;
        return true;
    }
};

/** Smallest II >= 1 at which the member subgraph has no positive cycle,
 * found by counting up (no monotonicity assumed). */
Cycle
referenceRecMii(const Ddg &g, const std::vector<char> &member)
{
    for (Cycle ii = 1;; ++ii)
        if (MaxPlusPaths(g, ii, member).feasible())
            return ii;
}

/** Check every recurrence fact of @p g against the Floyd-Warshall
 * reference. */
void
expectMatchesReference(const Ddg &g, const std::string &what)
{
    SCOPED_TRACE(what);
    const std::size_t n = g.size();
    const std::vector<char> all(n, 1);
    const Cycle rec = referenceRecMii(g, all);
    ASSERT_EQ(g.recMii(), rec);
    EXPECT_TRUE(g.feasibleII(rec));
    if (rec > 1) {
        EXPECT_FALSE(g.feasibleII(rec - 1));
    }

    // Components: mutual reachability at any II (edge existence only).
    const MaxPlusPaths paths(g, rec, all);
    auto reaches = [&](std::size_t u, std::size_t v) {
        return paths.at(u, v) != MaxPlusPaths::NONE;
    };
    std::size_t covered = 0;
    for (std::size_t s = 0; s < g.sccs().size(); ++s) {
        const auto &comp = g.sccs()[s];
        ASSERT_FALSE(comp.empty());
        covered += comp.size();
        std::vector<char> member(n, 0);
        for (OpId v : comp) {
            EXPECT_EQ(g.sccOf(v), static_cast<int>(s));
            member[static_cast<std::size_t>(v)] = 1;
        }
        const bool cyclic =
            reaches(static_cast<std::size_t>(comp[0]),
                    static_cast<std::size_t>(comp[0]));
        EXPECT_EQ(g.sccRecMii(static_cast<int>(s)),
                  cyclic ? referenceRecMii(g, member) : 1)
            << "scc " << s;
    }
    EXPECT_EQ(covered, n);
    for (std::size_t u = 0; u < n; ++u) {
        const auto ou = static_cast<OpId>(u);
        EXPECT_EQ(g.inRecurrence(ou), reaches(u, u)) << "op " << u;
        for (std::size_t v = 0; v < n; ++v) {
            const auto ov = static_cast<OpId>(v);
            const bool same = u == v || (reaches(u, v) && reaches(v, u));
            EXPECT_EQ(g.sccOf(ou) == g.sccOf(ov), same)
                << "ops " << u << ", " << v;
        }
    }
    // Reverse topological order: an edge between components points to
    // an earlier one.
    for (const auto &e : g.edges()) {
        if (g.sccOf(e.src) != g.sccOf(e.dst)) {
            EXPECT_GT(g.sccOf(e.src), g.sccOf(e.dst));
        }
    }

    // ASAP: heaviest walk ending at the node (0 for sources); ALAP:
    // the critical path minus the heaviest walk leaving the node.
    const auto tb = g.timeBounds(rec);
    std::vector<Cycle> asap(n, 0);
    std::vector<Cycle> tail(n, 0);
    for (std::size_t u = 0; u < n; ++u)
        for (std::size_t v = 0; v < n; ++v) {
            if (!reaches(u, v))
                continue;
            asap[v] = std::max(asap[v], paths.at(u, v));
            tail[u] = std::max(tail[u], paths.at(u, v));
        }
    const Cycle cp = n == 0 ? 0 : *std::max_element(asap.begin(), asap.end());
    EXPECT_EQ(tb.criticalPath, cp);
    EXPECT_EQ(tb.asap, asap);
    for (std::size_t v = 0; v < n; ++v)
        EXPECT_EQ(tb.alap[v], cp - tail[v]) << "op " << v;
}

TEST(DdgReference, BuiltinLoopsOnTable1PresetsMatchFloydWarshall)
{
    const auto loops = workloads::allLoops();
    ASSERT_EQ(loops.size(), 32u);
    for (const auto &machine :
         {makeUnified(), makeTwoCluster(), makeFourCluster()})
        for (const auto &wl : loops)
            expectMatchesReference(Ddg::build(wl.nest, machine),
                                   wl.nest.name() + " on " + machine.name);
}

TEST(DdgReference, GeneratedScenariosMatchFloydWarshall)
{
    int with_recurrence = 0;
    for (std::uint64_t s = 0; s < 240; ++s) {
        const auto sc = gen::generateScenario(gen::deriveSeed(0xddf1ULL, s));
        const auto g = Ddg::build(sc.nest, sc.machine);
        expectMatchesReference(g, "scenario " + std::to_string(s));
        if (g.recMii() > 1)
            ++with_recurrence;
    }
    // The corpus must exercise recurrences, not only acyclic graphs.
    EXPECT_GE(with_recurrence, 60);
}

// ------------------------------------------------------------ sharing

/** Every recurrence fact and time bound of @p g, folded into one list. */
std::vector<Cycle>
readAll(const Ddg &g)
{
    std::vector<Cycle> out;
    for (std::size_t s = 0; s < g.sccs().size(); ++s) {
        out.push_back(static_cast<Cycle>(g.sccs()[s].size()));
        out.push_back(g.sccRecMii(static_cast<int>(s)));
    }
    for (std::size_t v = 0; v < g.size(); ++v) {
        out.push_back(g.sccOf(static_cast<OpId>(v)));
        out.push_back(g.inRecurrence(static_cast<OpId>(v)) ? 1 : 0);
    }
    out.push_back(g.recMii());
    const auto tb = g.timeBounds(g.recMii());
    out.insert(out.end(), tb.asap.begin(), tb.asap.end());
    out.insert(out.end(), tb.alap.begin(), tb.alap.end());
    return out;
}

// The graph is complete when build() returns: threads that share a
// fresh, never-queried graph only read it (the TSan job runs this).
TEST(Ddg, SharedWithoutWarmUpIsReadOnly)
{
    const auto loops = workloads::allLoops();
    const auto it = std::find_if(
        loops.begin(), loops.end(),
        [](const auto &wl) { return wl.nest.name() == "applu.blts"; });
    ASSERT_NE(it, loops.end());
    const auto g = Ddg::build(it->nest, kMachine);

    constexpr int THREADS = 8;
    std::vector<std::vector<Cycle>> seen(THREADS);
    std::vector<std::thread> workers;
    for (int t = 0; t < THREADS; ++t)
        workers.emplace_back([&g, &seen, t] {
            seen[static_cast<std::size_t>(t)] = readAll(g);
        });
    for (auto &w : workers)
        w.join();

    const auto expected = readAll(g);
    EXPECT_GT(g.recMii(), 1);
    for (const auto &s : seen)
        EXPECT_EQ(s, expected);
}

TEST(DdgDump, MentionsEdges)
{
    LoopNestBuilder b("dump");
    b.loop("i", 0, 8);
    const auto A = b.array("A", {8});
    const auto l = b.load(A, {affineVar(0)});
    b.op(Opcode::FMul, {use(l), liveIn()});
    const LoopNest nest = b.build();
    const auto g = Ddg::build(nest, kMachine);
    EXPECT_NE(g.toString().find("recMII"), std::string::npos);
    EXPECT_NE(g.toString().find("[reg]"), std::string::npos);
}

} // namespace
} // namespace mvp::ddg
