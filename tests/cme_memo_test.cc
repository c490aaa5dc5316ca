/**
 * @file
 * Memo-consistency tests for the hashed-key locality caches.
 *
 * The CME solver and the exact oracle replaced their string memo keys
 * with FNV-hashed struct keys (cme/setkey.hh) held in a ShardedMemo
 * (common/memo.hh). These tests pin the contract the scheduler relies
 * on: a memoised answer is bit-identical to a fresh instance's answer,
 * regardless of query order, set permutation, duplicate ops in the set,
 * or how many entries the memo has absorbed (growth/rehash included).
 * The per-loop LoopLocality holder (cme/provider.hh) is pinned too: one
 * analysis per provider name, on the loop's one stream cache, even when
 * eight threads race the first binding.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cme/oracle.hh"
#include "cme/provider.hh"
#include "cme/setkey.hh"
#include "cme/solver.hh"
#include "cme/stream.hh"
#include "common/logging.hh"
#include "common/memo.hh"
#include "common/random.hh"
#include "ir/builder.hh"

namespace mvp::cme
{
namespace
{

using namespace mvp::ir;

const CacheGeom GEOM_2K{2048, 32, 1};
const CacheGeom GEOM_4K{4096, 32, 1};

/** Several interfering references so distinct sets answer differently. */
LoopNest
interferenceLoop()
{
    LoopNestBuilder b("memo");
    b.loop("r", 0, 8);
    b.loop("i", 0, 512);
    const auto A = b.arrayAt("A", {512}, 0x10000);
    const auto B = b.arrayAt("B", {512}, 0x10000 + 0x2000);
    const auto C = b.arrayAt("C", {512}, 0x10000 + 0x4000);
    const auto la = b.load(A, {affineVar(1)}, "la");
    const auto lb = b.load(B, {affineVar(1)}, "lb");
    const auto lc = b.load(C, {affineVar(1)}, "lc");
    const auto m = b.op(Opcode::FMul, {use(la), use(lb)});
    const auto s = b.op(Opcode::FAdd, {use(m), use(lc)});
    b.store(A, {affineVar(1)}, use(s));
    return b.build();
}

TEST(CmeMemo, MemoisedEqualsFresh)
{
    const auto nest = interferenceLoop();
    const auto mem = nest.memoryOps();
    CmeAnalysis warm(nest);

    // Warm the memo with every subset query we are about to replay.
    for (OpId op : mem) {
        (void)warm.missRatio(mem, op, GEOM_2K);
        (void)warm.missRatio(mem, op, GEOM_4K);
    }
    (void)warm.missesPerIteration(mem, GEOM_2K);
    const std::size_t queries_after_warmup = warm.queriesSolved();

    for (OpId op : mem) {
        CmeAnalysis fresh(nest);
        EXPECT_EQ(warm.missRatio(mem, op, GEOM_2K),
                  fresh.missRatio(mem, op, GEOM_2K));
        EXPECT_EQ(warm.missRatio(mem, op, GEOM_4K),
                  fresh.missRatio(mem, op, GEOM_4K));
    }
    {
        CmeAnalysis fresh(nest);
        EXPECT_EQ(warm.missesPerIteration(mem, GEOM_2K),
                  fresh.missesPerIteration(mem, GEOM_2K));
    }
    // Every replay above must have been served from the memo.
    EXPECT_EQ(warm.queriesSolved(), queries_after_warmup);
}

TEST(CmeMemo, SetOrderAndDuplicatesAreCanonicalised)
{
    const auto nest = interferenceLoop();
    const auto mem = nest.memoryOps();
    ASSERT_GE(mem.size(), 3u);

    CmeAnalysis cme(nest);
    const double ref = cme.missRatio(mem, mem[0], GEOM_2K);
    const double ref_set = cme.missesPerIteration(mem, GEOM_2K);

    std::vector<OpId> shuffled = mem;
    std::reverse(shuffled.begin(), shuffled.end());
    EXPECT_EQ(cme.missRatio(shuffled, mem[0], GEOM_2K), ref);
    EXPECT_EQ(cme.missesPerIteration(shuffled, GEOM_2K), ref_set);

    std::vector<OpId> dup = mem;
    dup.push_back(mem[1]);
    dup.push_back(mem[0]);
    EXPECT_EQ(cme.missRatio(dup, mem[0], GEOM_2K), ref);
    EXPECT_EQ(cme.missesPerIteration(dup, GEOM_2K), ref_set);

    // op absent from the set vector == op present (it joins the set).
    std::vector<OpId> without;
    for (OpId op : mem)
        if (op != mem[0])
            without.push_back(op);
    EXPECT_EQ(cme.missRatio(without, mem[0], GEOM_2K), ref);
}

/**
 * A memoised oracle answer is bit-identical to a fresh oracle's, in
 * any query order. Sets grow one op at a time in random orders (the
 * way the scheduler's Attempt::addedMisses grows cluster sets) under
 * three geometries: a direct-mapped cache whose 64 sets every op
 * covers, a direct-mapped one of 512 sets each op covers a fraction
 * of, and a 2-way one that exercises the LRU probe and promotion.
 */
TEST(CmeMemo, OracleMemoMatchesFresh)
{
    const auto nest = interferenceLoop();
    const auto mem = nest.memoryOps();
    const CacheGeom geoms[] = {GEOM_2K, {16384, 32, 1}, {4096, 32, 2}};
    auto shared = std::make_shared<StreamCache>(nest);

    Rng rng(0xfeedULL);
    for (int trial = 0; trial < 8; ++trial) {
        // Random growth order (Fisher-Yates on the memory ops).
        std::vector<OpId> order = mem;
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1],
                      order[static_cast<std::size_t>(
                          rng.nextBounded(i))]);

        for (const CacheGeom &geom : geoms) {
            CacheOracle warm(nest, shared);
            std::vector<OpId> set;
            for (OpId op : order) {
                set.push_back(op);
                (void)warm.missesPerIteration(set, geom);
            }
            set.clear();
            for (OpId op : order) {
                set.push_back(op);
                CacheOracle fresh(nest, shared);
                EXPECT_EQ(warm.missesPerIteration(set, geom),
                          fresh.missesPerIteration(set, geom));
                for (OpId q : set)
                    EXPECT_EQ(warm.missRatio(set, q, geom),
                              fresh.missRatio(set, q, geom));
            }
            CacheOracle fresh(nest, shared);
            EXPECT_EQ(warm.missCounts(mem, geom),
                      fresh.missCounts(mem, geom));
        }
    }

    CacheOracle warm(nest);
    std::vector<OpId> shuffled = mem;
    std::reverse(shuffled.begin(), shuffled.end());
    EXPECT_EQ(warm.missesPerIteration(shuffled, GEOM_2K),
              warm.missesPerIteration(mem, GEOM_2K));
}

TEST(CmeMemo, ShardedMemoSurvivesGrowth)
{
    // Push the memo's shards through many rehashes and verify every
    // stored answer is still retrievable and correct, and that a value
    // found before the growth is still readable through its address.
    ShardedMemo<detail::QueryKey, detail::RatioValue, detail::QueryHash,
                detail::QueryEq>
        memo;
    std::vector<OpId> set{1, 2, 3};
    const CacheGeom geom = GEOM_2K;
    const auto refOf = [&](int i) {
        set[0] = static_cast<OpId>(i);
        return detail::QueryKeyRef{detail::queryHash(geom, set[0], set),
                                   &geom, set[0], &set};
    };
    constexpr int N = 10000;
    const detail::RatioValue *early = nullptr;
    for (int i = 0; i < N; ++i) {
        const detail::QueryKeyRef ref = refOf(i);
        ASSERT_EQ(memo.find(ref), nullptr);
        const detail::RatioValue &stored = memo.tryInsert(
            detail::QueryKey{ref.hash, geom, ref.op, set},
            {static_cast<double>(i) * 0.5, static_cast<double>(i) * 0.01});
        if (i == 7)
            early = &stored;
    }
    EXPECT_EQ(memo.size(), static_cast<std::size_t>(N));
    EXPECT_EQ(early->ratio, 3.5);
    EXPECT_EQ(early->ciHalfWidth, 7 * 0.01);
    EXPECT_EQ(memo.find(refOf(7)), early);
    for (int i = 0; i < N; ++i) {
        const detail::RatioValue *hit = memo.find(refOf(i));
        ASSERT_NE(hit, nullptr);
        EXPECT_EQ(hit->ratio, static_cast<double>(i) * 0.5);
        EXPECT_EQ(hit->ciHalfWidth, static_cast<double>(i) * 0.01);
    }
    // A different geometry with the same ops must miss.
    const CacheGeom other = GEOM_4K;
    const detail::QueryKeyRef ref{detail::queryHash(other, set[0], set),
                                  &other, set[0], &set};
    EXPECT_EQ(memo.find(ref), nullptr);
}

TEST(StreamCache, AffineMatchesDirectAddressing)
{
    const auto nest = interferenceLoop();
    const ir::IterationSpace space(nest);
    StreamCache cache(nest);
    ASSERT_EQ(cache.points(), space.points());

    // A power-of-two line size (the shift) and one that is not (the
    // division) both reproduce CacheGeom::lineOf of addressOf.
    std::vector<std::int64_t> ivs;
    for (const CacheGeom geom : {GEOM_2K, CacheGeom{2304, 24, 2}}) {
        const LineMap line_of(geom.lineBytes);
        for (OpId op : nest.memoryOps()) {
            const AffineStream &stream = cache.stream(op);
            ASSERT_EQ(stream.points(), space.points());
            for (std::int64_t p = 0; p < space.points(); ++p) {
                space.at(p, ivs);
                const Addr addr = nest.addressOf(*nest.op(op).memRef, ivs);
                EXPECT_EQ(stream.address(p), addr)
                    << "op " << op << " point " << p;
                EXPECT_EQ(line_of(stream.address(p)), geom.lineOf(addr))
                    << "op " << op << " point " << p << " line "
                    << geom.lineBytes;
            }
        }
    }
    // The stream does not depend on the line size: one per op.
    EXPECT_EQ(cache.streamsBuilt(), nest.memoryOps().size());
}

TEST(StreamCache, LinesSpanningFourGiBStayExact)
{
    // First and last element of a 4 GiB array at 2^40, one-byte lines:
    // lines 2^32 apart, beyond any 32-bit offset.
    LoopNestBuilder b("span");
    b.loop("i", 0, 2);
    const auto A = b.arrayAt("A", {1 << 15, 1 << 15}, Addr{1} << 40);
    b.load(A, {affineVar(0, (1 << 15) - 1), affineVar(0, (1 << 15) - 1)});
    const auto nest = b.build();
    StreamCache cache(nest);
    const AffineStream &stream = cache.stream(nest.memoryOps()[0]);
    const LineMap bytes(1);
    EXPECT_EQ(bytes(stream.address(0)), std::int64_t{1} << 40);
    EXPECT_EQ(bytes(stream.address(1)), (std::int64_t{1} << 40) +
                                            (std::int64_t{1} << 32) - 4);
}

/**
 * The fallback paths, pinned: 24-byte lines and 48 sets (2304 B,
 * 2-way) take the division and the remainder where power-of-two
 * geometries take a shift and a mask. The expected values were
 * produced by the line-array implementation the affine walk replaced,
 * on a sampled loop and on one small enough for exhaustive evaluation,
 * so a drifting fallback fails here even if it agrees with itself.
 */
TEST(CmeMemo, NonPowerOfTwoGeometryPinned)
{
    const CacheGeom geom{2304, 24, 2};
    ASSERT_EQ(geom.numSets(), 48);

    LoopNestBuilder b("tiny");
    b.loop("j", 0, 4);
    b.loop("i", 0, 60);
    const auto A = b.arrayAt("A", {4, 64}, 0x1004, 8);
    const auto B = b.arrayAt("B", {256}, 0x1004 + 0x900, 4);
    const auto la = b.load(A, {affineVar(0), affineVar(1)}, "la");
    const auto lb = b.load(B, {affineVar(1, 4)}, "lb");
    const auto s = b.op(Opcode::FAdd, {use(la), use(lb)});
    b.store(A, {affineVar(0), affineVar(1)}, use(s));
    const auto tiny = b.build();

    struct Pinned
    {
        OpId op;
        std::vector<OpId> set;
        double ratio;
        double ciHalfWidth;
    };
    struct Case
    {
        LoopNest nest;
        std::size_t points;                 ///< CME equations evaluated
        std::vector<Pinned> memo;           ///< every (set, op) query
        std::vector<double> oraclePrefix;   ///< missesPerIteration
        std::vector<double> oracleRatio;    ///< missRatio over the set
    };
    const Case cases[] = {
        {interferenceLoop(), 1319,
         {{0, {0}, 0x0p+0, 0x0p+0},
          {0, {0, 1, 2, 5}, 0x1.4100cd712752dp-3, 0x1.4757c7ba0379p-5},
          {1, {0, 1, 2, 5}, 0x1.599999999999bp-3, 0x1.50b2433af9893p-5},
          {1, {1}, 0x1.c3870e1c3870ep-5, 0x1.466f599109c6cp-5},
          {2, {0, 1, 2, 5}, 0x1.2b601b37484afp-3, 0x1.4780181923dc6p-5},
          {2, {2}, 0x1.7b425ed097b3fp-5, 0x1.462997872c683p-5},
          {5, {0, 1, 2, 5}, 0x0p+0, 0x0p+0},
          {5, {5}, 0x0p+0, 0x0p+0}},
         {0x1.58p-6, 0x1.4ap-2, 0x1.02p-1, 0x1.02p-1},
         {0x1.58p-3, 0x1.58p-3, 0x1.58p-3, 0x0p+0}},
        {tiny, 1440,
         {{0, {0}, 0x1.6222222222222p-2, 0x0p+0},
          {0, {0, 1, 3}, 0x1.6222222222222p-2, 0x0p+0},
          {1, {0, 1, 3}, 0x1.5dddddddddddep-3, 0x0p+0},
          {1, {1}, 0x1.5dddddddddddep-3, 0x0p+0},
          {3, {0, 1, 3}, 0x0p+0, 0x0p+0},
          {3, {3}, 0x1.6222222222222p-2, 0x0p+0}},
         {0x1.6222222222222p-2, 0x1.0888888888889p-1,
          0x1.0888888888889p-1},
         {0x1.6222222222222p-2, 0x1.5dddddddddddep-3, 0x0p+0}},
    };

    for (const Case &c : cases) {
        SCOPED_TRACE(c.nest.name());
        const auto mem = c.nest.memoryOps();
        CmeAnalysis cme(c.nest);
        for (OpId op : mem)
            (void)cme.missRatio(mem, op, geom);
        for (OpId op : mem)
            (void)cme.missRatio({op}, op, geom);
        EXPECT_EQ(cme.pointsEvaluated(), c.points);
        EXPECT_EQ(cme.queriesSolved(), c.memo.size());
        // Reading the pins back answers from the memo: no new query,
        // no new equation.
        for (std::size_t i = 0; i < c.memo.size(); ++i) {
            const Pinned &pin = c.memo[i];
            const RatioEstimate got = cme.estimateRatio(pin.set, pin.op, geom);
            EXPECT_EQ(got.ratio, pin.ratio) << i;
            EXPECT_EQ(got.ciHalfWidth, pin.ciHalfWidth) << i;
        }
        EXPECT_EQ(cme.pointsEvaluated(), c.points);
        EXPECT_EQ(cme.queriesSolved(), c.memo.size());

        // Prefix growth, then the full-set ratios from the memo.
        CacheOracle oracle(c.nest);
        std::vector<OpId> prefix;
        for (std::size_t i = 0; i < mem.size(); ++i) {
            prefix.push_back(mem[i]);
            EXPECT_EQ(oracle.missesPerIteration(prefix, geom),
                      c.oraclePrefix[i])
                << i;
        }
        for (std::size_t i = 0; i < mem.size(); ++i)
            EXPECT_EQ(oracle.missRatio(mem, mem[i], geom), c.oracleRatio[i])
                << i;
        CacheOracle fresh(c.nest);
        for (std::size_t i = 0; i < mem.size(); ++i)
            EXPECT_EQ(fresh.missRatio(mem, mem[i], geom), c.oracleRatio[i])
                << i;
    }
}

TEST(StreamCache, SharedAcrossAnalysesBitIdentical)
{
    // A solver and an oracle drawing from one shared cache must answer
    // exactly like privately-cached instances — the stream is a pure
    // function of (nest, op, geometry), wherever it is materialised.
    const auto nest = interferenceLoop();
    const auto mem = nest.memoryOps();
    auto shared = std::make_shared<StreamCache>(nest);
    CmeAnalysis shared_cme(nest, {}, shared);
    CacheOracle shared_oracle(nest, shared);
    CmeAnalysis private_cme(nest);
    CacheOracle private_oracle(nest);

    for (OpId op : mem) {
        EXPECT_EQ(shared_cme.missRatio(mem, op, GEOM_2K),
                  private_cme.missRatio(mem, op, GEOM_2K));
        EXPECT_EQ(shared_oracle.missRatio(mem, op, GEOM_2K),
                  private_oracle.missRatio(mem, op, GEOM_2K));
    }
    EXPECT_EQ(shared_cme.streams().get(), shared.get());
    EXPECT_EQ(shared_oracle.streams().get(), shared.get());
    // One affine stream per memory op, whichever analysis asked first.
    EXPECT_EQ(shared->streamsBuilt(), mem.size());
}

TEST(LocalityRegistry, BuiltinsAndRuntimeAdd)
{
    auto &registry = LocalityRegistry::instance();
    EXPECT_EQ(registry.names(),
              (std::vector<std::string>{"cme", "oracle"}));
    EXPECT_TRUE(registry.has("cme"));
    EXPECT_FALSE(registry.has("no-such-provider"));
    // The retired sampling-with-fallback provider and its budgeted
    // spelling are plain unknown names.
    EXPECT_FALSE(registry.has("hybrid"));
    EXPECT_FALSE(registry.has("hybrid:2"));

    const auto nest = interferenceLoop();
    for (const char *name : {"cme", "oracle"}) {
        const auto provider = registry.create(name);
        EXPECT_EQ(provider->name(), name);
        const auto bound = registry.bind(name, nest);
        ASSERT_NE(bound, nullptr);
        EXPECT_EQ(&bound->loop(), &nest);
    }

    // Runtime extension mirrors the scheduler-backend registry: an
    // out-of-tree provider registers under a fresh name.
    registry.add("test-oracle-alias", [] {
        return LocalityRegistry::instance().create("oracle");
    });
    EXPECT_TRUE(registry.has("test-oracle-alias"));
    const auto alias = registry.bind("test-oracle-alias", nest);
    const auto mem = nest.memoryOps();
    CacheOracle direct(nest);
    EXPECT_EQ(alias->missRatio(mem, mem[0], GEOM_2K),
              direct.missRatio(mem, mem[0], GEOM_2K));
}

TEST(LoopLocality, AnalysesShareTheLoopsStreamCache)
{
    const auto nest = interferenceLoop();
    const auto mem = nest.memoryOps();
    LoopLocality holder(nest);
    EXPECT_EQ(&holder.streams().loop(), &nest);
    auto *cme = dynamic_cast<CmeAnalysis *>(&holder.get("cme"));
    auto *oracle = dynamic_cast<CacheOracle *>(&holder.get("oracle"));
    ASSERT_NE(cme, nullptr);
    ASSERT_NE(oracle, nullptr);
    EXPECT_EQ(cme->streams().get(), &holder.streams());
    EXPECT_EQ(oracle->streams().get(), &holder.streams());
    for (OpId op : mem) {
        (void)cme->missRatio(mem, op, GEOM_2K);
        (void)oracle->missRatio(mem, op, GEOM_2K);
    }
    // One affine stream per memory op, whichever analysis asked first.
    EXPECT_EQ(holder.streams().streamsBuilt(), mem.size());
}

TEST(LoopLocality, EightThreadsBindOneAnalysisPerName)
{
    const auto nest = interferenceLoop();
    const auto mem = nest.memoryOps();
    LoopLocality holder(nest);
    constexpr int THREADS = 8;
    const char *const names[] = {"cme", "oracle"};
    std::vector<std::array<LocalityAnalysis *, 2>> seen(THREADS);
    std::vector<std::array<double, 2>> ratios(THREADS);
    std::vector<std::thread> threads;
    for (int t = 0; t < THREADS; ++t)
        threads.emplace_back([&, t] {
            // Half the threads ask for the names in the other order.
            for (int k = 0; k < 2; ++k) {
                const int n = (k + t) % 2;
                seen[t][n] = &holder.get(names[n]);
                ratios[t][n] = seen[t][n]->missRatio(mem, mem[0], GEOM_2K);
            }
        });
    for (auto &th : threads)
        th.join();
    for (int t = 1; t < THREADS; ++t)
        for (int n = 0; n < 2; ++n) {
            EXPECT_EQ(seen[t][n], seen[0][n]) << names[n];
            EXPECT_EQ(ratios[t][n], ratios[0][n]) << names[n];
        }
    EXPECT_NE(seen[0][0], seen[0][1]);
    std::vector<std::string> bound;
    holder.forEach([&](const std::string &name, const LocalityAnalysis &) {
        bound.push_back(name);
    });
    EXPECT_EQ(bound, (std::vector<std::string>{"cme", "oracle"}));
}

TEST(LoopLocality, UnknownNameBindsNothing)
{
    const auto nest = interferenceLoop();
    LoopLocality holder(nest);
    {
        FatalScope guard;
        EXPECT_THROW((void)holder.get("no-such-provider"), FatalError);
    }
    int bound = 0;
    holder.forEach(
        [&](const std::string &, const LocalityAnalysis &) { ++bound; });
    EXPECT_EQ(bound, 0);
}

TEST(CmeEstimate, ExposesConvergence)
{
    const auto nest = interferenceLoop();
    const auto mem = nest.memoryOps();
    CmeAnalysis cme(nest);
    for (OpId op : mem) {
        const RatioEstimate est = cme.estimateRatio(mem, op, GEOM_2K);
        EXPECT_EQ(est.ratio, cme.missRatio(mem, op, GEOM_2K));
        EXPECT_GE(est.ciHalfWidth, 0.0);
        // A replayed estimate comes from the memo, half-width included.
        const RatioEstimate again = cme.estimateRatio(mem, op, GEOM_2K);
        EXPECT_EQ(est.ratio, again.ratio);
        EXPECT_EQ(est.ciHalfWidth, again.ciHalfWidth);
    }
}

TEST(CmeMemo, CanonicalViewFastPaths)
{
    std::vector<OpId> scratch;
    const std::vector<OpId> sorted{1, 3, 5};

    // Already canonical, no extra: the input itself is returned.
    EXPECT_EQ(&detail::canonicalInto(scratch, sorted), &sorted);
    // Already canonical and contains the extra op: still zero-copy.
    EXPECT_EQ(&detail::canonicalInto(scratch, sorted, 3), &sorted);
    // Missing extra is inserted in order.
    {
        const auto &c = detail::canonicalInto(scratch, sorted, 4);
        EXPECT_EQ(&c, &scratch);
        EXPECT_EQ(c, (std::vector<OpId>{1, 3, 4, 5}));
    }
    // Unsorted input with duplicates is sorted and deduplicated.
    {
        const std::vector<OpId> messy{5, 1, 3, 1};
        const auto &c = detail::canonicalInto(scratch, messy, 3);
        EXPECT_EQ(&c, &scratch);
        EXPECT_EQ(c, (std::vector<OpId>{1, 3, 5}));
    }
}

} // namespace
} // namespace mvp::cme
