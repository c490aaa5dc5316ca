/**
 * @file
 * Memo-consistency tests for the hashed-key locality caches.
 *
 * The CME solver and the exact oracle replaced their string memo keys
 * with FNV-hashed struct keys (cme/setkey.hh) plus an open-addressing
 * table in the solver. These tests pin the contract the scheduler relies
 * on: a memoised answer is bit-identical to a fresh instance's answer,
 * regardless of query order, set permutation, duplicate ops in the set,
 * or how many entries the table has absorbed (growth/rehash included).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cme/oracle.hh"
#include "cme/provider.hh"
#include "cme/setkey.hh"
#include "cme/solver.hh"
#include "cme/stream.hh"
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

TEST(CmeMemo, OracleMemoMatchesFresh)
{
    const auto nest = interferenceLoop();
    const auto mem = nest.memoryOps();

    CacheOracle warm(nest);
    (void)warm.missesPerIteration(mem, GEOM_2K);
    for (OpId op : mem) {
        CacheOracle fresh(nest);
        EXPECT_EQ(warm.missRatio(mem, op, GEOM_2K),
                  fresh.missRatio(mem, op, GEOM_2K));
    }
    std::vector<OpId> shuffled = mem;
    std::reverse(shuffled.begin(), shuffled.end());
    EXPECT_EQ(warm.missesPerIteration(shuffled, GEOM_2K),
              warm.missesPerIteration(mem, GEOM_2K));
}

TEST(CmeMemo, RatioMemoSurvivesGrowth)
{
    // Push the open-addressing table through several growth cycles and
    // verify every stored answer is still retrievable and correct.
    detail::RatioMemo memo;
    std::vector<OpId> set{1, 2, 3};
    const CacheGeom geom = GEOM_2K;
    constexpr int N = 1000;
    for (int i = 0; i < N; ++i) {
        set[0] = static_cast<OpId>(i);
        const detail::QueryKeyRef ref{detail::queryHash(geom, set[0], set),
                                      &geom, set[0], &set};
        ASSERT_EQ(memo.find(ref), nullptr);
        memo.insert(ref, {static_cast<double>(i) * 0.5,
                          static_cast<double>(i) * 0.01});
    }
    EXPECT_EQ(memo.size(), static_cast<std::size_t>(N));
    for (int i = 0; i < N; ++i) {
        set[0] = static_cast<OpId>(i);
        const detail::QueryKeyRef ref{detail::queryHash(geom, set[0], set),
                                      &geom, set[0], &set};
        const detail::RatioValue *hit = memo.find(ref);
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

TEST(StreamCache, LinesMatchDirectAddressing)
{
    const auto nest = interferenceLoop();
    const ir::IterationSpace space(nest);
    StreamCache cache(nest);
    ASSERT_EQ(cache.points(), space.points());

    std::vector<std::int64_t> ivs;
    for (OpId op : nest.memoryOps()) {
        const LineStream &stream = cache.lines(op, GEOM_2K.lineBytes);
        ASSERT_EQ(stream.size(), static_cast<std::size_t>(space.points()));
        for (std::int64_t p = 0; p < space.points(); ++p) {
            space.at(p, ivs);
            const Addr addr =
                nest.addressOf(*nest.op(op).memRef, ivs);
            EXPECT_EQ(stream.line(p), GEOM_2K.lineOf(addr))
                << "op " << op << " point " << p;
        }
    }
    // Two geometries with the same line size share one stream per op.
    EXPECT_EQ(&cache.lines(nest.memoryOps()[0], GEOM_2K.lineBytes),
              &cache.lines(nest.memoryOps()[0], GEOM_4K.lineBytes));
}

TEST(StreamCache, LinesSpanningFourGiBStayExact)
{
    // First and last element of a 4 GiB array, one-byte lines: the
    // stream's offsets use the full 32-bit range.
    LoopNestBuilder b("span");
    b.loop("i", 0, 2);
    const auto A = b.arrayAt("A", {1 << 15, 1 << 15}, Addr{1} << 40);
    b.load(A, {affineVar(0, (1 << 15) - 1), affineVar(0, (1 << 15) - 1)});
    const auto nest = b.build();
    StreamCache cache(nest);
    const LineStream &stream = cache.lines(nest.memoryOps()[0], 1);
    EXPECT_EQ(stream.line(0), std::int64_t{1} << 40);
    EXPECT_EQ(stream.line(1), (std::int64_t{1} << 40) +
                                  (std::int64_t{1} << 32) - 4);
}

TEST(StreamCache, BucketsPartitionTheStreamChronologically)
{
    const auto nest = interferenceLoop();
    StreamCache cache(nest);
    const std::int64_t num_sets = GEOM_2K.numSets();

    for (OpId op : nest.memoryOps()) {
        const LineStream &stream = cache.lines(op, GEOM_2K.lineBytes);
        const SetBuckets &buckets = cache.buckets(op, GEOM_2K);
        ASSERT_EQ(buckets.offsets.size(),
                  static_cast<std::size_t>(num_sets) + 1);
        EXPECT_EQ(buckets.entries.size(), stream.size());
        std::int64_t seen = 0;
        for (std::int64_t s = 0; s < num_sets; ++s) {
            std::int64_t prev_point = -1;
            for (std::int64_t e = buckets.offsets[
                     static_cast<std::size_t>(s)];
                 e < buckets.offsets[static_cast<std::size_t>(s) + 1];
                 ++e) {
                const auto &entry =
                    buckets.entries[static_cast<std::size_t>(e)];
                EXPECT_EQ(entry.line % num_sets, s);
                EXPECT_EQ(stream.line(entry.point), entry.line);
                EXPECT_GT(entry.point, prev_point);   // chronological
                prev_point = entry.point;
                ++seen;
            }
        }
        EXPECT_EQ(seen, static_cast<std::int64_t>(stream.size()));
        EXPECT_EQ(buckets.touches(0),
                  buckets.offsets[1] > buckets.offsets[0]);
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
    EXPECT_GT(shared->streamsBuilt(), 0u);
}

/**
 * The incremental-extension contract: growing a set one op at a time —
 * in ANY order — answers bit-identically to a from-scratch simulation
 * of each grown set. Exercised over randomised growth orders and three
 * geometries, chosen so every extension strategy runs: under the small
 * direct-mapped cache every op's footprint covers all 64 sets (the
 * dense touched-filtered walk), under the large one it covers a
 * fraction of 512 (the sparse bucket merge), and the 2-way geometry
 * exercises the set-associative LRU probe/promotion and multi-way
 * checkpoint copies.
 */
TEST(IncrementalOracle, RandomGrowthOrdersMatchFromScratch)
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
                // From-scratch reference: a fresh oracle has no subset
                // checkpoint to extend, so it must take the full path.
                CacheOracle fresh(nest, shared);
                EXPECT_EQ(warm.missesPerIteration(set, geom),
                          fresh.missesPerIteration(set, geom));
                for (OpId q : set)
                    EXPECT_EQ(warm.missRatio(set, q, geom),
                              fresh.missRatio(set, q, geom));
                EXPECT_EQ(fresh.incrementalExtensions(), 0u);
            }
            // Every grown set beyond the first must have taken the
            // incremental path.
            EXPECT_EQ(warm.incrementalExtensions(), set.size() - 1);
            EXPECT_EQ(warm.fullSimulations(), 1u);
        }
    }
}

TEST(IncrementalOracle, CheckpointByteCapBoundsMemoryNotAnswers)
{
    // A zero cap drops every checkpoint: extension never runs (nothing
    // to extend from), yet every answer must be bit-identical — the
    // cap trades speed for memory, never values.
    const auto nest = interferenceLoop();
    const auto mem = nest.memoryOps();
    auto shared = std::make_shared<StreamCache>(nest);
    CacheOracle capped(nest, shared, /*checkpoint_byte_cap=*/0);
    CacheOracle uncapped(nest, shared);

    std::vector<OpId> set;
    for (OpId op : mem) {
        set.push_back(op);
        EXPECT_EQ(capped.missesPerIteration(set, GEOM_2K),
                  uncapped.missesPerIteration(set, GEOM_2K));
        for (OpId q : set)
            EXPECT_EQ(capped.missRatio(set, q, GEOM_2K),
                      uncapped.missRatio(set, q, GEOM_2K));
    }
    EXPECT_EQ(capped.incrementalExtensions(), 0u);
    EXPECT_EQ(capped.fullSimulations(), set.size());
    EXPECT_EQ(uncapped.incrementalExtensions(), set.size() - 1);
}

TEST(IncrementalOracle, ExtensionAgreesWithLegacyMissCounts)
{
    // The per-cache-set decomposition must reproduce the exact counts
    // the chronological simulation reports (cache_test pins absolute
    // values; this pins the two internal paths against each other op
    // by op, including stores).
    const auto nest = interferenceLoop();
    const auto mem = nest.memoryOps();
    CacheOracle warm(nest);
    // Memoise every prefix so the final query extends a checkpoint.
    std::vector<OpId> prefix;
    for (OpId op : mem) {
        prefix.push_back(op);
        (void)warm.missesPerIteration(prefix, GEOM_2K);
    }
    CacheOracle fresh(nest);
    const auto a = warm.missCounts(mem, GEOM_2K);
    const auto b = fresh.missCounts(mem, GEOM_2K);
    ASSERT_EQ(a.size(), b.size());
    for (const auto &[op, count] : b)
        EXPECT_EQ(a.at(op), count) << "op " << op;
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
