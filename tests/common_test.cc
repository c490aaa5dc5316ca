/**
 * @file
 * Unit tests for the common infrastructure: statistics accumulators,
 * deterministic RNG, string helpers, the table renderer and the
 * sharded keep-the-winner memo.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "common/memo.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/strutil.hh"
#include "common/table.hh"

namespace mvp
{
namespace
{

// ---------------------------------------------------------------- stats

TEST(RunningStat, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.sum(), 0.0);
    EXPECT_DOUBLE_EQ(s.ciHalfWidth(), 0.0);
}

TEST(RunningStat, SingleObservation)
{
    RunningStat s;
    s.add(42.0);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 42.0);
    EXPECT_DOUBLE_EQ(s.min(), 42.0);
    EXPECT_DOUBLE_EQ(s.max(), 42.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStat, MeanAndVarianceMatchClosedForm)
{
    RunningStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    // Sample variance of the classic dataset: 32/7.
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, MergeEqualsSequential)
{
    RunningStat a;
    RunningStat b;
    RunningStat all;
    for (int i = 0; i < 100; ++i) {
        const double x = 0.37 * i - 3.0;
        (i % 2 ? a : b).add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStat, MergeWithEmptySides)
{
    RunningStat a;
    RunningStat empty;
    a.add(1.0);
    a.add(3.0);
    a.merge(empty);
    EXPECT_EQ(a.count(), 2u);
    RunningStat c;
    c.merge(a);
    EXPECT_EQ(c.count(), 2u);
    EXPECT_DOUBLE_EQ(c.mean(), 2.0);
}

TEST(RunningStat, CiShrinksWithSamples)
{
    Rng rng(7);
    RunningStat few;
    RunningStat many;
    for (int i = 0; i < 16; ++i)
        few.add(rng.nextDouble());
    for (int i = 0; i < 4096; ++i)
        many.add(rng.nextDouble());
    EXPECT_GT(few.ciHalfWidth(), many.ciHalfWidth());
    // A uniform(0,1) mean CI at n=4096 is ~ 1.96*0.2887/64 ~ 0.009.
    EXPECT_LT(many.ciHalfWidth(), 0.02);
}

TEST(StatGroup, CountersAutoCreateAndMerge)
{
    StatGroup g;
    EXPECT_EQ(g.value("never_touched"), 0);
    g.counter("hits") += 5;
    g.counter("misses") += 2;
    StatGroup h;
    h.counter("hits") += 1;
    g.merge(h);
    EXPECT_EQ(g.value("hits"), 6);
    EXPECT_EQ(g.value("misses"), 2);
    const std::string dump = g.dump("pre.");
    EXPECT_NE(dump.find("pre.hits = 6"), std::string::npos);
}

TEST(StatGroup, ResetKeepsNames)
{
    StatGroup g;
    g.counter("x") = 9;
    g.reset();
    EXPECT_EQ(g.value("x"), 0);
    EXPECT_EQ(g.all().size(), 1u);
}

TEST(Histogram, BucketsAndOutOfRange)
{
    Histogram h(0.0, 10.0, 5);
    for (double x : {-1.0, 0.0, 1.9, 2.0, 9.9, 10.0, 99.0})
        h.add(x);
    EXPECT_EQ(h.count(), 7u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.bucketCount(0), 2u);   // 0.0 and 1.9
    EXPECT_EQ(h.bucketCount(1), 1u);   // 2.0
    EXPECT_EQ(h.bucketCount(4), 1u);   // 9.9
    EXPECT_NEAR(h.mean(), (-1.0 + 0.0 + 1.9 + 2.0 + 9.9 + 10.0 + 99.0) / 7,
                1e-12);
}

// ----------------------------------------------------------------- rng

TEST(Rng, DeterministicForSeed)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next64(), b.next64());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next64() == b.next64() ? 1 : 0;
    EXPECT_LT(same, 4);
}

TEST(Rng, BoundedStaysInBounds)
{
    Rng rng(99);
    for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
        for (int i = 0; i < 500; ++i)
            EXPECT_LT(rng.nextBounded(bound), bound);
    }
}

TEST(Rng, BoundedCoversRange)
{
    Rng rng(5);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 200; ++i)
        seen.insert(rng.nextBounded(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(11);
    bool lo = false;
    bool hi = false;
    for (int i = 0; i < 500; ++i) {
        const auto v = rng.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        lo |= v == -3;
        hi |= v == 3;
    }
    EXPECT_TRUE(lo);
    EXPECT_TRUE(hi);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(17);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
        sum += d;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(23);
    int heads = 0;
    for (int i = 0; i < 10000; ++i)
        heads += rng.nextBool(0.25) ? 1 : 0;
    EXPECT_NEAR(heads / 10000.0, 0.25, 0.02);
}

// -------------------------------------------------------------- strutil

TEST(Strutil, Strprintf)
{
    EXPECT_EQ(strprintf("x=%d y=%s", 3, "abc"), "x=3 y=abc");
    EXPECT_EQ(strprintf("%.2f", 1.005), "1.00");
    EXPECT_EQ(strprintf("empty"), "empty");
}

TEST(Strutil, JoinAndPad)
{
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(join({}, ","), "");
    EXPECT_EQ(padLeft("ab", 4), "  ab");
    EXPECT_EQ(padRight("ab", 4), "ab  ");
    EXPECT_EQ(padLeft("abcdef", 4), "abcd");
}

TEST(Strutil, Percent)
{
    EXPECT_EQ(fmtPercent(0.25), "25.0%");
    EXPECT_EQ(fmtPercent(1.0, 0), "100%");
    EXPECT_EQ(fmtDouble(3.14159, 3), "3.142");
}

// ---------------------------------------------------------------- table

TEST(TextTable, RendersAlignedColumns)
{
    TextTable t({"name", "value"});
    t.setTitle("demo");
    t.addRow({"x", "1"});
    t.addRule();
    t.addRow({"longer-name", "22"});
    const std::string out = t.render();
    EXPECT_NE(out.find("demo"), std::string::npos);
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer-name"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(TextTableDeath, WrongArityPanics)
{
    TextTable t({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "cells");
}

// ----------------------------------------------------------------- memo

TEST(ShardedMemo, KeepsTheWinnerUnderRaces)
{
    // Eight threads insert the same keys, each with its own value; the
    // first insert of a key must stick, and every caller — winner and
    // losers — must get back that one stored value at one address.
    constexpr int THREADS = 8;
    constexpr int KEYS = 2000;
    ShardedMemo<int, int> memo;
    std::vector<std::vector<const int *>> got(
        THREADS, std::vector<const int *>(KEYS, nullptr));
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < THREADS; ++t) {
        threads.emplace_back([&, t] {
            ready.fetch_add(1);
            while (ready.load() < THREADS) {
            }
            for (int k = 0; k < KEYS; ++k) {
                const int *seen = memo.find(k);
                const int &stored = memo.tryInsert(k, t);
                if (seen != nullptr) {
                    EXPECT_EQ(seen, &stored);
                }
                got[static_cast<std::size_t>(t)]
                   [static_cast<std::size_t>(k)] = &stored;
            }
        });
    }
    for (std::thread &th : threads)
        th.join();

    EXPECT_EQ(memo.size(), static_cast<std::size_t>(KEYS));
    for (int k = 0; k < KEYS; ++k) {
        const int *stored = memo.find(k);
        ASSERT_NE(stored, nullptr);
        EXPECT_GE(*stored, 0);
        EXPECT_LT(*stored, THREADS);
        for (int t = 0; t < THREADS; ++t)
            EXPECT_EQ(got[static_cast<std::size_t>(t)]
                         [static_cast<std::size_t>(k)],
                      stored);
    }
    // forEach releases each shard's lock before calling back, so the
    // callback may query the memo.
    std::size_t visited = 0;
    memo.forEach([&](int key, const int &value) {
        EXPECT_EQ(&value, memo.find(key));
        ++visited;
    });
    EXPECT_EQ(visited, static_cast<std::size_t>(KEYS));
}

} // namespace
} // namespace mvp
