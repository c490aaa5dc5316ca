/**
 * @file
 * The paper's claims, asserted on the result structs of the
 * reproductions `repro` prints (harness/repro.hh). Two kinds:
 *
 *  - claims the reproduction meets: RMCA never loses to the Baseline
 *    on a Figure 5 or 6 point, a lower threshold trades stall for
 *    compute (Figure 5), the motivating example gains at least the
 *    paper's 1.5x (Figure 3), the Table-1 machines share their
 *    resources, and each RMCA mechanism pays on its own;
 *  - claims it misses, pinned at their measured values: Figure 6's
 *    advantage (the paper: about 5% on 2 clusters and 20% on 4),
 *    Figure 5's stall share at threshold 0.00 (the paper: about 0) and
 *    the unroll suggestion of §4.3 on su2cor. A change that moves one
 *    of them, either way, fails here and must re-pin it with its
 *    reason.
 */

#include <gtest/gtest.h>

#include "harness/repro.hh"

namespace mvp::harness
{
namespace
{

/** Figures 5 and 6, swept once for the whole file. */
struct Figures
{
    Figures()
    {
        Workbench bench;
        ParallelDriver driver(0);
        fig5 = reproduceFig5(bench, "cme", driver);
        fig6 = reproduceFig6(bench, "cme", driver);
    }

    BusFigure fig5;
    BusFigure fig6;
};

const Figures &
figures()
{
    static const Figures figs;
    return figs;
}

/** Checks RMCA <= Baseline at every clustered point; returns the count. */
int
expectRmcaNeverLoses(const BusFigure &fig)
{
    int pairs = 0;
    for (const BusRow &base : fig.rows) {
        if (base.sched != "baseline")
            continue;
        const BusRow &rmca =
            fig.at(base.clusters, base.busA, base.busB, "rmca", base.thr);
        EXPECT_LE(rmca.total(), base.total())
            << fig.title << "\n  " << base.clusters << "-cluster "
            << fig.busColumns[0] << "=" << base.busA << " "
            << fig.busColumns[1] << "=" << base.busB << " thr "
            << base.thr;
        ++pairs;
    }
    return pairs;
}

TEST(ReproClaims, RmcaNeverLosesToBaselineInFigure5)
{
    // 2 machines x 3 LRB x 3 LMB x 4 thresholds.
    EXPECT_EQ(expectRmcaNeverLoses(figures().fig5), 72);
}

TEST(ReproClaims, RmcaNeverLosesToBaselineInFigure6)
{
    // 2 machines x 2 NMB x 2 LMB x 4 thresholds.
    EXPECT_EQ(expectRmcaNeverLoses(figures().fig6), 32);
}

TEST(ReproClaims, LowerThresholdTradesStallForComputeInFigure5)
{
    // At LRB=LMB=1 the RMCA stall share falls at every step from
    // threshold 1.00 to 0.00 (57% -> 6% on 2 clusters, 53% -> 8% on 4)
    // while the compute cycles rise.
    const BusFigure &fig = figures().fig5;
    for (int clusters : {2, 4}) {
        const BusRow *prev = nullptr;
        for (double thr : {1.00, 0.75, 0.25, 0.00}) {
            const BusRow &row = fig.at(clusters, 1, 1, "rmca", thr);
            if (prev) {
                EXPECT_LT(row.stallShare(), prev->stallShare())
                    << clusters << "-cluster thr " << thr;
                EXPECT_GT(row.compute, prev->compute)
                    << clusters << "-cluster thr " << thr;
            }
            prev = &row;
        }
    }
}

TEST(ReproClaims, MotivatingExampleGainsAtLeastThePapersSpeedup)
{
    // The paper derives 1.5x; the non-blocking caches measure 2.31x.
    const Fig3Result fig = reproduceFig3();
    EXPECT_GE(fig.speedup(), 1.5);
    EXPECT_LT(fig.runs[1].sim.stallCycles, fig.runs[0].sim.stallCycles);
}

TEST(ReproClaims, Table1MachinesShareTheirTotalResources)
{
    // The three configurations split the same issue width and the same
    // L1 capacity over 1, 2 and 4 clusters.
    const auto machines = reproduceTable1();
    for (const MachineConfig &m : machines) {
        EXPECT_EQ(m.issueWidth(), machines[0].issueWidth()) << m.name;
        EXPECT_EQ(m.totalCacheBytes, machines[0].totalCacheBytes) << m.name;
    }
    EXPECT_EQ(machines[2].nClusters, 4);
}

TEST(ReproClaims, EachRmcaMechanismPaysAndTheyCompose)
{
    // Measured totals relative to neither: prefetch only 0.578, CME
    // clusters only 0.790, both 0.541; the CME clusters cut line fills.
    Workbench bench;
    ParallelDriver driver(0);
    const auto rows = reproduceAblation(bench, "cme", driver).variants;
    ASSERT_EQ(rows.size(), 4u);
    const AblationRow &none = rows[0];
    const AblationRow &prefetch = rows[1];
    const AblationRow &clusters = rows[2];
    const AblationRow &full = rows[3];
    EXPECT_LT(prefetch.total(), none.total());
    EXPECT_LT(clusters.total(), none.total());
    EXPECT_LT(full.total(), prefetch.total());
    EXPECT_LT(full.total(), clusters.total());
    EXPECT_LT(clusters.fills, none.fills);
    EXPECT_EQ(none.promoted, 0);
    EXPECT_GT(prefetch.promoted, 0);
}

// --- Claims the reproduction misses, pinned to 0.01 percentage points
// of the measured value. ---

TEST(ReproMisses, Figure6AdvantageIsPinned)
{
    // Printed as 9.5% and 3.5%; the paper: about 5% on 2 clusters and
    // about 20% on 4.
    const BusFigure &fig = figures().fig6;
    EXPECT_NEAR(100.0 * (fig.baselineOverRmca(2) - 1.0), 9.47, 0.01);
    EXPECT_NEAR(100.0 * (fig.baselineOverRmca(4) - 1.0), 3.47, 0.01);
}

TEST(ReproMisses, Figure5StallShareAtThresholdZeroIsPinned)
{
    // At LRB=LMB=1, printed as 5.7% and 7.6%; the paper: about 0 on
    // both clustered machines.
    const BusFigure &fig = figures().fig5;
    EXPECT_NEAR(100.0 * fig.at(2, 1, 1, "rmca", 0.0).stallShare(), 5.68,
                0.01);
    EXPECT_NEAR(100.0 * fig.at(4, 1, 1, "rmca", 0.0).stallShare(), 7.62,
                0.01);
}

TEST(ReproMisses, UnrollingPromotesLoadsOnTurb3dButNotSu2cor)
{
    // §4.3: unrolled by the line length, one instance of a spatial load
    // always misses, so threshold 0.75 promotes it and the stall drops.
    // Measured at 0.75: turb3d x8 promotes 15 loads (x1: 1) and stalls
    // 18348 cycles (x1: 28864); su2cor promotes none at any factor.
    ParallelDriver driver(0);
    const UnrollResult result = reproduceUnroll("cme", driver);
    const auto cell = [&](const char *suite, int factor) {
        for (const UnrollCell &c : result.cells)
            if (c.suite == suite && c.factor == factor && c.thr == 0.75)
                return c;
        ADD_FAILURE() << "no cell " << suite << " x" << factor;
        return UnrollCell{};
    };
    EXPECT_GT(cell("turb3d", 8).promoted, cell("turb3d", 1).promoted);
    EXPECT_LT(cell("turb3d", 8).stall, cell("turb3d", 1).stall);
    for (int factor : {1, 2, 4, 8})
        EXPECT_EQ(cell("su2cor", factor).promoted, 0) << "x" << factor;
}

} // namespace
} // namespace mvp::harness
