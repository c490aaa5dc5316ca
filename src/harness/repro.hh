/**
 * @file
 * The paper's reproductions as functions that return results: Figure 3
 * (the motivating example), Table 1 (the machines), Figures 5 and 6
 * (unbounded and limited buses), the RMCA component ablation and the
 * unroll study of §4.3. Each reproduce*() returns a struct and a
 * format*() printer renders it as the text `repro <subcommand>`
 * prints; tests/repro_test.cc asserts the paper's claims on the same
 * structs. The sweeps shard over the caller's ParallelDriver, and
 * their results are byte-identical at any job count.
 */

#ifndef MVP_HARNESS_REPRO_HH
#define MVP_HARNESS_REPRO_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hh"

namespace mvp::harness
{

/** One schedule of Figure 3 and its simulation. */
struct Fig3Run
{
    std::string label;
    std::string schedule = {};   ///< the modulo reservation table
    sim::SimResult sim = {};
};

/** Figure 3: the motivating loop under Baseline (a) and RMCA (b). */
struct Fig3Result
{
    std::string machine;   ///< machine summary
    std::string loop;      ///< loop text
    std::array<Fig3Run, 2> runs;

    /** Total cycles of (a) over those of (b). */
    double speedup() const
    {
        return static_cast<double>(runs[0].sim.totalCycles()) /
               static_cast<double>(runs[1].sim.totalCycles());
    }
};

Fig3Result reproduceFig3();
std::string formatFig3(const Fig3Result &fig);

/** Table 1: the unified, 2-cluster and 4-cluster presets. */
std::array<MachineConfig, 3> reproduceTable1();
std::string formatTable1(const std::array<MachineConfig, 3> &machines);

/** One bar of Figure 5 or 6: cycles summed over the whole suite. */
struct BusRow
{
    int clusters = 0;         ///< 0 = unified
    Cycle busA = 0;           ///< LRB (Figure 5) or NMB (Figure 6)
    Cycle busB = 0;           ///< LMB
    std::string sched;        ///< "baseline" or "rmca"
    double thr = 0;
    bool ruleAfter = false;   ///< last row of its bus configuration
    Cycle compute = 0;
    Cycle stall = 0;

    Cycle total() const { return compute + stall; }
    double stallShare() const
    {
        return static_cast<double>(stall) / static_cast<double>(total());
    }
};

/** Figure 5 or 6: the whole grid, in print order. */
struct BusFigure
{
    std::string title;
    std::array<std::string, 2> busColumns;   ///< names of busA, busB
    std::vector<BusRow> rows = {};

    /** The row at one grid point; fatal when the grid has none. */
    const BusRow &at(int clusters, Cycle bus_a, Cycle bus_b,
                     const std::string &sched, double thr) const;

    /**
     * Figure 6's headline: Baseline over RMCA total cycles at
     * threshold 0.00, averaged over the bus configurations of the
     * @p clusters machine.
     */
    double baselineOverRmca(int clusters) const;
};

/**
 * Figure 5: unbounded buses, LRB and LMB in {1, 2, 4}. After the
 * unified machine's four threshold bars, Baseline and RMCA at
 * thresholds {1.00, 0.75, 0.25, 0.00} on the 2- and 4-cluster machines.
 */
BusFigure reproduceFig5(Workbench &bench, const std::string &locality,
                        ParallelDriver &driver);

/** Figure 6: 2 register buses @1cy, NMB in {1, 2}, LMB in {1, 4}. */
BusFigure reproduceFig6(Workbench &bench, const std::string &locality,
                        ParallelDriver &driver);

/** The table, normalised to unified@1.00, and the claim checks. */
std::string formatFig5(const BusFigure &fig);
/** The table, normalised to unified@1.00, and the RMCA advantage. */
std::string formatFig6(const BusFigure &fig);

/** One variant of the component ablation, summed over the suite. */
struct AblationRow
{
    std::string label;
    Cycle compute = 0;
    Cycle stall = 0;
    double meanIi = 0;
    std::int64_t comms = 0;
    std::int64_t promoted = 0;   ///< loads scheduled with miss latency
    std::int64_t fills = 0;      ///< memory line fills

    Cycle total() const { return compute + stall; }
};

/**
 * RMCA's two mechanisms switched on one at a time on the 4-cluster
 * machine with one 4-cycle memory bus: neither, binding prefetching
 * only, CME cluster selection only, both.
 */
struct AblationResult
{
    std::string machine;   ///< machine summary
    std::vector<AblationRow> variants = {};

    /** Per suite, (loops, both-neighbour positions) under RMCA@1.00. */
    std::map<std::string, std::pair<int, int>> ordering = {};
};

AblationResult reproduceAblation(Workbench &bench,
                                 const std::string &locality,
                                 ParallelDriver &driver);
std::string formatAblation(const AblationResult &result);

/** One (suite, unroll factor, threshold) cell of the unroll study. */
struct UnrollCell
{
    std::string suite;
    int factor = 1;
    double thr = 0;
    Cycle compute = 0;
    Cycle stall = 0;
    double iiPerElem = 0;   ///< mean II over the unroll factor
    int promoted = 0;
    int counted = 0;        ///< loops whose trip count divides factor
    std::string failures = {};   ///< one line per unscheduled loop
};

/**
 * The §4.3 suggestion: su2cor and turb3d unrolled by 1/2/4/8 on the
 * 2-cluster machine with limited buses, RMCA at thresholds 0.75 and
 * 0.00.
 */
struct UnrollResult
{
    std::string machine;   ///< machine summary
    std::string locality;
    std::vector<UnrollCell> cells = {};
};

UnrollResult reproduceUnroll(const std::string &locality,
                             ParallelDriver &driver);
std::string formatUnroll(const UnrollResult &result);

} // namespace mvp::harness

#endif // MVP_HARNESS_REPRO_HH
