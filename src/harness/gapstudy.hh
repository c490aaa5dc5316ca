/**
 * @file
 * Optimality-gap study: schedule every workbench loop with the rmca
 * heuristic and the exact branch-and-bound backend and tabulate the II
 * gap — the repo's analogue of the heuristic-vs-exact comparisons in
 * the SMT/SAT exact-modulo-scheduling literature (Roorda; Tirelli et
 * al.). Loops the exact search cannot settle within its budget — the
 * wall clock, or the deterministic work cap — are reported as "gap
 * unknown" rather than guessed, and the report states both the
 * unknown count and the budget that was in force.
 */

#ifndef MVP_HARNESS_GAPSTUDY_HH
#define MVP_HARNESS_GAPSTUDY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.hh"

namespace mvp::harness
{

/** How hard the certifying engine tries, and which engine it is. */
struct GapOptions
{
    /** rmca miss-latency threshold. */
    double threshold = 0.25;

    /**
     * Work cap per II attempt of whichever engine certifies
     * (SchedulerOptions::searchBudget: B&B nodes or CDCL conflicts;
     * 0 = uncapped, leaving the wall clock in charge). Under a pure
     * work cap the set of "gap unknown" rows is a pure function of
     * (workbench, machine, options).
     */
    std::int64_t searchBudget = 0;

    /**
     * Wall-clock budget per loop, in milliseconds (negative = no
     * deadline, 0 = expired on entry). The budget the table reports
     * as in force.
     */
    std::int64_t timeBudgetMs = sched::DEFAULT_TIME_BUDGET_MS;

    /** Locality provider for the heuristic. */
    std::string locality = "cme";

    /**
     * Certifying engine: "exact"/"bnb" (branch and bound) or "sat"
     * (CDCL).
     */
    std::string exactBackend = "exact";
};

/** Per-loop outcome of the gap study. */
struct GapRow
{
    std::string benchmark;
    std::string loop;
    Cycle mii = 0;
    Cycle heuristicII = 0;
    Cycle exactII = 0;        ///< 0 when the exact search did not settle
    Cycle gap = 0;            ///< heuristicII - exactII (when known)
    bool gapKnown = false;    ///< exact solved within budget
    bool provenOptimal = false;   ///< exact II carries a certificate
    std::int64_t searchNodes = 0;
};

/** Whole-suite outcome plus per-benchmark aggregates. */
struct GapStudy
{
    std::vector<GapRow> rows;

    /** The budgets/engine the study ran under (for the report). */
    GapOptions options;

    /** Rows with a known gap. */
    int known() const;

    /** Rows without one — the "gap unknown" count of the report. */
    int unknown() const;

    /** Rows where the heuristic was optimal (gap == 0, known). */
    int tight() const;

    /** Sum of known gaps (cycles of II lost by the heuristic). */
    Cycle totalGap() const;
};

/**
 * Run the study over every loop of @p bench on @p machine under
 * @p options, sharding loops across @p driver. The exact search is the
 * workload this sharding was built for: a single hard loop can cost
 * ~10^3x an easy one, and the driver's dynamic item claiming keeps the
 * pool busy around it. Rows come back in workbench order regardless of
 * the job count.
 */
GapStudy runGapStudy(Workbench &bench, const MachineConfig &machine,
                     const GapOptions &options, ParallelDriver &driver);

/**
 * Render the study: one row per loop plus a per-benchmark aggregate
 * block (loops, gaps known, heuristic-optimal count, total gap).
 */
std::string formatGapTable(const GapStudy &study);

/**
 * One certifying engine's aggregate over a corpus — the
 * refutation-throughput comparison of the exact-engine families
 * (branch and bound vs. CDCL).
 */
struct EngineOutcome
{
    std::string engine;          ///< registry name ("bnb", "sat", ...)
    int loops = 0;               ///< corpus size
    int certified = 0;           ///< loops settled within budget
    int unknown = 0;             ///< loops the engine could not settle
    Cycle totalGap = 0;          ///< summed known heuristic gap
    /** Work charged: B&B candidate placements, or CDCL conflicts. */
    std::int64_t searchNodes = 0;
    double wallMs = 0.0;         ///< whole-corpus wall clock
};

/**
 * Run the gap study once per engine in @p engines (each a registered
 * backend name) over the same corpus and report each engine's
 * certified/unknown split and wall clock. The per-loop gap *tables*
 * of the engines are required to agree wherever both certify (the
 * differential pipeline enforces this); what differs — and what this
 * comparison measures — is how much of the corpus each engine settles
 * within the budget and at what cost.
 */
std::vector<EngineOutcome> runEngineComparison(
    Workbench &bench, const MachineConfig &machine,
    const GapOptions &options, const std::vector<std::string> &engines,
    ParallelDriver &driver);

/**
 * Render the comparison: a table plus one machine-readable line per
 * engine (`engine=sat loops=... certified=... unknown=... gap=...
 * nodes=... wall_ms=...`); `table_gap --engines` prints it, and its
 * wall_ms is how engines are compared on the clock.
 */
std::string formatEngineComparison(
    const std::vector<EngineOutcome> &outcomes);

} // namespace mvp::harness

#endif // MVP_HARNESS_GAPSTUDY_HH
