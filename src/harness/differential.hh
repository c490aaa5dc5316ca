/**
 * @file
 * Differential validation pipeline over generated scenarios.
 *
 * The credibility of exact-scheduling work (Roorda's SMT software
 * pipelining, SAT-MapIt) comes from validating heuristics against
 * exact results over broad generated instance sets. This pipeline does
 * the same for the whole stack: for every scenario the generator draws
 * (a loop nest plus a machine), it
 *
 *  1. round-trips the loop and the machine through the text format
 *     (parse(print(x)) must reprint byte-identically),
 *  2. schedules with the rmca heuristic and fully validates the
 *     schedule against the DDG and the machine,
 *  3. cross-checks the exact branch-and-bound backend: on every
 *     scenario whose search settles within its work cap,
 *     exact II <= rmca II must hold (and the certified lower bound
 *     must not exceed the exact II),
 *  4. expands the kernel image (vliw/) and checks its structural
 *     contract (II kernel instructions, (SC-1)*II prologue/epilogue),
 *  5. runs the lockstep simulator and asserts the §2.2 compute-cycle
 *     identity NCYCLE_compute = NTIMES * (NITER + SC - 1) * II with
 *     SC re-derived from the kernel image, and
 *  6. compares the CME solver against the exact cache oracle: bitwise
 *     equality where the solver ran exhaustively (small iteration
 *     spaces — the generator's default regime), CI-derived tolerance
 *     where it sampled.
 *
 * Scenarios are independent work items sharded across a ParallelDriver
 * pool; every row is a pure function of (base seed, index), so reports
 * are byte-identical at any --jobs and every failure is reproducible
 * from its printed seed alone.
 */

#ifndef MVP_HARNESS_DIFFERENTIAL_HH
#define MVP_HARNESS_DIFFERENTIAL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "gen/generator.hh"
#include "harness/driver.hh"
#include "sched/scheduler.hh"

namespace mvp::harness
{

/** What to run and how hard. */
struct DiffOptions
{
    /** Base seed; scenario i uses gen::deriveSeed(seed, i). */
    std::uint64_t seed = 0xd1ffULL;

    /** Number of generated scenarios. */
    int scenarios = 200;

    /** Generator distributions. */
    gen::GenParams gen;

    /** rmca miss-latency threshold. */
    double threshold = 0.25;

    /**
     * Locality provider bound per scenario for the rmca scheduler
     * ("cme", "oracle", ...). The CME-vs-oracle agreement check always
     * compares the plain solver against the oracle, independent of
     * this choice.
     */
    std::string locality = "cme";

    /**
     * Work cap per II attempt of both certifying engines
     * (SchedulerOptions::searchBudget). Scenarios a search cannot
     * settle within it are reported (not failed): the II cross-check
     * applies only where the exact result is certified.
     */
    std::int64_t searchBudget = 200'000;

    /**
     * Wall-clock budget of each scenario's exact search, in
     * milliseconds (negative = no deadline). The work cap above is
     * the deterministic one; this is the machine-meaningful one.
     */
    std::int64_t timeBudgetMs = sched::DEFAULT_TIME_BUDGET_MS;

    /**
     * Certifying engine of the cross-check: "exact"/"bnb" (branch and
     * bound) or "sat" (CDCL).
     */
    std::string exactBackend = "exact";

    /** Skip the exact cross-check entirely (pure heuristic sweeps). */
    bool checkExact = true;

    /**
     * Engine cross-check: also run the CDCL `sat` backend on every
     * scenario and require it to certify the same minimal II as the
     * branch and bound (and the same infeasibility verdicts) wherever
     * both engines settle within budget. A divergence is a hard
     * failure that dumps the scenario's loop and machine text for
     * standalone reproduction. Requires checkExact.
     */
    bool checkSat = true;
};

/** One scenario's outcome. */
struct ScenarioOutcome
{
    std::uint64_t seed = 0;    ///< reproduces the scenario exactly
    std::string loop;          ///< generated nest name
    std::string machine;      ///< generated machine name
    int ops = 0;
    int clusters = 0;
    Cycle mii = 0;
    Cycle rmcaII = 0;
    Cycle exactII = 0;         ///< 0 when unsettled or skipped
    bool exactSettled = false; ///< exact II carries a certificate
    int stages = 0;            ///< SC from the kernel image
    Cycle simCompute = 0;
    Cycle simStall = 0;
    double cmeMisses = 0.0;    ///< solver misses/iteration, full set
    double oracleMisses = 0.0; ///< oracle misses/iteration, full set

    /** First failed check ("" = scenario passed). */
    std::string failure;
};

/** Whole-sweep outcome. */
struct DiffReport
{
    std::vector<ScenarioOutcome> rows;

    /** The options the sweep ran under (for summary(), not part of
     * the canonical serialisation). */
    DiffOptions options;

    int passed() const;
    int failed() const;

    /** Scenarios with a certified exact II. */
    int exactSettled() const;

    /** Scenarios where rmca matched the certified exact II. */
    int rmcaOptimal() const;

    /**
     * Canonical serialisation: one line per scenario in index order
     * plus the aggregate line. Byte-identical at any job count; its
     * fnv1a hash is the fingerprint fuzz_sweep prints.
     */
    std::string serialise() const;

    /** Human summary (aggregates plus every failure's detail). */
    std::string summary() const;
};

/** Run the pipeline, sharding scenarios across @p driver. */
DiffReport runDifferential(const DiffOptions &options,
                           ParallelDriver &driver);

/** runDifferential on a default-sized driver (MVP_JOBS / hardware). */
DiffReport runDifferential(const DiffOptions &options = {});

} // namespace mvp::harness

#endif // MVP_HARNESS_DIFFERENTIAL_HH
