/**
 * @file
 * Experiment harness: prepares every workload loop once (DDG + CME
 * analysis bound to a stable LoopNest) and runs (machine, scheduler,
 * threshold) configurations over the whole suite, reporting the paper's
 * metric — cycles executing modulo-scheduled loops, split into
 * NCYCLE_compute and NCYCLE_stall and normalised to the unified
 * configuration.
 *
 * Suite runs go through the ParallelDriver (harness/driver.hh): every
 * (loop, configuration) point is an independent work item, sharded
 * across a --jobs-sized pool and merged back in canonical (benchmark,
 * loop, config) order, so the emitted tables are byte-identical at any
 * job count.
 */

#ifndef MVP_HARNESS_EXPERIMENT_HH
#define MVP_HARNESS_EXPERIMENT_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cme/locality.hh"
#include "cme/stream.hh"
#include "ddg/ddg.hh"
#include "harness/driver.hh"
#include "machine/machine.hh"
#include "sched/scheduler.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

namespace mvp::harness
{

/** One experiment point. */
struct RunConfig
{
    MachineConfig machine;

    /**
     * Scheduler backend by registry name ("baseline", "rmca", "exact",
     * "verify", or anything registered at runtime). Empty is read as
     * "baseline".
     */
    std::string backend = "baseline";

    /**
     * Locality provider by registry name ("cme", "oracle", or
     * anything registered at runtime; cme/provider.hh). Empty is
     * read as "cme" — the paper's sampling solver.
     */
    std::string locality = "cme";

    double threshold = 1.0;

    /**
     * Per-II-attempt work cap of the exact backends
     * (SchedulerOptions::searchBudget; 0 = uncapped, the default — the
     * wall clock below is in charge).
     */
    std::int64_t searchBudget = 0;

    /**
     * Wall-clock budget of search-based backends per loop, in
     * milliseconds (negative = no deadline).
     */
    std::int64_t timeBudgetMs = sched::DEFAULT_TIME_BUDGET_MS;

    /**
     * Certifying engine verify-mode points run ("exact"/"bnb" or
     * "sat"); empty is read as "exact". Ignored by the heuristic
     * backends.
     */
    std::string exactBackend = "exact";
};

/** The scheduler-backend registry name runLoop() resolves @p config to. */
std::string backendName(const RunConfig &config);

/** The locality-provider registry name runLoop() resolves @p config to. */
std::string localityName(const RunConfig &config);

/** Per-loop outcome. */
struct LoopRunResult
{
    std::string benchmark;
    std::string loop;
    sched::ScheduleResult sched;
    sim::SimResult sim;
};

/** Whole-suite outcome. */
struct SuiteResult
{
    Cycle compute = 0;
    Cycle stall = 0;
    std::vector<LoopRunResult> loops;

    /** Per-benchmark (compute, stall) sums. */
    std::map<std::string, std::pair<Cycle, Cycle>> perBenchmark;

    Cycle total() const { return compute + stall; }
};

/**
 * Canonical textual serialisation of a suite result: one line per loop
 * (benchmark, loop, backend-relevant schedule facts, simulated cycles)
 * plus the aggregates, in workbench order. Two SuiteResults are equal
 * iff their serialisations are byte-identical — the determinism tests
 * compare jobs=1 against jobs=N through this.
 */
std::string formatSuiteResult(const SuiteResult &suite);

/**
 * All workload loops prepared once: stable LoopNest storage plus, per
 * loop, the DDG, one shared access-stream cache and the bound locality
 * analyses (one per provider name in use). All of it amortises across
 * every configuration of a sweep — including sharded sweeps: the
 * analyses are thread-safe and their answers do not depend on query
 * interleaving.
 */
class Workbench
{
  public:
    /** One prepared loop. */
    struct Entry
    {
        std::string benchmark;
        ir::LoopNest nest;
        std::unique_ptr<ddg::Ddg> ddg;

        /**
         * Access-stream cache shared by every locality analysis bound
         * to this loop (cme/stream.hh): its affine access streams
         * amortise across providers and configurations alike.
         */
        std::shared_ptr<cme::StreamCache> streams;

        /**
         * Locality analyses by provider name, bound by
         * Workbench::ensureLocality() — on the main thread, before any
         * sharded run — and read-only afterwards.
         */
        std::map<std::string, std::unique_ptr<cme::LocalityAnalysis>>
            bound;

        /** The analysis bound under @p provider (nullptr if none). */
        cme::LocalityAnalysis *locality(const std::string &provider) const
        {
            const auto it = bound.find(provider);
            return it == bound.end() ? nullptr : it->second.get();
        }
    };

    /**
     * Prepare every loop of every builtin suite, or of the workloads
     * named by @p only — each name resolved like
     * workloads::benchmarkByName, so `file:<path>` loop files and
     * `gen:<spec>` generated suites mix freely with builtin names (and
     * unknown names fail with the list of valid ones). Operation
     * latencies are identical in all Table-1 machines, so one DDG per
     * loop serves the whole sweep. Preparation also warms each DDG's
     * lazily-computed SCC tables so the graphs are read-only — and
     * therefore freely shared — once sharded scheduling starts. The
     * default "cme" provider is bound to every entry up front.
     */
    explicit Workbench(const std::vector<std::string> &only = {});

    /**
     * Bind @p provider (a cme::LocalityRegistry name) to every entry
     * that does not have it yet. NOT thread-safe: call on the main
     * thread before fanning a sweep out — the suite runners do this for
     * every configuration they are handed. fatal() on unknown names.
     */
    void ensureLocality(const std::string &provider);

    const std::vector<std::unique_ptr<Entry>> &entries() const
    {
        return entries_;
    }

    /** Benchmarks present (paper order). */
    std::vector<std::string> benchmarks() const;

  private:
    std::vector<std::unique_ptr<Entry>> entries_;
};

/**
 * Schedule + simulate one prepared loop under one configuration, with
 * the caller's scheduler context.
 */
LoopRunResult runLoop(Workbench::Entry &entry, const RunConfig &config,
                      sim::SimParams sim_params,
                      sched::SchedContext &ctx);

/** runLoop with a transient context. */
LoopRunResult runLoop(Workbench::Entry &entry, const RunConfig &config,
                      sim::SimParams sim_params = {});

/**
 * Schedule + simulate the whole workbench under one configuration,
 * sharding the loops across @p driver.
 */
SuiteResult runSuite(Workbench &bench, const RunConfig &config,
                     sim::SimParams sim_params, ParallelDriver &driver);

/** runSuite on a default-sized driver (MVP_JOBS / hardware size). */
SuiteResult runSuite(Workbench &bench, const RunConfig &config,
                     sim::SimParams sim_params = {});

/**
 * Run many configurations over the workbench at once, sharding the
 * full (loop, configuration) cross product across @p driver — the
 * preferred shape for figure/table sweeps, where the item count (and
 * so the driver's load-balancing slack) is configs x loops instead of
 * loops. Returns one SuiteResult per configuration, in input order,
 * each byte-identical to what runSuite would have produced serially.
 */
std::vector<SuiteResult> runSuiteSweep(
    Workbench &bench, const std::vector<RunConfig> &configs,
    sim::SimParams sim_params, ParallelDriver &driver);

/**
 * Snapshot the workbench's shared-cache tallies (StreamCache requests
 * and builds, CME memo lookups, solved queries and evaluated points)
 * into the obs::Registry as max-merged runtime gauges. No-op when
 * metrics are off. The suite runners call this after every sweep; call
 * it directly after hand-rolled runLoop() loops.
 */
void harvestLocalityMetrics(const Workbench &bench);

} // namespace mvp::harness

#endif // MVP_HARNESS_EXPERIMENT_HH
