/**
 * @file
 * Experiment harness: prepares every workload loop once (stable
 * LoopNest storage, DDG, and a cme::LoopLocality holder that binds each
 * locality provider to the loop on first use) and runs (machine,
 * scheduler, threshold) configurations over the whole suite, reporting
 * the paper's metric — cycles executing modulo-scheduled loops, split
 * into NCYCLE_compute and NCYCLE_stall and normalised to the unified
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

#include "cme/provider.hh"
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
     * "verify", or anything registered at runtime).
     */
    std::string backend = "baseline";

    /**
     * Locality provider by registry name ("cme", the paper's sampling
     * solver; "oracle"; or anything registered at runtime;
     * cme/provider.hh).
     */
    std::string locality = "cme";

    double threshold = 1.0;
};

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
 * loop, the DDG and the loop's locality analyses (bound on first use,
 * one per provider name, all on one shared access-stream cache). All of
 * it amortises across every configuration of a sweep — including
 * sharded sweeps: the analyses are thread-safe and their answers do not
 * depend on query interleaving.
 */
class Workbench
{
  public:
    /** One prepared loop. */
    struct Entry
    {
        Entry(std::string benchmark, ir::LoopNest nest);

        std::string benchmark;
        ir::LoopNest nest;
        std::unique_ptr<ddg::Ddg> ddg;

        /** The loop's locality analyses, shared by every run of it. */
        cme::LoopLocality locality;
    };

    /**
     * Prepare every loop of every builtin suite, or of the workloads
     * named by @p only — each name resolved like
     * workloads::benchmarkByName, so `file:<path>` loop files and
     * `gen:<spec>` generated suites mix freely with builtin names (and
     * unknown names fail with the list of valid ones). Operation
     * latencies are identical in all Table-1 machines, so one DDG per
     * loop serves the whole sweep; a DDG is immutable once built, so
     * the sharded workers share it freely.
     */
    explicit Workbench(const std::vector<std::string> &only = {});

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
 * Run many configurations over the workbench at once, sharding the
 * full (loop, configuration) cross product across @p driver — the
 * preferred shape for figure/table sweeps, where the item count (and
 * so the driver's load-balancing slack) is configs x loops instead of
 * loops. Returns one SuiteResult per configuration, in input order,
 * byte-identical at any job count.
 */
std::vector<SuiteResult> runSuiteSweep(
    Workbench &bench, const std::vector<RunConfig> &configs,
    sim::SimParams sim_params, ParallelDriver &driver);

/**
 * cme::harvestMetrics() over the workbench's loops. The suite runners
 * call this after every sweep; call it directly after hand-rolled
 * runLoop() loops.
 */
void harvestLocalityMetrics(const Workbench &bench);

} // namespace mvp::harness

#endif // MVP_HARNESS_EXPERIMENT_HH
