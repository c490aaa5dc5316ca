/**
 * @file
 * Evaluation of the paper's un-evaluated suggestion (§4.3): unroll a
 * loop by the cache-line length so that one instance of each spatially-
 * local load always misses and the rest always hit, letting the
 * threshold mechanism promote exactly the missing instance instead of
 * all-or-nothing.
 *
 * Runs the su2cor and turb3d suites (their inner trips divide the
 * factors) at unroll factors 1/2/4/8 on the 2-cluster machine with
 * realistic buses, RMCA at thresholds 0.75 and 0.00. Each (suite,
 * factor, threshold) cell is an independent work item — its unrolled
 * nests, DDGs and CME analysis are built inside the item — so the whole
 * table shards across --jobs workers with byte-identical output.
 *
 * Usage: ablation_unroll [--jobs N]
 */

#include <cstdio>
#include <vector>

#include "cme/provider.hh"
#include "common/strutil.hh"
#include "common/table.hh"
#include "ddg/ddg.hh"
#include "harness/driver.hh"
#include "ir/transform.hh"
#include "machine/presets.hh"
#include "sched/backend.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

using namespace mvp;

int
main(int argc, char **argv)
{
    harness::parseObservabilityFlags(argc, argv);
    harness::ParallelDriver driver(harness::parseJobsFlag(argc, argv));
    sched::SchedulerOptions base;
    harness::parseLocalityFlag(argc, argv, base.localityProvider);
    harness::rejectUnknownFlags(argc, argv,
                                {"--jobs", "--locality",
                                 "--log-level", "--metrics",
                                 "--trace"});
    const auto machine = withLimitedBuses(makeTwoCluster(), 1, 1);
    // Resolve the provider name on the main thread: an unknown name
    // must fatal here, not inside a pool worker.
    (void)cme::LocalityRegistry::instance().create(base.localityProvider);
    std::printf("machine: %s (locality provider '%s')\n\n",
                machine.summary().c_str(), base.localityProvider.c_str());

    struct Cell
    {
        const char *suite;
        int factor;
        double thr;
        // Filled by the worker:
        Cycle compute = 0;
        Cycle stall = 0;
        double iiPerElem = 0;
        int promoted = 0;
        int counted = 0;
        std::string failures = {};   ///< reported after the pool joins
    };
    std::vector<Cell> cells;
    for (const char *suite : {"su2cor", "turb3d"})
        for (int factor : {1, 2, 4, 8})
            for (double thr : {0.75, 0.0})
                cells.push_back({suite, factor, thr});

    driver.run(cells.size(), [&](std::size_t i,
                                 sched::SchedContext &ctx) {
        Cell &cell = cells[i];
        const auto bench = workloads::benchmarkByName(cell.suite);
        for (const auto &loop : bench.loops) {
            if (loop.innerTripCount() % cell.factor != 0)
                continue;
            const auto unrolled = ir::unrollInner(loop, cell.factor);
            const auto g = ddg::Ddg::build(unrolled, machine);
            // The backend binds base.localityProvider to the unrolled
            // loop for this one call.
            sched::SchedulerOptions opt = base;
            opt.missThreshold = cell.thr;
            auto r = sched::scheduleWithBackend("rmca", g, machine, opt,
                                                ctx);
            if (!r.ok) {
                // No worker-thread printf: messages would interleave
                // nondeterministically; the main thread prints them
                // in cell order after the pool joins.
                cell.failures += "  " + loop.name() + " x" +
                                 std::to_string(cell.factor) +
                                 " failed: " + r.error + "\n";
                continue;
            }
            const auto sim = sim::simulateLoop(g, r.schedule, machine);
            cell.compute += sim.computeCycles;
            cell.stall += sim.stallCycles;
            cell.iiPerElem +=
                static_cast<double>(r.schedule.ii()) / cell.factor;
            cell.promoted += r.stats.missScheduledLoads;
            ++cell.counted;
        }
    });

    for (const Cell &cell : cells)
        if (!cell.failures.empty())
            std::printf("%s", cell.failures.c_str());

    TextTable table({"suite", "unroll", "thr", "mean II/elem",
                     "promoted", "compute", "stall", "total"});
    table.setTitle("Unrolling x binding prefetching (RMCA)");
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell &cell = cells[i];
        table.addRow({cell.suite, std::to_string(cell.factor),
                      fmtDouble(cell.thr, 2),
                      fmtDouble(cell.iiPerElem / cell.counted, 2),
                      std::to_string(cell.promoted),
                      std::to_string(cell.compute),
                      std::to_string(cell.stall),
                      std::to_string(cell.compute + cell.stall)});
        if (i + 1 < cells.size() &&
            cells[i + 1].suite != std::string(cell.suite))
            table.addRule();
    }
    table.addRule();
    std::printf("%s\n", table.render().c_str());
    std::printf(
        "Reading the table: at threshold 0.75 the un-unrolled loops "
        "promote nothing\n(spatial loads miss only 12-25%% of the "
        "time), so stalls stay; unrolling by the\nline length "
        "concentrates the misses in one instance whose ratio ~100%% "
        "crosses\nany threshold -- stalls drop without paying the miss "
        "latency on every copy.\n");
    return 0;
}
