#include "harness/repro.hh"

#include "cme/provider.hh"
#include "cme/solver.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "common/table.hh"
#include "harness/motivating.hh"
#include "ir/transform.hh"
#include "machine/presets.hh"
#include "sched/backend.hh"

namespace mvp::harness
{

namespace
{

const double THRESHOLDS[] = {1.00, 0.75, 0.25, 0.00};

double
ratio(Cycle num, Cycle den)
{
    return static_cast<double>(num) / static_cast<double>(den);
}

/** One bus configuration of Figure 5 or 6: a ruled block of rows. */
struct BusBlock
{
    int clusters;   ///< 0 = unified
    Cycle busA;
    Cycle busB;
    MachineConfig machine;
};

/**
 * Figures 5 and 6 alike: per block, Baseline then RMCA at every
 * threshold (RMCA alone on the unified machine, where the schedulers
 * agree), all run as one sharded sweep.
 */
BusFigure
runBusGrid(BusFigure fig, const std::vector<BusBlock> &blocks,
           Workbench &bench, const std::string &locality,
           ParallelDriver &driver)
{
    std::vector<RunConfig> configs;
    for (const BusBlock &block : blocks) {
        for (const char *sched : {"baseline", "rmca"}) {
            if (block.clusters == 0 && sched == std::string("baseline"))
                continue;
            for (double thr : THRESHOLDS) {
                fig.rows.push_back(
                    {block.clusters, block.busA, block.busB, sched, thr});
                configs.push_back({block.machine, sched, locality, thr});
            }
        }
        fig.rows.back().ruleAfter = true;
    }
    const auto results = runSuiteSweep(bench, configs, {}, driver);
    for (std::size_t i = 0; i < results.size(); ++i) {
        fig.rows[i].compute = results[i].compute;
        fig.rows[i].stall = results[i].stall;
    }
    return fig;
}

/** The grid as a table, normalised to its first (unified@1.00) row. */
std::string
formatBusTable(const BusFigure &fig)
{
    const auto bus = [](int clusters, Cycle v) {
        return clusters == 0 && v == 0 ? "-" : std::to_string(v);
    };
    TextTable table({"config", fig.busColumns[0], fig.busColumns[1],
                     "sched", "thr", "compute", "stall", "total",
                     "norm"});
    table.setTitle(fig.title);
    const Cycle norm = fig.rows.front().total();
    for (const BusRow &row : fig.rows) {
        table.addRow({row.clusters == 0
                          ? "unified"
                          : std::to_string(row.clusters) + "-cluster",
                      bus(row.clusters, row.busA),
                      bus(row.clusters, row.busB),
                      row.sched == "rmca" ? "RMCA" : "Baseline",
                      fmtDouble(row.thr, 2), std::to_string(row.compute),
                      std::to_string(row.stall),
                      std::to_string(row.total()),
                      fmtDouble(ratio(row.total(), norm), 3)});
        if (row.ruleAfter)
            table.addRule();
    }
    return table.render() + "\n";
}

} // namespace

Fig3Result
reproduceFig3()
{
    const auto nest = motivatingLoop();
    const auto machine = motivatingMachine();
    const auto graph = ddg::Ddg::build(nest, machine);
    cme::CmeAnalysis cme(nest);
    sched::SchedContext ctx;   // both runs share one warm context

    Fig3Result fig{machine.summary(), nest.toString(),
                   {Fig3Run{"(a) register-optimal (Baseline)"},
                    Fig3Run{"(b) memory-aware (RMCA)"}}};
    const char *backends[] = {"baseline", "rmca"};
    for (std::size_t i = 0; i < fig.runs.size(); ++i) {
        sched::SchedulerOptions opt;
        opt.missThreshold = 1.0;
        opt.locality = &cme;
        const auto r = sched::scheduleWithBackend(backends[i], graph,
                                                  machine, opt, ctx);
        if (!r.ok)
            mvp_fatal("fig3: scheduling failed: ", r.error);
        fig.runs[i].schedule = r.schedule.toString(graph, machine);
        fig.runs[i].sim = sim::simulateLoop(graph, r.schedule, machine);
    }
    return fig;
}

std::string
formatFig3(const Fig3Result &fig)
{
    std::string out = "machine: " + fig.machine + "\n\n" + fig.loop + "\n";
    for (const Fig3Run &run : fig.runs) {
        const sim::SimResult &sim = run.sim;
        const double iters = static_cast<double>(sim.iterations);
        out += run.label + "\n" + run.schedule;
        out += strprintf(
            "  NCYCLE_compute = %lld   NCYCLE_stall = %lld   total = %lld\n"
            "  per-iteration: compute %.2f, stall %.2f (paper: (a) 3+12, "
            "(b) 4+6)\n  line fills/iteration: %.2f\n\n",
            static_cast<long long>(sim.computeCycles),
            static_cast<long long>(sim.stallCycles),
            static_cast<long long>(sim.totalCycles()),
            static_cast<double>(sim.computeCycles) / iters,
            static_cast<double>(sim.stallCycles) / iters,
            static_cast<double>(sim.memStats.value("memory_fills")) / iters);
    }
    out += strprintf("speedup (a)->(b): %.2fx  (paper derives 1.5x "
                     "charging every miss the full penalty;\nthe "
                     "non-blocking caches overlap schedule (b)'s sparse "
                     "misses, so the measured win is larger)\n",
                     fig.speedup());
    return out;
}

std::array<MachineConfig, 3>
reproduceTable1()
{
    return {makeUnified(), makeTwoCluster(), makeFourCluster()};
}

std::string
formatTable1(const std::array<MachineConfig, 3> &machines)
{
    TextTable table({"parameter", "unified", "2-cluster", "4-cluster"});
    table.setTitle("Table 1: multiVLIWprocessor configurations");
    auto row = [&](const char *name, auto get) {
        table.addRow({name, get(machines[0]), get(machines[1]),
                      get(machines[2])});
    };
    using M = const MachineConfig &;
    row("clusters", [](M m) { return std::to_string(m.nClusters); });
    row("INT units / cluster",
        [](M m) { return std::to_string(m.intFusPerCluster); });
    row("FP units / cluster",
        [](M m) { return std::to_string(m.fpFusPerCluster); });
    row("MEM units / cluster",
        [](M m) { return std::to_string(m.memFusPerCluster); });
    row("registers / cluster",
        [](M m) { return std::to_string(m.regsPerCluster); });
    row("issue width", [](M m) { return std::to_string(m.issueWidth()); });
    row("L1 / cluster (KB)", [](M m) {
        return fmtDouble(m.cacheBytesPerCluster() / 1024.0, 1);
    });
    row("L1 total (KB)",
        [](M m) { return std::to_string(m.totalCacheBytes / 1024); });
    row("line (B) / assoc / MSHR", [](M m) {
        return std::to_string(m.cacheLineBytes) + " / " +
               std::to_string(m.cacheAssoc) + " / " +
               std::to_string(m.mshrEntries);
    });

    TextTable lat({"operation", "latency (cycles)"});
    lat.setTitle("Operation latencies (uniform across configurations)");
    const MachineConfig &m = machines[0];
    for (const auto &[name, cycles] :
         std::initializer_list<std::pair<const char *, Cycle>>{
             {"INT arith", m.latInt},
             {"INT multiply", m.latIntMul},
             {"INT divide", m.latIntDiv},
             {"FP add/sub/mul/madd", m.latFp},
             {"FP divide", m.latFpDiv},
             {"load (local hit)", m.latCacheHit},
             {"store", m.latStore},
             {"main memory", m.latMainMemory},
             {"miss latency (hit+bus+mem)", m.missLatency()}})
        lat.addRow({name, std::to_string(cycles)});
    return table.render() + "\n" + lat.render() + "\n";
}

const BusRow &
BusFigure::at(int clusters, Cycle bus_a, Cycle bus_b,
              const std::string &sched, double thr) const
{
    for (const BusRow &row : rows)
        if (row.clusters == clusters && row.busA == bus_a &&
            row.busB == bus_b && row.sched == sched && row.thr == thr)
            return row;
    mvp_fatal("figure grid has no point ", clusters, "-cluster ", bus_a,
              "/", bus_b, " ", sched, "@", thr);
}

double
BusFigure::baselineOverRmca(int clusters) const
{
    double sum = 0;
    int n = 0;
    for (const BusRow &row : rows) {
        if (row.clusters != clusters || row.thr != 0.0 ||
            row.sched != "baseline")
            continue;
        sum += ratio(row.total(),
                     at(clusters, row.busA, row.busB, "rmca", 0.0).total());
        ++n;
    }
    return sum / n;
}

BusFigure
reproduceFig5(Workbench &bench, const std::string &locality,
              ParallelDriver &driver)
{
    // The unified machine moves no register values, so its LRB is
    // printed as "-".
    std::vector<BusBlock> blocks = {
        {0, 0, 1, withUnboundedBuses(makeUnified(), 1, 1)}};
    for (int clusters : {2, 4})
        for (Cycle lrb : {1, 2, 4})
            for (Cycle lmb : {1, 2, 4})
                blocks.push_back({clusters, lrb, lmb,
                                  withUnboundedBuses(makeConfig(clusters),
                                                     lrb, lmb)});
    return runBusGrid(
        {"Figure 5: unbounded buses, cycles normalised to unified@1.00",
         {"LRB", "LMB"}},
        blocks, bench, locality, driver);
}

BusFigure
reproduceFig6(Workbench &bench, const std::string &locality,
              ParallelDriver &driver)
{
    std::vector<BusBlock> blocks = {{0, 0, 0, makeUnified()}};
    for (int clusters : {2, 4})
        for (int nmb : {1, 2})
            for (Cycle lmb : {1, 4})
                blocks.push_back({clusters, nmb, lmb,
                                  withLimitedBuses(makeConfig(clusters),
                                                   nmb, lmb)});
    return runBusGrid({"Figure 6: limited buses (2 reg buses @1cy), "
                       "cycles normalised to unified@1.00",
                       {"NMB", "LMB"}},
                      blocks, bench, locality, driver);
}

std::string
formatFig5(const BusFigure &fig)
{
    std::string out = formatBusTable(fig) + "checks (LRB=1, LMB=1):\n";
    for (int clusters : {2, 4}) {
        const BusRow &rb = fig.at(clusters, 1, 1, "baseline", 0.0);
        const BusRow &rr = fig.at(clusters, 1, 1, "rmca", 0.0);
        const BusRow &rr1 = fig.at(clusters, 1, 1, "rmca", 1.0);
        out += strprintf("  %d-cluster thr=0.00: RMCA/Baseline = %.3f "
                         "(<= 1 expected), stall share = %.1f%% "
                         "(~0 expected), thr 1.00 -> 0.00 stall %.0f%% "
                         "-> %.0f%%\n",
                         clusters, ratio(rr.total(), rb.total()),
                         100.0 * rr.stallShare(), 100.0 * rr1.stallShare(),
                         100.0 * rr.stallShare());
    }
    return out;
}

std::string
formatFig6(const BusFigure &fig)
{
    std::string out = formatBusTable(fig) +
                      "RMCA advantage over Baseline at threshold 0.00 "
                      "(paper: ~5% on 2 clusters, ~20% on 4):\n";
    for (int clusters : {2, 4}) {
        const double r = fig.baselineOverRmca(clusters);
        out += strprintf("  %d-cluster: Baseline/RMCA = %.3f  (advantage "
                         "%.1f%%)\n",
                         clusters, r, 100.0 * (r - 1.0));
    }
    return out;
}

AblationResult
reproduceAblation(Workbench &bench, const std::string &locality,
                  ParallelDriver &driver)
{
    const auto machine = withLimitedBuses(makeFourCluster(), 1, 4);
    const char *labels[] = {"neither (Baseline, thr 1.00)",
                            "prefetch only (Baseline, thr 0.00)",
                            "CME clusters only (RMCA, thr 1.00)",
                            "full RMCA (thr 0.00)"};
    const auto results = runSuiteSweep(
        bench,
        {{machine, "baseline", locality, 1.0},
         {machine, "baseline", locality, 0.0},
         {machine, "rmca", locality, 1.0},
         {machine, "rmca", locality, 0.0}},
        {}, driver);

    AblationResult out{machine.summary()};
    for (std::size_t vi = 0; vi < results.size(); ++vi) {
        const SuiteResult &res = results[vi];
        AblationRow row{labels[vi], res.compute, res.stall};
        double ii_sum = 0;
        for (const LoopRunResult &loop : res.loops) {
            ii_sum += static_cast<double>(loop.sched.schedule.ii());
            row.comms += static_cast<std::int64_t>(
                loop.sched.schedule.numComms());
            row.promoted += loop.sched.stats.missScheduledLoads;
            row.fills += loop.sim.memStats.value("memory_fills");
        }
        row.meanIi = ii_sum / static_cast<double>(res.loops.size());
        out.variants.push_back(row);
    }
    // The ordering metric of [22], read off the RMCA@1.00 run.
    for (const LoopRunResult &loop : results[2].loops) {
        auto &slot = out.ordering[loop.benchmark];
        slot.first += 1;
        slot.second += loop.sched.stats.orderingBothNeighbours;
    }
    return out;
}

std::string
formatAblation(const AblationResult &result)
{
    TextTable table({"variant", "compute", "stall", "total", "vs none",
                     "mean II", "comms", "promoted", "fills"});
    table.setTitle("RMCA component ablation (4-cluster, NMB=1, LMB=4)");
    const Cycle none = result.variants.front().total();
    for (const AblationRow &row : result.variants)
        table.addRow({row.label, std::to_string(row.compute),
                      std::to_string(row.stall),
                      std::to_string(row.total()),
                      fmtDouble(ratio(row.total(), none), 3),
                      fmtDouble(row.meanIi, 2), std::to_string(row.comms),
                      std::to_string(row.promoted),
                      std::to_string(row.fills)});

    TextTable ord({"benchmark", "loops", "both-neighbour positions"});
    ord.setTitle("Swing ordering quality (0 = ideal for acyclic parts)");
    for (const auto &[name, counts] : result.ordering)
        ord.addRow({name, std::to_string(counts.first),
                    std::to_string(counts.second)});
    return "machine: " + result.machine + "\n\n" + table.render() + "\n" +
           ord.render() + "\n";
}

UnrollResult
reproduceUnroll(const std::string &locality, ParallelDriver &driver)
{
    const auto machine = withLimitedBuses(makeTwoCluster(), 1, 1);
    // Resolve the provider name on the calling thread: an unknown name
    // must fatal here, not inside a pool worker.
    (void)cme::LocalityRegistry::instance().create(locality);
    UnrollResult out{machine.summary(), locality};
    for (const char *suite : {"su2cor", "turb3d"})
        for (int factor : {1, 2, 4, 8})
            for (double thr : {0.75, 0.0})
                out.cells.push_back({suite, factor, thr});

    // Each cell builds its unrolled nests, DDGs and locality analyses
    // inside its work item.
    driver.run(out.cells.size(), [&](std::size_t i,
                                     sched::SchedContext &ctx) {
        UnrollCell &cell = out.cells[i];
        const auto suite = workloads::benchmarkByName(cell.suite);
        for (const auto &loop : suite.loops) {
            if (loop.innerTripCount() % cell.factor != 0)
                continue;
            const auto unrolled = ir::unrollInner(loop, cell.factor);
            const auto g = ddg::Ddg::build(unrolled, machine);
            sched::SchedulerOptions opt;
            opt.localityProvider = locality;
            opt.missThreshold = cell.thr;
            auto r = sched::scheduleWithBackend("rmca", g, machine, opt,
                                                ctx);
            if (!r.ok) {
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
        cell.iiPerElem /= cell.counted;
    });
    return out;
}

std::string
formatUnroll(const UnrollResult &result)
{
    std::string out = "machine: " + result.machine +
                      " (locality provider '" + result.locality + "')\n\n";
    for (const UnrollCell &cell : result.cells)
        out += cell.failures;

    TextTable table({"suite", "unroll", "thr", "mean II/elem", "promoted",
                     "compute", "stall", "total"});
    table.setTitle("Unrolling x binding prefetching (RMCA)");
    for (std::size_t i = 0; i < result.cells.size(); ++i) {
        const UnrollCell &cell = result.cells[i];
        table.addRow({cell.suite, std::to_string(cell.factor),
                      fmtDouble(cell.thr, 2), fmtDouble(cell.iiPerElem, 2),
                      std::to_string(cell.promoted),
                      std::to_string(cell.compute),
                      std::to_string(cell.stall),
                      std::to_string(cell.compute + cell.stall)});
        if (i + 1 < result.cells.size() &&
            result.cells[i + 1].suite != cell.suite)
            table.addRule();
    }
    table.addRule();
    out += table.render() +
           "\nReading the table: unrolling by the line length should leave "
           "one instance of\neach spatial load with all of its misses "
           "(ratio ~100%), which any threshold\nthen promotes, so stalls "
           "drop. At threshold 0.75:\n";
    // Per suite, from its smallest factor to its largest (the cells run
    // in factor order).
    for (std::size_t i = 0; i < result.cells.size();) {
        const std::string &suite = result.cells[i].suite;
        const UnrollCell *first = nullptr;
        const UnrollCell *last = nullptr;
        bool any_promoted = false;
        for (; i < result.cells.size() && result.cells[i].suite == suite; ++i)
            if (result.cells[i].thr == 0.75) {
                first = first ? first : &result.cells[i];
                last = &result.cells[i];
                any_promoted = any_promoted || result.cells[i].promoted > 0;
            }
        if (first == nullptr)
            continue;
        const std::string promoted =
            any_promoted ? strprintf("%d -> %d loads promoted",
                                     first->promoted, last->promoted)
                         : "no load promoted at any factor";
        out += strprintf("  %s: %s; stall %s %lld -> %lld (x%d -> x%d)\n",
                         suite.c_str(), promoted.c_str(),
                         last->stall < first->stall ? "drops" : "rises",
                         static_cast<long long>(first->stall),
                         static_cast<long long>(last->stall), first->factor,
                         last->factor);
    }
    return out;
}

} // namespace mvp::harness
