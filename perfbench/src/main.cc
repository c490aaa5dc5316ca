/**
 * @file
 * The benchmark binary: runs one workload and prints one JSON result
 * line on stdout.
 *
 *   perfbench --workload table1|certify|serve --seed N --seconds S
 *             --trace 0|1 [--smoke] [--spans-out FILE]
 *
 * --trace 0 prints the end-to-end metrics. --trace 1 measures the
 * first 30% of the seconds untraced, then installs the timing wrappers
 * and measures the rest traced; it prints the per-layer metrics
 * derived from the recorded spans, plus the traced/untraced throughput
 * ratio as the tracing overhead. Host details go to stderr. The exit
 * code is 1 when any output check failed.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <string>
#include <thread>

#include "bench.hh"
#include "harness/experiment.hh"
#include "machine/presets.hh"

namespace perfbench
{

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

void
setMetric(std::vector<Metric> &metrics, const std::string &name,
          double value)
{
    for (Metric &m : metrics)
        if (m.name == name) {
            m.value = value;
            return;
        }
    std::fprintf(stderr, "perfbench: no metric named %s\n", name.c_str());
    std::abort();
}

void
Tally::notePassCycles(std::int64_t pass_cycles, std::int64_t pass_items)
{
    if (cycles < 0)
        cycles = pass_cycles;
    if (pass_cycles != cycles) {
        std::fprintf(stderr, "pass cycle sum %lld differs from %lld\n",
                     static_cast<long long>(pass_cycles),
                     static_cast<long long>(cycles));
        failed += pass_items;
    }
}

std::unique_ptr<mvp::harness::Workbench>
prepareWorkbench(bool traced)
{
    if (traced) {
        const mvp::MachineConfig lat = mvp::makeUnified();
        for (const auto &bench : mvp::workloads::resolveWorkloads({}))
            for (const auto &nest : bench.loops) {
                Scope span(SpanKind::DdgBuild);
                mvp::ddg::Ddg::build(nest, lat).sccs();
            }
    }
    return std::make_unique<mvp::harness::Workbench>();
}

std::vector<std::size_t>
permutation(std::size_t n, std::uint64_t seed)
{
    std::vector<std::size_t> out(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = i;
    std::mt19937_64 rng(seed);
    for (std::size_t i = n; i > 1; --i)
        std::swap(out[i - 1], out[rng() % i]);
    return out;
}

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "table1|certify|serve --seed N --seconds S --trace 0|1 "
                 "[--smoke] [--spans-out FILE]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--smoke") {
            args.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = std::strtoull(value.c_str(), &end, 10);
        else if (flag == "--seconds")
            args.seconds = std::strtod(value.c_str(), &end);
        else if (flag == "--trace")
            args.trace = value == "1";
        else if (flag == "--spans-out")
            args.spansOut = value;
        else
            usage(("unknown flag " + flag).c_str());
        if (end != nullptr && *end != '\0')
            usage(("malformed value for " + flag).c_str());
    }
    if (!(args.seconds > 0.0))
        usage("--seconds must be positive");
    return args;
}

/** VmHWM of this process, in MB. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

/**
 * Set-up plus pass, repeated until @p budget seconds of timed passes
 * (once in smoke mode). Each set-up time joins @p setup_s; sampling
 * set-up across the whole run, rather than only at its start, keeps
 * setup_s from depending on the host's speed during one short window.
 */
void
measure(Workload &w, bool traced, double budget, bool smoke, Tally &tally,
        std::vector<double> &setup_s)
{
    do {
        setup_s.push_back(w.setup(traced));
        w.pass(traced, tally);
    } while (!smoke && tally.seconds < budget);
}

/** Items per second of the median pass. */
double
throughput(const Tally &t)
{
    std::vector<double> rates;
    for (const PassRecord &pass : t.passes)
        rates.push_back(static_cast<double>(pass.items) / pass.seconds);
    return median(rates);
}

/**
 * The median over items of each item's median latency across the
 * passes; every pass times the same items in the same order. A host
 * stall that slows one pass moves no item's median.
 */
double
itemMedianMs(const Tally &t, const std::string &side)
{
    const std::size_t n = t.passes.front().latencyMs.at(side).size();
    std::vector<double> per_item(n);
    std::vector<double> samples(t.passes.size());
    for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t p = 0; p < t.passes.size(); ++p)
            samples[p] = t.passes[p].latencyMs.at(side)[j];
        per_item[j] = median(samples);
    }
    return median(per_item);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * Every end-to-end metric. The p50s are item medians (itemMedianMs);
 * p95 is taken over every timing of every pass, so it has well over
 * ten samples beyond it. A split that the workload does not have
 * (rmca/baseline outside table1, bnb/sat outside certify, cold/warm
 * outside serve) reports item_ms_p50 under that name, so every
 * workload prints every metric.
 */
std::vector<Metric>
endToEnd(const Tally &t, double setup_s)
{
    const auto p50 = [&](const char *side) {
        return itemMedianMs(
            t, t.passes.front().latencyMs.count(side) ? side : "item");
    };
    std::vector<double> all;
    for (const PassRecord &pass : t.passes) {
        const std::vector<double> &ms = pass.latencyMs.at("item");
        all.insert(all.end(), ms.begin(), ms.end());
    }
    return {
        {"setup_s", setup_s, "s"},
        {"throughput_per_s", throughput(t), "1/s"},
        {"item_ms_p50", p50("item"), "ms"},
        {"item_ms_p95", percentile(all, 95.0), "ms"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"ok_rate",
         ratio(static_cast<double>(t.attempted - t.failed),
               static_cast<double>(t.attempted)),
         "ratio"},
        {"schedule_cycles", static_cast<double>(t.cycles), "cycles"},
        {"rmca_ms_p50", p50("rmca"), "ms"},
        {"baseline_ms_p50", p50("baseline"), "ms"},
        {"bnb_ms_p50", p50("bnb"), "ms"},
        {"sat_ms_p50", p50("sat"), "ms"},
        {"cold_ms_p50", p50("cold"), "ms"},
        {"warm_us_p50", p50("warm") * 1e3, "us"},
    };
}

/** The per-layer metrics every workload derives from its spans; the
 * workload's own layerMetrics() fills in sim.* and svc.*. */
std::vector<Metric>
perLayer(const LayerTotals &run, int setups, const Tally &t, int workers)
{
    const auto k = [&](SpanKind kind) -> const KindTotals & {
        return run[static_cast<std::size_t>(kind)];
    };
    const double passes =
        std::max<double>(1.0, static_cast<double>(t.passes.size()));
    const auto perPass = [&](std::int64_t v) {
        return static_cast<double>(v) / passes;
    };
    const auto msPerPass = [&](std::int64_t ns) {
        return static_cast<double>(ns) / 1e6 / passes;
    };
    const auto setupMs = [&](SpanKind kind) {
        return static_cast<double>(
                   run[static_cast<std::size_t>(kind)].selfNs) /
               1e6 / std::max(1, setups);
    };
    std::int64_t pool_ns = 0;
    for (const KindTotals &kt : run)
        pool_ns += kt.poolTopNs;
    std::int64_t sched_ns = 0;
    for (const SpanKind kind : {SpanKind::SchedRmca, SpanKind::SchedBaseline,
                                SpanKind::SchedExact, SpanKind::SchedSat})
        sched_ns += k(kind).totalNs;
    const KindTotals &rmca = k(SpanKind::SchedRmca);
    const KindTotals &base = k(SpanKind::SchedBaseline);
    const KindTotals &ex = k(SpanKind::SchedExact);
    const KindTotals &sat = k(SpanKind::SchedSat);
    const KindTotals &cme = k(SpanKind::CmeQuery);
    const auto d = [](std::int64_t v) { return static_cast<double>(v); };
    return {
        {"harness.pool.busy_ratio",
         ratio(d(pool_ns), workers * t.seconds * 1e9), "ratio"},
        {"sim.simulate.calls", 0.0, "count"},
        {"sim.simulate.self_ms", 0.0, "ms"},
        {"sim.simulate.share", 0.0, "ratio"},
        {"cme.query.calls", perPass(cme.calls), "count"},
        {"cme.query.self_ms", msPerPass(cme.selfNs), "ms"},
        {"cme.query.share_of_sched", ratio(d(cme.selfNs), d(sched_ns)),
         "ratio"},
        {"sched.rmca.calls", perPass(rmca.calls), "count"},
        {"sched.rmca.self_ms", msPerPass(rmca.selfNs), "ms"},
        {"sched.baseline.self_ms", msPerPass(base.selfNs), "ms"},
        {"sched.validate.self_ms",
         msPerPass(k(SpanKind::Validate).selfNs), "ms"},
        {"sched.ii_attempts", perPass(rmca.attempts + base.attempts),
         "count"},
        {"sched.first_ii_ratio",
         ratio(d(rmca.firstII + base.firstII), d(rmca.calls + base.calls)),
         "ratio"},
        {"exact.calls", perPass(ex.calls), "count"},
        {"exact.self_ms", msPerPass(ex.selfNs), "ms"},
        {"exact.nodes", perPass(ex.work), "count"},
        {"exact.nodes_per_ms", ratio(d(ex.work), d(ex.selfNs) / 1e6),
         "1/ms"},
        {"exact.proven_ratio", ratio(d(ex.proven), d(ex.calls)), "ratio"},
        {"sat.calls", perPass(sat.calls), "count"},
        {"sat.self_ms", msPerPass(sat.selfNs), "ms"},
        {"sat.conflicts", perPass(sat.work), "count"},
        {"sat.ii_probes", perPass(sat.attempts), "count"},
        {"sat.conflicts_per_ms", ratio(d(sat.work), d(sat.selfNs) / 1e6),
         "1/ms"},
        {"sat.proven_ratio", ratio(d(sat.proven), d(sat.calls)), "ratio"},
        {"ddg.build.self_ms", setupMs(SpanKind::DdgBuild), "ms"},
        {"gen.scenario.self_ms", setupMs(SpanKind::GenScenario), "ms"},
        {"text.print.self_ms", setupMs(SpanKind::TextPrint), "ms"},
        {"svc.queue.raw_us_p50", 0.0, "us"},
        {"svc.queue.parse_us_p50", 0.0, "us"},
        {"svc.flush.cold_self_ms", 0.0, "ms"},
        {"svc.flush.warm_us_p50", 0.0, "us"},
        {"svc.rawlane.hit_ratio", 0.0, "ratio"},
        {"svc.cache.hit_ratio", 0.0, "ratio"},
        {"svc.errors", 0.0, "count"},
        {"trace.throughput_ratio", 0.0, "ratio"},
    };
}

void
printResult(const Tally &t, const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += t.failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(t.attempted);
    out += ", \"failed\": " + std::to_string(t.failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double v = std::isfinite(metrics[i].value) ? metrics[i].value
                                                         : 0.0;
        char num[64];
        std::snprintf(num, sizeof num, "%.17g", v);
        out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
               num + ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Args args = parseArgs(argc, argv);
    std::unique_ptr<Workload> w;
    if (args.workload == "table1")
        w = makeTable1(args);
    else if (args.workload == "certify")
        w = makeCertify(args);
    else if (args.workload == "serve")
        w = makeServe(args);
    else
        usage("--workload must be table1, certify or serve");
    markCallerThread();

#ifdef NDEBUG
    const char *build = "Release (NDEBUG)";
#else
    const char *build = "assertions on";
#endif
    std::fprintf(stderr,
                 "perfbench: workload=%s seed=%llu seconds=%g trace=%d "
                 "nproc=%u workers=%d compiler=\"%s\" build=%s\n",
                 args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed), args.seconds,
                 args.trace ? 1 : 0, std::thread::hardware_concurrency(),
                 w->workers(), __VERSION__, build);

    // One discarded set-up and pass warm the process; only the pass's
    // failures count.
    Tally warm;
    if (!args.smoke) {
        w->setup(false);
        w->pass(false, warm);
    }

    Tally tally;
    std::vector<double> setup_s;
    std::vector<Metric> metrics;
    if (!args.trace) {
        measure(*w, false, args.seconds, args.smoke, tally, setup_s);
        w->finalCheck(tally);
        metrics = endToEnd(tally, median(setup_s));
    } else {
        Tally untraced;
        measure(*w, false, 0.3 * args.seconds, args.smoke, untraced,
                setup_s);
        installTimingWrappers();
        const std::int64_t from = nowNs();
        const std::size_t traced_from = setup_s.size();
        measure(*w, true, 0.7 * args.seconds, args.smoke, tally, setup_s);
        const std::int64_t to = nowNs();
        w->finalCheck(tally);
        const std::vector<Span> spans = allSpans();
        metrics = perLayer(aggregate(spans, from, to),
                           static_cast<int>(setup_s.size() - traced_from),
                           tally, w->workers());
        w->layerMetrics(spans, from, to,
                        static_cast<int>(tally.passes.size()), metrics);
        setMetric(metrics, "trace.throughput_ratio",
                  ratio(throughput(tally), throughput(untraced)));
        tally.attempted += untraced.attempted;
        tally.failed += untraced.failed;
        if (!args.spansOut.empty() && !writeSpans(spans, args.spansOut))
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         args.spansOut.c_str());
    }
    tally.attempted += warm.attempted;
    tally.failed += warm.failed;
    printResult(tally, metrics);
    return tally.failed == 0 ? 0 : 1;
}
