/**
 * @file
 * What every benchmark workload shares: the command-line arguments,
 * the per-run tally of measured passes, and the Workload interface
 * main.cc drives.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.hh"

namespace mvp::harness
{
class Workbench;
}

namespace perfbench
{

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** One pass of each phase, no warm-up: a quick check that the
     * benchmark builds, runs and passes every output check. */
    bool smoke = false;
    /** Traced run: where to write the recorded spans ("" = nowhere). */
    std::string spansOut;
};

/** Linear-interpolated percentile @p p (0..100); 0 for no samples. */
double percentile(std::vector<double> v, double p);

/** Median of @p v; 0 for no samples. */
inline double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

/** One measured pass: its wall time and its items' latencies, in the
 * same item order every pass. */
struct PassRecord
{
    double seconds = 0.0;
    std::size_t items = 0;
    /** Item latency in ms: "item" holds every item, the other keys a
     * side of the workload's split (rmca/baseline, bnb/sat,
     * cold/warm). */
    std::map<std::string, std::vector<double>> latencyMs;
};

/** Latency samples and outcomes of the measured passes. */
struct Tally
{
    double seconds = 0.0;   ///< wall time of the measured passes
    std::vector<PassRecord> passes;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;

    /** The pass's output-quality sum; every pass must repeat it. */
    std::int64_t cycles = -1;

    /** Account one timed pass of @p items that began at @p start_ns;
     * addItem() then fills in its latencies. */
    void notePass(std::int64_t start_ns, std::size_t items)
    {
        PassRecord pass;
        pass.seconds = static_cast<double>(nowNs() - start_ns) / 1e9;
        pass.items = items;
        seconds += pass.seconds;
        passes.push_back(std::move(pass));
    }

    void addItem(const std::string &side, double ms, bool ok)
    {
        passes.back().latencyMs["item"].push_back(ms);
        passes.back().latencyMs[side].push_back(ms);
        attempted += 1;
        failed += ok ? 0 : 1;
    }

    /** Record a pass's cycle sum; a pass that differs fails as a whole. */
    void notePassCycles(std::int64_t pass_cycles, std::int64_t pass_items);
};

/** A named metric value with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Set the value of the metric named @p name (which must exist). */
void setMetric(std::vector<Metric> &metrics, const std::string &name,
               double value);

/**
 * One benchmark workload. main.cc calls setup() then pass(): once as a
 * discarded warm-up, then until the run's seconds of timed passes are
 * spent. Every pass runs on the inputs of the set-up just before it.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Prepare the next pass's inputs; returns the seconds it took. */
    virtual double setup(bool traced) = 0;

    /** Run one pass, timing each item into @p tally and checking every
     * output outside the timed region. */
    virtual void pass(bool traced, Tally &tally) = 0;

    /** Checks that run once after the measured passes. */
    virtual void finalCheck(Tally &) {}

    /** Pool workers the passes use (0 = no pool). */
    virtual int workers() const = 0;

    /** Fill in the workload-specific per-layer metrics (sim.*,
     * svc.*) from the @p passes traced passes in [from, to); main.cc
     * lists them as 0. */
    virtual void layerMetrics(const std::vector<Span> & /*spans*/,
                              std::int64_t /*from*/, std::int64_t /*to*/,
                              int /*passes*/,
                              std::vector<Metric> & /*metrics*/)
    {
    }
};

std::unique_ptr<Workload> makeTable1(const Args &args);
std::unique_ptr<Workload> makeCertify(const Args &args);
std::unique_ptr<Workload> makeServe(const Args &args);

/** Milliseconds since @p start_ns. */
inline double
msSince(std::int64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) / 1e6;
}

/**
 * Builtin loops, their DDGs and the Workbench, built from scratch.
 * Traced, it also times ddg::Ddg::build once per loop, since the
 * Workbench builds its DDGs out of reach of a span.
 */
std::unique_ptr<mvp::harness::Workbench> prepareWorkbench(bool traced);

/** Deterministic permutation of [0, n) from @p seed. */
std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
