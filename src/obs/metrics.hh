/**
 * @file
 * Process-wide metrics registry: the "why" layer of the stack.
 *
 * Every subsystem that does interesting work — the RMCA placement
 * loop, the exact branch-and-bound and CDCL engines, the parallel
 * driver's worker pool, the CME/locality caches — records named
 * counters, gauges, histograms (common/stats.hh) into a
 * MetricShard. Shards are per-SchedContext: workers aggregate locally
 * with plain integer arithmetic (no atomics, no locks on the hot
 * path) and fold into the one process-wide Registry at sweep
 * boundaries, where a mutex is cheap.
 *
 * The determinism contract — the part that makes the numbers
 * trustworthy under the `--jobs` pool — splits every report in two:
 *
 *  - the *deterministic* section holds content-derived integer
 *    counters and histograms: search nodes, prune-reason
 *    counts, memo probes/hits, backjump depths, II attempts, pool
 *    item totals. Each work item's contribution is a pure function of
 *    the item (the same property the schedule fingerprints rely on),
 *    and integer merging is commutative, so the folded totals are
 *    byte-identical at any job count — enforced by tests/obs_test.cc
 *    at jobs=1/2/8. The caveat is inherited from the outputs
 *    themselves: a search that degrades on its *wall-clock* budget
 *    contributes timing-dependent counts, exactly as it reports a
 *    timing-dependent "gap unknown" row.
 *
 *  - the *runtime* section holds everything interleaving- or
 *    clock-shaped: pool busy time and items per worker, flush and
 *    reactor timings, shared-cache totals (two workers racing on one
 *    memo key legitimately both count). Useful, but never
 *    byte-compared.
 *
 * Three metric kinds: counters (added on merge), histograms
 * (bucket-added) in either section, and gauges (max-merged high-water
 * marks) in the runtime section. The registry renders one plain-text
 * report, on stdout or into a file.
 *
 * Cost model: recording is gated on metricsOn(), a single relaxed
 * atomic load, so the disabled path is one predictable branch. Hot
 * loops keep plain local variables and fold once per schedule call.
 */

#ifndef MVP_OBS_METRICS_HH
#define MVP_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "common/stats.hh"

namespace mvp::obs
{

namespace detail
{
extern std::atomic<bool> g_metrics_on;
} // namespace detail

/** Whether metric recording is enabled (one relaxed atomic load). */
inline bool
metricsOn()
{
    return detail::g_metrics_on.load(std::memory_order_relaxed);
}

/**
 * One thread's (one SchedContext's) metric accumulator. Not
 * thread-safe — exactly like the SchedContext that owns it; the
 * Registry's fold() is the only cross-thread hand-off.
 */
class MetricShard
{
  public:
    /** @name Deterministic section (content-derived, byte-compared) */
    /// @{
    /** Mutable deterministic counter (created at 0). */
    std::int64_t &det(const std::string &name)
    {
        return det_.counters.counter(name);
    }

    /** Deterministic histogram, created with the given binning on
     * first use (later calls must repeat the same binning). */
    Histogram &detHist(const std::string &name, double lo, double hi,
                       std::size_t buckets);
    /// @}

    /** @name Runtime section (timing/interleaving-shaped) */
    /// @{
    std::int64_t &rt(const std::string &name)
    {
        return rt_.counters.counter(name);
    }

    void rtMax(const std::string &name, std::int64_t v)
    {
        rt_.counters_max.setMax(name, v);
    }

    Histogram &rtHist(const std::string &name, double lo, double hi,
                      std::size_t buckets);
    /// @}

    /** Fold @p other into this shard (commutative: counters add,
     * gauges max, histograms add). */
    void merge(const MetricShard &other);

    /** Drop every value (capacity may be kept by the maps). */
    void clear();

    /** True when nothing has been recorded. */
    bool empty() const;

    /** One half of the report (named publicly so the renderer in
     * metrics.cc can take it by reference; the instances stay
     * private). */
    struct Section
    {
        StatGroup counters;
        StatGroup counters_max;   ///< max-merged gauges
        std::map<std::string, Histogram> hists;
    };

  private:
    friend class Registry;

    Section det_;
    Section rt_;
};

/**
 * The process-wide sink every shard folds into. enable()/disable()
 * flip the metricsOn() gate; reset() clears accumulated data for
 * A/B comparisons (tests, repeated sweeps).
 */
class Registry
{
  public:
    static Registry &instance();

    void enable() { detail::g_metrics_on.store(true); }
    void disable() { detail::g_metrics_on.store(false); }

    /** Clear all folded data (the enable gate is left alone). */
    void reset();

    /** Merge @p shard into the totals and clear it. Thread-safe. */
    void fold(MetricShard &shard);

    /**
     * The report: stable-sorted plain text, a "# deterministic" header
     * and its section, then "# runtime" and its section. Lines are
     * "counter NAME = V", "gauge NAME = V" and
     * "hist NAME <Histogram::dump()>".
     */
    std::string textReport() const;

    /** The deterministic section only — the byte-compared half. */
    std::string deterministicReport() const;

  private:
    Registry() = default;

    mutable std::mutex mu_;
    MetricShard total_;
};

/**
 * One-shot fold: add @p delta to the runtime counter @p name, for code
 * that records outside any SchedContext (the service's TCP reactor),
 * where building and folding a whole MetricShard per event is noise.
 * A no-op (one relaxed load) when the registry is disabled; takes the
 * registry mutex once when it is on.
 */
void foldRtCounter(const std::string &name, std::int64_t delta);

/**
 * Flag-level session: remember where `--metrics[=<file>]` wants the
 * report and enable the registry. metricsFinish() writes textReport()
 * to stdout when @p path is empty, else into the file.
 */
void metricsInit(const std::string &path);

/** Emit the report chosen by metricsInit(). Idempotent; a no-op when
 * metricsInit() never ran. Call after all sweeps completed. */
void metricsFinish();

} // namespace mvp::obs

#endif // MVP_OBS_METRICS_HH
