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
 *    counters, max-gauges and histograms: search nodes, prune-reason
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
 *    clock-shaped: wall-time timers (RunningStat; its Chan merge is
 *    float-order-dependent), pool busy time, queue-claim latency and
 *    shared-cache totals (two workers racing on one memo key
 *    legitimately both count). Useful, but never byte-compared.
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

    /** Deterministic max-gauge (high-water mark). */
    void detMax(const std::string &name, std::int64_t v)
    {
        det_.counters_max.setMax(name, v);
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

    /** Wall-time accumulator (milliseconds by convention). */
    RunningStat &timer(const std::string &name)
    {
        return timers_[name];
    }
    /// @}

    /** Fold @p other into this shard (commutative per section rules:
     * counters add, gauges max, histograms add, timers Chan-merge). */
    void merge(const MetricShard &other);

    /** Drop every value (capacity may be kept by the maps). */
    void clear();

    /** True when nothing has been recorded. */
    bool empty() const;

    /** One half of the report (named publicly so the renderers in
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
    std::map<std::string, RunningStat> timers_;   ///< runtime only
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
     * Stable-sorted plain-text report, deterministic section first.
     * Lines are "counter NAME = V", "gauge NAME = V",
     * "hist NAME <Histogram::dump()>", "timer NAME ...".
     */
    std::string textReport() const;

    /** The deterministic section only — the byte-compared half. */
    std::string deterministicReport() const;

    /** The same report as stable-ordered JSON (one object with
     * "deterministic" and "runtime" members). */
    std::string jsonReport() const;

  private:
    Registry() = default;

    mutable std::mutex mu_;
    MetricShard total_;
};

/** @name One-shot folds
 * For code that records a metric outside any SchedContext — the
 * service's session/reactor layers, snapshot SAVE/LOAD — where
 * building and folding a whole MetricShard per event is noise. All
 * are no-ops (one relaxed load) when the registry is disabled, and
 * take the registry mutex once when it is on; hot loops that fire
 * many times per item should still batch into a MetricShard.
 */
/// @{

/** Add @p delta to the runtime counter @p name. */
void foldRtCounter(const std::string &name, std::int64_t delta);

/** Max-merge @p v into the runtime gauge @p name. */
void foldRtMax(const std::string &name, std::int64_t v);

/** Record @p sample into the runtime histogram @p name (created with
 * the given binning on first use; later binnings must match). */
void foldRtHist(const std::string &name, double lo, double hi,
                std::size_t buckets, double sample);

/// @}

/**
 * Flag-level session: remember where `--metrics[=<file>]` wants the
 * report and enable the registry. Empty @p path = text report on
 * stdout at metricsFinish(); otherwise JSON into the file.
 */
void metricsInit(const std::string &path);

/** Emit the report chosen by metricsInit(). Idempotent; a no-op when
 * metricsInit() never ran. Call after all sweeps completed. */
void metricsFinish();

} // namespace mvp::obs

#endif // MVP_OBS_METRICS_HH
