/**
 * @file
 * Statistics accumulators used by the CME sampling solver, the simulator
 * and the experiment harness.
 */

#ifndef MVP_COMMON_STATS_HH
#define MVP_COMMON_STATS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace mvp
{

/**
 * Running mean/variance accumulator (Welford's algorithm).
 *
 * Numerically stable for long sampling runs; also exposes the half-width
 * of a normal-approximation confidence interval, which the CME solver
 * uses as its stop rule (Vera et al. style sampling).
 */
class RunningStat
{
  public:
    /** Fold one observation into the accumulator. */
    void add(double x);

    /** Number of observations so far. */
    std::size_t count() const { return n_; }

    /** Sample mean (0 when empty). */
    double mean() const { return n_ ? mean_ : 0.0; }

    /** Unbiased sample variance (0 with < 2 observations). */
    double variance() const;

    /** Sample standard deviation. */
    double stddev() const;

    /** Smallest observation seen (0 when empty). */
    double min() const { return n_ ? min_ : 0.0; }

    /** Largest observation seen (0 when empty). */
    double max() const { return n_ ? max_ : 0.0; }

    /** Sum of all observations. */
    double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

    /**
     * Half-width of the confidence interval around the mean for the given
     * two-sided confidence level (normal approximation).
     *
     * @param z Critical value; 1.96 gives a 95% interval.
     */
    double ciHalfWidth(double z = 1.96) const;

    /** Merge another accumulator into this one. */
    void merge(const RunningStat &other);

    /** Reset to the empty state. */
    void reset();

  private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Named counter bag: a tiny stats registry for simulator components.
 *
 * Counters auto-create at first touch; dump() renders them sorted by name
 * so simulator output is stable across runs. The counters sit in one
 * name-sorted vector: every simulated loop's result carries a group, so
 * a map node per counter would dominate the result's footprint.
 */
class StatGroup
{
  public:
    /** A counter: name and value. */
    using Entry = std::pair<std::string, std::int64_t>;

    /**
     * Mutable access to the counter named @p name (created at 0). The
     * reference is invalidated by the next call that creates a counter.
     */
    std::int64_t &counter(const std::string &name);

    /**
     * Gauge-set: overwrite @p name with @p value. The honest spelling
     * for sampled quantities (pool high-water marks, harvested cache
     * totals) that were previously smuggled through `counter() +=`
     * arithmetic.
     */
    void set(const std::string &name, std::int64_t value);

    /** Gauge-set keeping the larger of the stored and given value. */
    void setMax(const std::string &name, std::int64_t value);

    /** Read-only value of @p name (0 when never touched). */
    std::int64_t value(const std::string &name) const;

    /** All counters, sorted by name. */
    const std::vector<Entry> &all() const { return counters_; }

    /**
     * Render "name = value" lines. Locale-independent: values are
     * formatted with std::to_string, so a host locale with digit
     * grouping (e.g. de_DE) cannot leak thousands separators into
     * fingerprinted reports.
     */
    std::string dump(const std::string &prefix = "") const;

    /** Add every counter of @p other into this group. */
    void merge(const StatGroup &other);

    /** Reset all counters to zero (keeps the names). */
    void reset();

    /** Make room for @p n counters. */
    void reserve(std::size_t n) { counters_.reserve(n); }

  private:
    std::vector<Entry> counters_;   ///< sorted by name, names unique
};

/**
 * Fixed-bucket histogram for latency distributions.
 */
class Histogram
{
  public:
    /**
     * @param lo Inclusive lower bound of the first bucket.
     * @param hi Exclusive upper bound of the last regular bucket.
     * @param buckets Number of equal-width buckets between lo and hi;
     *                out-of-range samples land in under/overflow.
     */
    Histogram(double lo, double hi, std::size_t buckets);

    /** Record one sample. */
    void add(double x);

    /** Number of samples recorded. */
    std::size_t count() const { return count_; }

    /** Count in regular bucket @p i. */
    std::size_t bucketCount(std::size_t i) const;

    /** Samples below the low bound. */
    std::size_t underflow() const { return underflow_; }

    /** Samples at or above the high bound. */
    std::size_t overflow() const { return overflow_; }

    /** Number of regular buckets. */
    std::size_t numBuckets() const { return counts_.size(); }

    /** Mean of all recorded samples. */
    double mean() const;

    /**
     * Approximate percentile @p p (0..100) from the bucket counts,
     * linearly interpolated inside the winning bucket. Underflow
     * samples clamp to the low bound and overflow samples to the high
     * bound (a fixed-range histogram cannot know their true values).
     * Returns 0 when empty.
     */
    double percentile(double p) const;

    /**
     * One-line summary renderer:
     * "count=N mean=M p50=A p90=B p99=C min<lo max>=hi" style, with
     * under/overflow counts when nonzero. Locale-independent.
     */
    std::string dump() const;

    /**
     * Fold @p other into this histogram. Both must have identical
     * bounds and bucket counts (asserted): merged distributions only
     * make sense over the same binning.
     */
    void merge(const Histogram &other);

  private:
    double lo_;
    double hi_;
    std::vector<std::size_t> counts_;
    std::size_t underflow_ = 0;
    std::size_t overflow_ = 0;
    std::size_t count_ = 0;
    double sum_ = 0.0;
};

} // namespace mvp

#endif // MVP_COMMON_STATS_HH
