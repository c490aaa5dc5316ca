#include "common/stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/logging.hh"

namespace mvp
{

namespace
{

/**
 * Locale-proof double rendering: snprintf follows the C locale's
 * LC_NUMERIC decimal point, so normalise any ',' it may emit. Keeps
 * histogram dumps byte-stable no matter what the host set.
 */
std::string
fmtStatDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    for (char *p = buf; *p != '\0'; ++p)
        if (*p == ',')
            *p = '.';
    return buf;
}

/** The first counter whose name is not less than @p name. */
template <typename Vec>
auto
lowerBound(Vec &counters, const std::string &name)
{
    return std::lower_bound(
        counters.begin(), counters.end(), name,
        [](const StatGroup::Entry &e, const std::string &key) {
            return e.first < key;
        });
}

} // namespace

void
RunningStat::add(double x)
{
    ++n_;
    if (n_ == 1) {
        mean_ = x;
        m2_ = 0.0;
        min_ = x;
        max_ = x;
        return;
    }
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

double
RunningStat::variance() const
{
    if (n_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(n_ - 1);
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

double
RunningStat::ciHalfWidth(double z) const
{
    if (n_ < 2)
        return 0.0;
    return z * stddev() / std::sqrt(static_cast<double>(n_));
}

void
RunningStat::merge(const RunningStat &other)
{
    if (other.n_ == 0)
        return;
    if (n_ == 0) {
        *this = other;
        return;
    }
    // Chan et al. parallel combination of Welford states.
    const double delta = other.mean_ - mean_;
    const auto na = static_cast<double>(n_);
    const auto nb = static_cast<double>(other.n_);
    const double nab = na + nb;
    m2_ += other.m2_ + delta * delta * na * nb / nab;
    mean_ += delta * nb / nab;
    n_ += other.n_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

void
RunningStat::reset()
{
    *this = RunningStat{};
}

std::int64_t &
StatGroup::counter(const std::string &name)
{
    const auto it = lowerBound(counters_, name);
    if (it != counters_.end() && it->first == name)
        return it->second;
    return counters_.insert(it, Entry{name, 0})->second;
}

void
StatGroup::set(const std::string &name, std::int64_t value)
{
    counter(name) = value;
}

void
StatGroup::setMax(const std::string &name, std::int64_t value)
{
    auto &slot = counter(name);
    slot = std::max(slot, value);
}

std::int64_t
StatGroup::value(const std::string &name) const
{
    const auto it = lowerBound(counters_, name);
    return it != counters_.end() && it->first == name ? it->second : 0;
}

std::string
StatGroup::dump(const std::string &prefix) const
{
    // std::to_string instead of an ostream: ostreams honour the global
    // std::locale, whose numpunct may group digits ("1.234.567"),
    // which would break byte-compared reports on such hosts.
    std::string out;
    for (const auto &[name, value] : counters_) {
        out += prefix;
        out += name;
        out += " = ";
        out += std::to_string(value);
        out += '\n';
    }
    return out;
}

void
StatGroup::merge(const StatGroup &other)
{
    for (const auto &[name, value] : other.counters_)
        counter(name) += value;
}

void
StatGroup::reset()
{
    for (auto &[name, value] : counters_)
        value = 0;
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), counts_(buckets, 0)
{
    mvp_assert(hi > lo, "histogram range must be non-empty");
    mvp_assert(buckets > 0, "histogram needs at least one bucket");
}

void
Histogram::add(double x)
{
    ++count_;
    sum_ += x;
    if (x < lo_) {
        ++underflow_;
        return;
    }
    if (x >= hi_) {
        ++overflow_;
        return;
    }
    const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
    auto idx = static_cast<std::size_t>((x - lo_) / width);
    idx = std::min(idx, counts_.size() - 1);
    ++counts_[idx];
}

std::size_t
Histogram::bucketCount(std::size_t i) const
{
    mvp_assert(i < counts_.size(), "bucket index out of range");
    return counts_[i];
}

double
Histogram::mean() const
{
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

double
Histogram::percentile(double p) const
{
    mvp_assert(p >= 0.0 && p <= 100.0, "percentile wants 0..100");
    if (count_ == 0)
        return 0.0;
    // Rank in [0, count): the sample the requested fraction of the
    // distribution sits at, walked bucket by bucket.
    const double rank =
        p / 100.0 * static_cast<double>(count_ - 1);
    double seen = 0.0;
    if (rank < static_cast<double>(underflow_))
        return lo_;
    seen += static_cast<double>(underflow_);
    const double width =
        (hi_ - lo_) / static_cast<double>(counts_.size());
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        const auto in_bucket = static_cast<double>(counts_[i]);
        if (in_bucket > 0.0 && rank < seen + in_bucket) {
            // Linear interpolation inside the bucket.
            const double frac = (rank - seen) / in_bucket;
            return lo_ + (static_cast<double>(i) + frac) * width;
        }
        seen += in_bucket;
    }
    return hi_;
}

std::string
Histogram::dump() const
{
    std::string out = "count=" + std::to_string(count_);
    out += " mean=" + fmtStatDouble(mean());
    out += " p50=" + fmtStatDouble(percentile(50.0));
    out += " p90=" + fmtStatDouble(percentile(90.0));
    out += " p99=" + fmtStatDouble(percentile(99.0));
    if (underflow_ > 0)
        out += " underflow=" + std::to_string(underflow_);
    if (overflow_ > 0)
        out += " overflow=" + std::to_string(overflow_);
    return out;
}

void
Histogram::merge(const Histogram &other)
{
    mvp_assert(lo_ == other.lo_ && hi_ == other.hi_ &&
                   counts_.size() == other.counts_.size(),
               "merging histograms with different binning");
    for (std::size_t i = 0; i < counts_.size(); ++i)
        counts_[i] += other.counts_[i];
    underflow_ += other.underflow_;
    overflow_ += other.overflow_;
    count_ += other.count_;
    sum_ += other.sum_;
}

} // namespace mvp
