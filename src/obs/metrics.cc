#include "obs/metrics.hh"

#include <cstdio>

#include "common/logging.hh"

namespace mvp::obs
{

namespace detail
{
std::atomic<bool> g_metrics_on{false};
} // namespace detail

namespace
{

struct SessionState
{
    bool active = false;
    std::string path;   ///< "" = stdout
};

SessionState &
session()
{
    static SessionState s;
    return s;
}

} // namespace

Histogram &
MetricShard::detHist(const std::string &name, double lo, double hi,
                     std::size_t buckets)
{
    return det_.hists.try_emplace(name, lo, hi, buckets).first->second;
}

Histogram &
MetricShard::rtHist(const std::string &name, double lo, double hi,
                    std::size_t buckets)
{
    return rt_.hists.try_emplace(name, lo, hi, buckets).first->second;
}

void
MetricShard::merge(const MetricShard &other)
{
    det_.counters.merge(other.det_.counters);
    for (const auto &[name, value] : other.det_.counters_max.all())
        det_.counters_max.setMax(name, value);
    for (const auto &[name, hist] : other.det_.hists) {
        auto it = det_.hists.find(name);
        if (it == det_.hists.end())
            det_.hists.emplace(name, hist);
        else
            it->second.merge(hist);
    }
    rt_.counters.merge(other.rt_.counters);
    for (const auto &[name, value] : other.rt_.counters_max.all())
        rt_.counters_max.setMax(name, value);
    for (const auto &[name, hist] : other.rt_.hists) {
        auto it = rt_.hists.find(name);
        if (it == rt_.hists.end())
            rt_.hists.emplace(name, hist);
        else
            it->second.merge(hist);
    }
}

void
MetricShard::clear()
{
    det_ = Section{};
    rt_ = Section{};
}

bool
MetricShard::empty() const
{
    return det_.counters.all().empty() && det_.counters_max.all().empty() &&
           det_.hists.empty() && rt_.counters.all().empty() &&
           rt_.counters_max.all().empty() && rt_.hists.empty();
}

Registry &
Registry::instance()
{
    static Registry r;
    return r;
}

void
Registry::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    total_.clear();
}

void
foldRtCounter(const std::string &name, std::int64_t delta)
{
    if (!metricsOn())
        return;
    MetricShard shard;
    shard.rt(name) += delta;
    Registry::instance().fold(shard);
}

void
Registry::fold(MetricShard &shard)
{
    if (shard.empty())
        return;
    {
        std::lock_guard<std::mutex> lock(mu_);
        total_.merge(shard);
    }
    shard.clear();
}

namespace
{

std::string
sectionText(const MetricShard::Section &sec)
{
    std::string out;
    for (const auto &[name, value] : sec.counters.all())
        out += "counter " + name + " = " + std::to_string(value) + '\n';
    for (const auto &[name, value] : sec.counters_max.all())
        out += "gauge " + name + " = " + std::to_string(value) + '\n';
    for (const auto &[name, hist] : sec.hists)
        out += "hist " + name + " " + hist.dump() + '\n';
    return out;
}

} // namespace

std::string
Registry::textReport() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::string out = "# deterministic\n";
    out += sectionText(total_.det_);
    out += "# runtime\n";
    out += sectionText(total_.rt_);
    return out;
}

std::string
Registry::deterministicReport() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return sectionText(total_.det_);
}

void
metricsInit(const std::string &path)
{
    auto &s = session();
    s.active = true;
    s.path = path;
    Registry::instance().enable();
}

void
metricsFinish()
{
    auto &s = session();
    if (!s.active)
        return;
    s.active = false;
    const std::string text = Registry::instance().textReport();
    if (s.path.empty()) {
        std::fwrite(text.data(), 1, text.size(), stdout);
        std::fflush(stdout);
        return;
    }
    std::FILE *f = std::fopen(s.path.c_str(), "w");
    if (f == nullptr) {
        mvp_warn("cannot write metrics file '", s.path, "'");
        return;
    }
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    mvp_inform("metrics written to ", s.path);
}

} // namespace mvp::obs
