#include "spans.hh"

#include <cstdio>
#include <memory>
#include <mutex>
#include <utility>

#include "cme/provider.hh"
#include "sched/backend.hh"

namespace perfbench
{
namespace
{

struct ThreadBuf
{
    std::int32_t id = 0;
    bool caller = false;
    std::vector<Span> spans;
    std::vector<std::int32_t> open;   ///< indices of open spans
};

std::mutex g_mu;   ///< guards g_bufs (the vector, not the buffers)
std::vector<std::unique_ptr<ThreadBuf>> g_bufs;
thread_local ThreadBuf *t_buf = nullptr;

ThreadBuf &
self()
{
    if (t_buf == nullptr) {
        std::lock_guard<std::mutex> lock(g_mu);
        g_bufs.push_back(std::make_unique<ThreadBuf>());
        t_buf = g_bufs.back().get();
        t_buf->id = static_cast<std::int32_t>(g_bufs.size() - 1);
    }
    return *t_buf;
}

/** Delegates to a built-in backend inside a span of @p kind. */
class TimedBackend final : public mvp::sched::SchedulerBackend
{
  public:
    TimedBackend(std::shared_ptr<const mvp::sched::SchedulerBackend> inner,
                 SpanKind kind)
        : inner_(std::move(inner)), kind_(kind)
    {
    }

    std::string_view name() const override { return inner_->name(); }

    mvp::sched::ScheduleResult
    schedule(const mvp::ddg::Ddg &graph, const mvp::MachineConfig &machine,
             const mvp::sched::SchedulerOptions &options,
             mvp::sched::SchedContext &ctx) const override
    {
        Scope span(kind_);
        auto result = inner_->schedule(graph, machine, options, ctx);
        span.note(result.stats.searchNodes, result.stats.iiAttempts,
                  result.stats.provenOptimal);
        return result;
    }

  private:
    std::shared_ptr<const mvp::sched::SchedulerBackend> inner_;
    SpanKind kind_;
};

/** Delegates every query to a bound built-in analysis, one span each. */
class TimedAnalysis final : public mvp::cme::LocalityAnalysis
{
  public:
    explicit TimedAnalysis(std::unique_ptr<mvp::cme::LocalityAnalysis> inner)
        : inner_(std::move(inner))
    {
    }

    const mvp::ir::LoopNest &loop() const override { return inner_->loop(); }

    double missesPerIteration(const std::vector<mvp::OpId> &set,
                              const mvp::CacheGeom &geom) override
    {
        Scope span(SpanKind::CmeQuery);
        return inner_->missesPerIteration(set, geom);
    }

    double missRatio(const std::vector<mvp::OpId> &set, mvp::OpId op,
                     const mvp::CacheGeom &geom) override
    {
        Scope span(SpanKind::CmeQuery);
        return inner_->missRatio(set, op, geom);
    }

  private:
    std::unique_ptr<mvp::cme::LocalityAnalysis> inner_;
};

class TimedProvider final : public mvp::cme::LocalityProvider
{
  public:
    explicit TimedProvider(
        std::shared_ptr<const mvp::cme::LocalityProvider> inner)
        : inner_(std::move(inner))
    {
    }

    std::string_view name() const override { return inner_->name(); }

    std::unique_ptr<mvp::cme::LocalityAnalysis>
    bind(const mvp::ir::LoopNest &nest,
         std::shared_ptr<mvp::cme::StreamCache> streams) const override
    {
        return std::make_unique<TimedAnalysis>(
            inner_->bind(nest, std::move(streams)));
    }

  private:
    std::shared_ptr<const mvp::cme::LocalityProvider> inner_;
};

} // namespace

const char *
spanName(SpanKind kind)
{
    static const char *const names[SPAN_KINDS] = {
        "harness.item", "sched.rmca",     "sched.baseline", "exact",
        "sat",          "cme.query",      "sched.validate", "ddg.build",
        "gen.scenario", "text.print",     "svc.queue",      "svc.flush"};
    return names[static_cast<std::size_t>(kind)];
}

Scope::Scope(SpanKind kind, std::int64_t item)
{
    ThreadBuf &buf = self();
    Span span;
    span.kind = kind;
    span.thread = buf.id;
    span.parent = buf.open.empty() ? -1 : buf.open.back();
    span.item = item >= 0 || span.parent < 0
                    ? item
                    : buf.spans[static_cast<std::size_t>(span.parent)].item;
    index_ = static_cast<std::int32_t>(buf.spans.size());
    buf.spans.push_back(span);
    buf.open.push_back(index_);
    buf.spans.back().start = nowNs();
}

Scope::~Scope()
{
    t_buf->spans[static_cast<std::size_t>(index_)].end = nowNs();
    t_buf->open.pop_back();
}

void
Scope::note(std::int64_t work, int attempts, bool proven)
{
    Span &span = t_buf->spans[static_cast<std::size_t>(index_)];
    span.work = work;
    span.attempts = attempts;
    span.proven = proven;
}

std::vector<Span>
allSpans()
{
    std::lock_guard<std::mutex> lock(g_mu);
    std::vector<Span> out;
    for (const auto &buf : g_bufs) {
        const auto base = static_cast<std::int32_t>(out.size());
        for (Span span : buf->spans) {
            if (span.parent >= 0)
                span.parent += base;
            out.push_back(span);
        }
    }
    return out;
}

void
markCallerThread()
{
    self().caller = true;
}

void
installTimingWrappers()
{
    auto &backends = mvp::sched::BackendRegistry::instance();
    const std::pair<const char *, SpanKind> wrapped[] = {
        {"rmca", SpanKind::SchedRmca},
        {"baseline", SpanKind::SchedBaseline},
        {"exact", SpanKind::SchedExact},
        {"sat", SpanKind::SchedSat}};
    for (const auto &[name, kind] : wrapped) {
        std::shared_ptr<const mvp::sched::SchedulerBackend> inner =
            backends.create(name);
        backends.add(name, [inner, kind = kind] {
            return std::make_unique<TimedBackend>(inner, kind);
        });
    }
    auto &providers = mvp::cme::LocalityRegistry::instance();
    std::shared_ptr<const mvp::cme::LocalityProvider> cme =
        providers.create("cme");
    providers.add("cme",
                  [cme] { return std::make_unique<TimedProvider>(cme); });
}

LayerTotals
aggregate(const std::vector<Span> &spans, std::int64_t from, std::int64_t to)
{
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    for (const Span &span : spans)
        if (span.parent >= 0)
            child_ns[static_cast<std::size_t>(span.parent)] +=
                span.end - span.start;

    std::vector<bool> caller;
    {
        std::lock_guard<std::mutex> lock(g_mu);
        for (const auto &buf : g_bufs)
            caller.push_back(buf->caller);
    }

    LayerTotals totals{};
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &span = spans[i];
        if (span.start < from || span.start >= to)
            continue;
        KindTotals &t = totals[static_cast<std::size_t>(span.kind)];
        const std::int64_t dur = span.end - span.start;
        t.calls += 1;
        t.totalNs += dur;
        t.selfNs += dur - child_ns[i];
        t.work += span.work;
        t.attempts += span.attempts;
        t.proven += span.proven ? 1 : 0;
        t.firstII += span.attempts == 1 ? 1 : 0;
        if (span.parent < 0 && !caller[static_cast<std::size_t>(span.thread)])
            t.poolTopNs += dur;
    }
    return totals;
}

bool
writeSpans(const std::vector<Span> &spans, const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "# thread\tname\tstart_ns\tend_ns\tparent\titem\twork\t"
                    "attempts\tproven\n");
    for (const Span &s : spans)
        std::fprintf(f, "%d\t%s\t%lld\t%lld\t%d\t%lld\t%lld\t%d\t%d\n",
                     s.thread, spanName(s.kind),
                     static_cast<long long>(s.start),
                     static_cast<long long>(s.end), s.parent,
                     static_cast<long long>(s.item),
                     static_cast<long long>(s.work), s.attempts,
                     s.proven ? 1 : 0);
    return std::fclose(f) == 0;
}

} // namespace perfbench
