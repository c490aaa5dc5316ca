#include "cme/provider.hh"

#include "cme/oracle.hh"
#include "cme/solver.hh"
#include "obs/metrics.hh"

namespace mvp::cme
{

namespace
{

/** The built-ins share one provider template. */
template <typename MakeFn>
class SimpleProvider : public LocalityProvider
{
  public:
    SimpleProvider(std::string name, MakeFn make)
        : name_(std::move(name)), make_(std::move(make))
    {
    }

    std::string_view name() const override { return name_; }

    std::unique_ptr<LocalityAnalysis>
    bind(const ir::LoopNest &nest,
         std::shared_ptr<StreamCache> streams) const override
    {
        return make_(nest, std::move(streams));
    }

  private:
    std::string name_;
    MakeFn make_;
};

template <typename MakeFn>
LocalityProviderFactory
providerFactory(std::string name, MakeFn make)
{
    return [name = std::move(name), make = std::move(make)] {
        return std::make_unique<SimpleProvider<MakeFn>>(name, make);
    };
}

} // namespace

LocalityRegistry::LocalityRegistry()
{
    add("cme", providerFactory("cme", [](const ir::LoopNest &nest,
                                         std::shared_ptr<StreamCache> s) {
            return std::make_unique<CmeAnalysis>(nest, CmeParams{},
                                                 std::move(s));
        }));
    add("oracle",
        providerFactory("oracle", [](const ir::LoopNest &nest,
                                     std::shared_ptr<StreamCache> s) {
            return std::make_unique<CacheOracle>(nest, std::move(s));
        }));
}

LocalityRegistry &
LocalityRegistry::instance()
{
    static LocalityRegistry registry;
    return registry;
}

void
LocalityRegistry::add(std::string name, LocalityProviderFactory factory)
{
    table_.add(std::move(name), std::move(factory));
}

bool
LocalityRegistry::has(const std::string &name) const
{
    return table_.has(name);
}

std::unique_ptr<LocalityProvider>
LocalityRegistry::create(const std::string &name) const
{
    return table_.get(name, "locality provider")();
}

std::unique_ptr<LocalityAnalysis>
LocalityRegistry::bind(const std::string &name, const ir::LoopNest &nest,
                       std::shared_ptr<StreamCache> streams) const
{
    return create(name)->bind(nest, std::move(streams));
}

std::vector<std::string>
LocalityRegistry::names() const
{
    return table_.names();
}

LoopLocality::LoopLocality(const ir::LoopNest &nest)
    : nest_(nest), streams_(std::make_shared<StreamCache>(nest))
{
}

LocalityAnalysis &
LoopLocality::get(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = bound_.find(name);
    if (it == bound_.end())
        it = bound_
                 .emplace(name, LocalityRegistry::instance().bind(
                                    name, nest_, streams_))
                 .first;
    return *it->second;
}

void
LoopLocality::forEach(
    const std::function<void(const std::string &,
                             const LocalityAnalysis &)> &fn) const
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto &[name, analysis] : bound_)
        fn(name, *analysis);
}

void
harvestMetrics(const std::vector<const LoopLocality *> &loops)
{
    if (!obs::metricsOn())
        return;
    std::int64_t streams_built = 0;
    std::int64_t stream_requests = 0;
    std::int64_t ratio_lookups = 0;
    std::int64_t ratio_solved = 0;
    std::int64_t points_evaluated = 0;
    for (const LoopLocality *loop : loops) {
        streams_built +=
            static_cast<std::int64_t>(loop->streams().streamsBuilt());
        stream_requests +=
            static_cast<std::int64_t>(loop->streams().streamRequests());
        loop->forEach([&](const std::string &,
                          const LocalityAnalysis &analysis) {
            if (const auto *cme =
                    dynamic_cast<const CmeAnalysis *>(&analysis)) {
                ratio_lookups +=
                    static_cast<std::int64_t>(cme->ratioLookups());
                ratio_solved +=
                    static_cast<std::int64_t>(cme->queriesSolved());
                points_evaluated +=
                    static_cast<std::int64_t>(cme->pointsEvaluated());
            }
        });
    }
    obs::MetricShard shard;
    shard.rtMax("cme.streams_built", streams_built);
    shard.rtMax("cme.stream_requests", stream_requests);
    shard.rtMax("cme.ratio_lookups", ratio_lookups);
    shard.rtMax("cme.ratio_queries_solved", ratio_solved);
    shard.rtMax("cme.points_evaluated", points_evaluated);
    obs::Registry::instance().fold(shard);
}

} // namespace mvp::cme
