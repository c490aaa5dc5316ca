/**
 * @file
 * Pluggable locality providers.
 *
 * The locality analogue of sched/backend.hh: a LocalityProvider binds a
 * LocalityAnalysis to a loop nest, and the registry maps stable string
 * names to providers so the harness, benches, examples and tests select
 * the analysis by name instead of hard-wiring concrete types. Built-in
 * providers:
 *
 *  - "cme"     the sampling CME solver (the paper's choice and the
 *              default everywhere);
 *  - "oracle"  the exact trace-driven oracle (incremental simulation).
 *
 * Every provider bound to one nest can share one StreamCache, so the
 * built access streams amortise across providers as well as
 * across queries. LoopLocality is the one place a loop's shared
 * analyses are bound: each name at most once, on first use, all on
 * the loop's one StreamCache. Out-of-tree code can register additional
 * providers through LocalityRegistry::add().
 */

#ifndef MVP_CME_PROVIDER_HH
#define MVP_CME_PROVIDER_HH

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cme/locality.hh"
#include "cme/stream.hh"
#include "common/registry.hh"

namespace mvp::cme
{

/** One locality engine behind a stable name. */
class LocalityProvider
{
  public:
    virtual ~LocalityProvider() = default;

    /** The registry name this provider was created under. */
    virtual std::string_view name() const = 0;

    /**
     * Bind an analysis to @p nest, drawing access streams from
     * @p streams (the provider creates a private cache when null).
     * The returned analysis is thread-safe and deterministic under
     * concurrency, like every analysis in this layer.
     */
    virtual std::unique_ptr<LocalityAnalysis>
    bind(const ir::LoopNest &nest,
         std::shared_ptr<StreamCache> streams = nullptr) const = 0;
};

/** Factory of one provider kind. */
using LocalityProviderFactory =
    std::function<std::unique_ptr<LocalityProvider>()>;

/**
 * Name -> provider registry. The built-in providers are registered on
 * first access; add() extends it at runtime.
 */
class LocalityRegistry
{
  public:
    /** The process-wide registry (built-ins pre-registered). */
    static LocalityRegistry &instance();

    /** Register (or replace) a provider under @p name. */
    void add(std::string name, LocalityProviderFactory factory);

    /** True when @p name is registered. */
    bool has(const std::string &name) const;

    /** Instantiate @p name; fatal() on unknown names. */
    std::unique_ptr<LocalityProvider> create(
        const std::string &name) const;

    /**
     * Convenience: create @p name and bind it to @p nest in one step.
     */
    std::unique_ptr<LocalityAnalysis>
    bind(const std::string &name, const ir::LoopNest &nest,
         std::shared_ptr<StreamCache> streams = nullptr) const;

    /** All registered names, sorted. */
    std::vector<std::string> names() const;

  private:
    LocalityRegistry();

    NamedFactoryTable<LocalityProviderFactory> table_;
};

/**
 * The locality analyses of one loop nest, one per provider name, all
 * drawing from the loop's one StreamCache. get() binds a name on first
 * use under the holder's own mutex, so any number of threads may ask
 * at once; every later call returns the same analysis, whose warm memo
 * then serves every run of the loop.
 */
class LoopLocality
{
  public:
    /** @p nest must outlive the holder at a stable address. */
    explicit LoopLocality(const ir::LoopNest &nest);

    /**
     * The analysis bound under provider @p name, bound on the first
     * call. The reference stays valid for the holder's lifetime.
     * fatal() on unknown names, binding nothing.
     */
    LocalityAnalysis &get(const std::string &name);

    /** Visit every bound analysis, in name order, under the lock. */
    void forEach(const std::function<void(const std::string &,
                                          const LocalityAnalysis &)> &fn)
        const;

    /** The access-stream cache every analysis of the loop shares. */
    const StreamCache &streams() const { return *streams_; }

  private:
    const ir::LoopNest &nest_;
    const std::shared_ptr<StreamCache> streams_;
    mutable std::mutex mu_;   ///< guards bound_
    std::map<std::string, std::unique_ptr<LocalityAnalysis>> bound_;
};

} // namespace mvp::cme

#endif // MVP_CME_PROVIDER_HH
