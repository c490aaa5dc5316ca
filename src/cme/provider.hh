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
 * materialised access streams amortise across providers as well as
 * across queries. Out-of-tree code can register additional providers
 * through LocalityRegistry::add().
 */

#ifndef MVP_CME_PROVIDER_HH
#define MVP_CME_PROVIDER_HH

#include <functional>
#include <memory>
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

} // namespace mvp::cme

#endif // MVP_CME_PROVIDER_HH
