/**
 * @file
 * The locality-analysis interface the RMCA scheduler consumes.
 *
 * The paper uses the Cache Miss Equations to obtain exactly two
 * statistics (§4.2):
 *  1. the number of misses incurred by a *set* of memory references that
 *     share one cache of a given geometry, and
 *  2. the miss ratio of one instruction within that set.
 *
 * Implementations: CmeAnalysis (sampling solver, the paper's choice),
 * CacheOracle (exact trace simulation, used to validate the solver and
 * available as a drop-in alternative) — both selectable by name
 * through the LocalityRegistry (cme/provider.hh) and both drawing
 * their access streams from a shared per-loop StreamCache
 * (cme/stream.hh).
 */

#ifndef MVP_CME_LOCALITY_HH
#define MVP_CME_LOCALITY_HH

#include <functional>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "ir/loop.hh"
#include "machine/machine.hh"

namespace mvp::cme
{

/**
 * Locality statistics provider for one loop nest.
 *
 * A "set" is the list of memory operations currently assigned to one
 * cluster; the geometry is that cluster's cache. Implementations may
 * memoise internally: the scheduler queries the same sets repeatedly as
 * it explores candidate clusters.
 */
class LocalityAnalysis
{
  public:
    virtual ~LocalityAnalysis() = default;

    /** The loop nest this analysis is bound to. */
    virtual const ir::LoopNest &loop() const = 0;

    /**
     * Expected cache misses per innermost-loop iteration generated by
     * the memory operations in @p set sharing one cache of geometry
     * @p geom.
     */
    virtual double missesPerIteration(const std::vector<OpId> &set,
                                      const CacheGeom &geom) = 0;

    /**
     * Miss ratio of @p op when it runs together with the operations in
     * @p set (op itself is considered part of the set whether or not it
     * appears in the vector).
     */
    virtual double missRatio(const std::vector<OpId> &set, OpId op,
                             const CacheGeom &geom) = 0;
};

/** Factory signature: bind an analysis to a loop nest. */
using LocalityFactory =
    std::function<std::unique_ptr<LocalityAnalysis>(const ir::LoopNest &)>;

} // namespace mvp::cme

#endif // MVP_CME_LOCALITY_HH
