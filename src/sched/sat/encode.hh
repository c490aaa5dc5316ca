/**
 * @file
 * CNF encoding of one fixed-II clustered modulo-scheduling attempt.
 *
 * The encoding deliberately mirrors the *enumerated placement space* of
 * the exact branch-and-bound (exact/bnb.cc), not merely the checker's
 * legality predicate, so the two engines certify identical IIs:
 *
 *  - op times are order-encoded (O[v,j] <=> t_v <= j) over static
 *    window hulls derived from the same rules the B&B applies per
 *    node: the first op in placement order is anchored at cycle 0
 *    (shift invariance), ops with placed predecessors get an ascending
 *    window of width II above their dependence-ready cycle, ops with
 *    only placed successors get a descending window of width II below
 *    their consumption budget, isolated ops get [0, II-1];
 *  - the width-II window caps — dynamic in the B&B because they hang
 *    off the neighbours' actual placements — become per-edge
 *    disjunctions ("some neighbour's bound admits t_v");
 *  - cluster choice is one-hot with the B&B's prefix-population
 *    symmetry break (an op may only open cluster c when clusters
 *    0..c-1 already hold an earlier op);
 *  - each (producer, destination-cluster) pair gets one shared
 *    order-encoded transfer start, constrained exactly like
 *    Window::book() (sched/window.hh): start >= producer ready,
 *    width-II booking window, arrival before every remote reader's
 *    budget;
 *  - per-cluster FU capacity and per-slot bus capacity are
 *    sequential-counter (Sinz) at-most-k cardinalities over
 *    modulo-slot indicator variables, plus, at bus latency L >= 2, an
 *    at-most nRegBuses * floor(II / L) over the transfers (a bus holds
 *    that many disjoint L-slot arcs mod II).
 *
 * Register pressure is lazy and exact: refinePressure(c, s) cuts a
 * slot a decoded model over-subscribed, counting each lifetime once
 * per stage it spans exactly like lifetimes.cc, so a cut admits every
 * schedule the checker accepts and is never violated again. The bus
 * cardinalities stay under-approximations (arc colourability), so a
 * decoded model is re-validated by ModuloSchedule::validate(); the
 * backend blocks any model the checker still rejects and re-solves.
 * Refutations need no such care: every B&B-reachable placement
 * satisfies the encoding and every cut, so UNSAT certifies the II
 * exactly as a B&B exhaustion does (relative to the enumerated
 * placement space — the same caveat bnb.hh documents).
 *
 * All clauses carry the negated activation literal of this attempt, so
 * one incremental Solver hosts successive II probes of a loop: probing
 * II=k solves under assumption {activation(k)}, a refuted probe is
 * retired with the unit ~activation(k), and learned clauses carry over.
 */

#ifndef MVP_SCHED_SAT_ENCODE_HH
#define MVP_SCHED_SAT_ENCODE_HH

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "common/types.hh"
#include "ddg/ddg.hh"
#include "machine/machine.hh"
#include "sched/sat/solver.hh"
#include "sched/schedule.hh"

namespace mvp::sched::sat
{

/**
 * The buffers an IiEncoding fills: the attempt's variable layout plus
 * the emitters' temporaries. The caller keeps one (SchedContext) so
 * successive probes and searches reuse its capacity; build() rewrites
 * everything it reads, so nothing carries over between attempts.
 */
struct EncodeScratch
{
    /** Order-encoded time window of one op. */
    struct OpVars
    {
        Cycle lo = 0;
        Cycle hi = 0;  ///< inclusive; O vars span [lo, hi-1]
        Var o0 = -1;   ///< first O var (j = lo); -1 when hi == lo
        Var k0 = -1;   ///< first cluster var (multi-cluster only)
        Var s0 = -1;   ///< first modulo-slot var (FU counting; lazy)
        Var b0 = -1;   ///< first (cluster x slot) var (lazy)
    };

    /** One potential transfer: producer u's value into cluster d. */
    struct CommVars
    {
        OpId u = INVALID_ID;
        ClusterId d = INVALID_ID;
        Cycle xlo = 0;
        Cycle xhi = -1; ///< inclusive; empty range = transfer impossible
        Var p0 = -1;    ///< order vars for the start, span [xlo, xhi-1]
        Var e = -1;     ///< "this transfer exists"
        Var u0 = -1;    ///< bus-occupancy indicators, one per slot (lazy)
    };

    std::vector<OpVars> ops;    ///< by OpId
    std::vector<int> pos;       ///< by OpId: position in the order
    std::vector<CommVars> comms;
    std::vector<int> pairOf;    ///< [op*nc + d] -> comms index or -1
    std::vector<bool> cut;      ///< [cluster*II + slot]: pressure cut
    std::vector<Lit> clause;    ///< the clause being emitted
    std::vector<Lit> lits;      ///< a clause's literals, or selectors
    std::vector<Lit> xs;        ///< an at-most-k's inputs
    std::vector<Var> prev, cur; ///< the sequential counter's columns
    std::vector<int> ins, outs; ///< a window cap's edges
    std::vector<OpId> members;  ///< the ops of one FU type
    std::vector<ClusterId> cluster; ///< a model's clusters, by OpId
};

/**
 * Builder/decoder for one (loop, machine, II) attempt. Construct, call
 * build() once, then solve under {activation()}; decode() models,
 * refinePressure() over-subscribed register files and blockModel()
 * whatever else the checker rejects.
 */
class IiEncoding
{
  public:
    enum class Status
    {
        Ok,         ///< encoding emitted; solve under {activation()}
        Infeasible, ///< statically refuted (empty window hull): the II
                    ///< is certified infeasible without solving
        TooLarge,   ///< variable budget exceeded; treat as "unknown"
    };

    /** The attempt's state lives in @p scratch, which must outlive
     * this object and serve no other attempt meanwhile. */
    IiEncoding(const ddg::Ddg &graph, const MachineConfig &machine,
               const std::vector<OpId> &order, Cycle ii,
               EncodeScratch &scratch);

    /** Emit the encoding into @p s (allocates the activation var). */
    Status build(Solver &s);

    /** Assumption literal activating this attempt's clauses. */
    Lit activation() const { return act_; }

    /**
     * Decode the current model into @p out (placements, transfers with
     * earliest-fit bus assignment, times normalised to >= 0). Returns
     * false when no bus assignment exists for the decoded transfer
     * starts — a model the caller must blockModel() and re-solve.
     */
    bool decode(const Solver &s, ModuloSchedule &out) const;

    /**
     * Add a clause excluding the current model's decoded placement
     * (op times, clusters, live transfer starts — the projection
     * decode() depends on, so every assignment decoding to the same
     * rejected schedule dies with it).
     */
    void blockModel(Solver &s);

    /**
     * Add the exact cut "at most regsPerCluster values live in cluster
     * @p c at slot @p slot", counted like computeLifetimes(). Returns
     * false, adding nothing, when that pair is already cut.
     */
    bool refinePressure(Solver &s, ClusterId c, Cycle slot);

  private:
    using OpVars = EncodeScratch::OpVars;
    using CommVars = EncodeScratch::CommVars;

    // Sentinels threaded through clause construction: lit() drops
    // FALSE literals and suppresses clauses containing TRUE ones.
    static constexpr Lit TRUE_LIT{-4};
    static constexpr Lit FALSE_LIT{-6};
    static Lit neg(Lit l);

    Lit ole(OpId v, Cycle j) const;  ///< literal for t_v <= j
    Lit ple(int pair, Cycle j) const; ///< literal for x_pair <= j
    Lit klit(OpId v, ClusterId c) const; ///< literal for cluster(v)==c
    int pairOf(OpId u, ClusterId d) const; ///< comms_ index or -1
    /** Whether placement @p cluster must ship u's value into d. */
    bool readIn(OpId u, ClusterId d,
                const std::vector<ClusterId> &cluster) const;

    /** Emit the clause guarded by ~activation(): TRUE_LIT drops it,
     * FALSE_LIT literals drop out. */
    void clause(Solver &s, std::span<const Lit> ls);
    void clause(Solver &s, std::initializer_list<Lit> ls)
    {
        clause(s, std::span(ls.begin(), ls.size()));
    }

    /** Guarded at-most-k (Sinz sequential counter) over plain lits. */
    void atMostK(Solver &s, const std::vector<Lit> &xs, int k);

    bool computeWindows();
    void emitTimeChains(Solver &s);
    void emitClusterConstraints(Solver &s);
    void emitCommStructure(Solver &s);
    void emitDependences(Solver &s);
    void emitWindowCaps(Solver &s);
    void emitFuCapacity(Solver &s);
    void emitBusCapacity(Solver &s);

    Cycle modSlot(Cycle a) const;
    Cycle modelTime(const Solver &s, OpId v) const;
    ClusterId modelCluster(const Solver &s, OpId v) const;
    Cycle modelStart(const Solver &s, int pair) const;

    const ddg::Ddg &graph_;
    const MachineConfig &machine_;
    const std::vector<OpId> &order_;
    const Cycle ii_;
    const Cycle lrb_;
    const int nc_;
    const std::size_t n_;

    Lit act_ = LIT_UNDEF;
    // The caller's buffers; the references below name the attempt's
    // variable layout inside them.
    EncodeScratch &sc_;
    std::vector<OpVars> &ops_;
    std::vector<int> &pos_;
    std::vector<CommVars> &comms_;
    std::vector<int> &pair_of_;
    std::vector<bool> &cut_;
};

} // namespace mvp::sched::sat

#endif // MVP_SCHED_SAT_ENCODE_HH
