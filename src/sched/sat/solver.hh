/**
 * @file
 * Embedded CDCL SAT solver for the `sat` scheduling backend.
 *
 * A deliberately small, dependency-free conflict-driven clause-learning
 * engine in the MiniSat lineage: two-literal watching for unit
 * propagation, first-UIP conflict analysis with non-chronological
 * backjumping, VSIDS-style activity decay, Luby restarts, and
 * assumption-based incremental solving so successive II probes on the
 * same loop reuse the learned-clause database (each probe's encoding is
 * guarded by an activation literal; see encode.hh).
 *
 * Determinism contract: the solver contains no randomness and no
 * interleaving-dependent state. Decisions pick the unassigned variable
 * of maximum activity with ties broken toward the smaller variable
 * index, phases are saved (initially false — the scheduling encoding
 * is sparse, so "false" is almost always the satisfying polarity), and
 * clause/watch orders depend only on the call sequence. Two solves of
 * the same formula therefore take the same path and return the same
 * model on every machine and at any `--jobs`, *unless* a wall-clock
 * budget fires first — exactly the caveat the exact B&B documents for
 * its own wall-clock budget.
 *
 * Budgets are polled on the propagation path: every PROPAGATION_SLICE
 * enqueued implications the solver checks the deadline and the
 * conflict cap, so a stuck probe notices its budget within
 * microseconds without paying a clock read per propagation.
 */

#ifndef MVP_SCHED_SAT_SOLVER_HH
#define MVP_SCHED_SAT_SOLVER_HH

#include <chrono>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace mvp::sched::sat
{

/** Variable index (0-based). */
using Var = std::int32_t;

/** Literal: variable with sign, encoded as 2*var + (negated ? 1 : 0). */
struct Lit
{
    std::int32_t x = -2;

    bool operator==(const Lit &o) const { return x == o.x; }
    bool operator!=(const Lit &o) const { return x != o.x; }
};

constexpr Lit LIT_UNDEF{-2};

inline Lit
mkLit(Var v, bool neg = false)
{
    return Lit{2 * v + (neg ? 1 : 0)};
}

inline Lit
operator~(Lit l)
{
    return Lit{l.x ^ 1};
}

inline Var
var(Lit l)
{
    return l.x >> 1;
}

inline bool
sign(Lit l)
{
    return (l.x & 1) != 0;
}

/** Tri-state assignment value. */
enum class LBool : std::uint8_t { False = 0, True = 1, Undef = 2 };

/** Outcome of a solve() call. */
enum class SolveResult
{
    Sat,     ///< model found (read it with modelValue())
    Unsat,   ///< refuted under the given assumptions
    Unknown, ///< a budget (deadline/conflict cap) fired first
};

/** Cumulative work counters (monotone across solve() calls). */
struct SolverStats
{
    std::int64_t conflicts = 0;    ///< conflicts analysed
    std::int64_t propagations = 0; ///< literals enqueued by propagation
    std::int64_t decisions = 0;    ///< branching decisions
    std::int64_t learned = 0;      ///< clauses learned (kept forever)
    std::int64_t learnedLits = 0;  ///< total literals across learned
    std::int64_t restarts = 0;     ///< Luby restarts taken
};

/**
 * The solver. Usage: newVar()/addClause() to build, solve() to run,
 * modelValue() to read a model, addClause() again between solves for
 * incremental refinement (blocking clauses, next II probe's encoding).
 */
class Solver
{
  public:
    Solver();

    /** @name Problem construction */
    /// @{
    /** Allocate and return a fresh variable. */
    Var newVar();

    int nVars() const { return static_cast<int>(assigns_.size()); }

    /**
     * Add a clause (may be called between solve()s; the trail is
     * rewound to the root level first). Returns false when the clause
     * makes the formula unsatisfiable at the root — the solver is then
     * permanently UNSAT (okay() == false).
     */
    bool addClause(const std::vector<Lit> &lits);

    /** False once root-level UNSAT has been derived. */
    bool okay() const { return ok_; }
    /// @}

    /** @name Budgets (checked every PROPAGATION_SLICE propagations) */
    /// @{
    /** Wall-clock deadline; disabled by default. */
    void setDeadline(std::chrono::steady_clock::time_point deadline)
    {
        deadline_ = deadline;
        deadline_on_ = true;
    }

    /**
     * Deterministic conflict cap for this and subsequent solve()s;
     * 0 = uncapped. Counted per solve() call, so each II probe gets
     * the full allowance (mirrors the B&B's per-attempt node budget).
     */
    void setConflictBudget(std::int64_t max_conflicts)
    {
        conflict_budget_ = max_conflicts;
    }
    /// @}

    /**
     * Solve under @p assumptions (decided first, in order, before any
     * activity-driven branching). Unknown means a budget fired; the
     * formula and learned clauses remain valid for another try.
     */
    SolveResult solve(const std::vector<Lit> &assumptions);

    SolveResult solve() { return solve({}); }

    /** Model polarity of @p v after solve() returned Sat. */
    bool modelValue(Var v) const
    {
        return model_[static_cast<std::size_t>(v)] == LBool::True;
    }

    /**
     * After solve() returned Unsat under assumptions: the subset of
     * the assumptions implicated in the refutation (an unsat core over
     * the assumption set; empty when the formula is UNSAT outright).
     */
    const std::vector<Lit> &conflictCore() const { return conflict_core_; }

    const SolverStats &stats() const { return stats_; }

    /** True when the last solve() aborted on a budget (telemetry). */
    bool budgetHit() const { return budget_hit_; }

  private:
    using CRef = std::uint32_t;
    static constexpr CRef CREF_UNDEF = 0xffffffffu;
    static constexpr int PROPAGATION_SLICE = 2048;

    struct Watch
    {
        CRef cref;
        Lit blocker; ///< satisfied => skip the clause without touching it
    };

    struct VarOrderLt
    {
        const std::vector<double> &act;
        bool operator()(Var a, Var b) const
        {
            const double aa = act[static_cast<std::size_t>(a)];
            const double ab = act[static_cast<std::size_t>(b)];
            if (aa != ab)
                return aa > ab;
            return a < b; ///< deterministic tie-break: smaller index wins
        }
    };

    // Clause arena accessors: a clause is [header][lit 0..size-1] in
    // arena_, header = size << 1 | learnt.
    std::int32_t clauseSize(CRef c) const { return arena_[c] >> 1; }
    Lit *clauseLits(CRef c) { return reinterpret_cast<Lit *>(&arena_[c + 1]); }
    const Lit *clauseLits(CRef c) const
    {
        return reinterpret_cast<const Lit *>(&arena_[c + 1]);
    }

    LBool value(Lit l) const
    {
        const LBool v = assigns_[static_cast<std::size_t>(var(l))];
        if (v == LBool::Undef)
            return LBool::Undef;
        return (v == LBool::True) != sign(l) ? LBool::True : LBool::False;
    }

    int level(Var v) const { return level_[static_cast<std::size_t>(v)]; }

    CRef allocClause(const std::vector<Lit> &lits, bool learnt);
    void attachClause(CRef c);
    void uncheckedEnqueue(Lit l, CRef reason);
    CRef propagate();
    void analyze(CRef conflict, std::vector<Lit> &out_learnt,
                 int &out_btlevel);
    void analyzeFinal(Lit p, std::vector<Lit> &out_core);
    void cancelUntil(int lvl);
    Lit pickBranchLit();
    void varBumpActivity(Var v);
    void varDecayActivity() { var_inc_ /= VAR_DECAY; }
    void insertVarOrder(Var v);
    void heapDecreaseKey(int pos);
    Var heapRemoveMin();
    bool heapEmpty() const { return heap_.empty(); }
    bool budgetExceeded(std::int64_t conflicts_at_entry);

    static constexpr double VAR_DECAY = 0.95;
    static constexpr double ACT_RESCALE = 1e100;

    bool ok_ = true;
    std::vector<std::int32_t> arena_;
    std::vector<std::vector<Watch>> watches_; ///< indexed by Lit.x
    std::vector<LBool> assigns_;              ///< by var
    std::vector<LBool> model_;                ///< by var (last Sat solve)
    std::vector<char> polarity_;              ///< saved phase, by var
    std::vector<int> level_;                  ///< by var
    std::vector<CRef> reason_;                ///< by var
    std::vector<double> activity_;            ///< by var
    std::vector<Lit> trail_;
    std::vector<int> trail_lim_;
    std::size_t qhead_ = 0;
    double var_inc_ = 1.0;

    // Binary heap over vars keyed by (activity desc, index asc).
    std::vector<Var> heap_;
    std::vector<int> heap_pos_; ///< by var; -1 = not in heap

    std::vector<char> seen_; ///< by var, scratch for analyze()
    std::vector<Var> analyze_clear_; ///< vars marked in seen_ this call
    std::vector<Lit> conflict_core_;

    bool deadline_on_ = false;
    std::chrono::steady_clock::time_point deadline_{};
    std::int64_t conflict_budget_ = 0;
    std::int64_t slice_mark_ = 0; ///< propagation count at last poll
    bool budget_hit_ = false;

    SolverStats stats_;
};

} // namespace mvp::sched::sat

#endif // MVP_SCHED_SAT_SOLVER_HH
