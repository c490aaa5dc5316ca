#include "sched/sat/solver.hh"

#include <algorithm>

#include "common/logging.hh"

namespace mvp::sched::sat
{

namespace
{

/**
 * Luby restart sequence (1, 1, 2, 1, 1, 2, 4, ...), the standard
 * universal strategy: scaled by a base conflict allowance per run.
 */
std::int64_t
luby(std::int64_t i)
{
    // Find the finite subsequence containing index i, then reduce i
    // modulo the subsequence prefix until it lands on a power.
    std::int64_t size = 1, seq = 0;
    while (size < i + 1) {
        ++seq;
        size = 2 * size + 1;
    }
    while (size - 1 != i) {
        size = (size - 1) / 2;
        --seq;
        i %= size;
    }
    return 1ll << seq;
}

constexpr std::int64_t RESTART_BASE = 128;

} // namespace

Solver::Solver() = default;

Var
Solver::newVar()
{
    const Var v = static_cast<Var>(assigns_.size());
    assigns_.push_back(LBool::Undef);
    model_.push_back(LBool::Undef);
    polarity_.push_back(1); // saved phase starts at "false"
    level_.push_back(0);
    reason_.push_back(CREF_UNDEF);
    activity_.push_back(0.0);
    heap_pos_.push_back(-1);
    seen_.push_back(0);
    watches_.emplace_back();
    watches_.emplace_back();
    insertVarOrder(v);
    return v;
}

Solver::CRef
Solver::allocClause(const std::vector<Lit> &lits, bool learnt)
{
    const CRef c = static_cast<CRef>(arena_.size());
    arena_.push_back(static_cast<std::int32_t>(lits.size()) << 1 |
                     (learnt ? 1 : 0));
    for (const Lit l : lits)
        arena_.push_back(l.x);
    return c;
}

void
Solver::attachClause(CRef c)
{
    const Lit *lits = clauseLits(c);
    mvp_assert(clauseSize(c) >= 2, "attaching a short clause");
    watches_[static_cast<std::size_t>((~lits[0]).x)].push_back(
        {c, lits[1]});
    watches_[static_cast<std::size_t>((~lits[1]).x)].push_back(
        {c, lits[0]});
}

bool
Solver::addClause(const std::vector<Lit> &lits)
{
    if (!ok_)
        return false;
    cancelUntil(0);

    // Sort/dedup; drop clauses satisfied at the root, drop root-false
    // literals.
    std::vector<Lit> cl(lits);
    std::sort(cl.begin(), cl.end(),
              [](Lit a, Lit b) { return a.x < b.x; });
    std::vector<Lit> out;
    out.reserve(cl.size());
    Lit prev = LIT_UNDEF;
    for (const Lit l : cl) {
        mvp_assert(var(l) >= 0 && var(l) < nVars(),
                   "literal over unallocated variable");
        if (l == prev)
            continue;
        if (l == ~prev || value(l) == LBool::True)
            return true; // tautology or already satisfied
        if (value(l) != LBool::False)
            out.push_back(l);
        prev = l;
    }

    if (out.empty()) {
        ok_ = false;
        return false;
    }
    if (out.size() == 1) {
        uncheckedEnqueue(out[0], CREF_UNDEF);
        if (propagate() != CREF_UNDEF)
            ok_ = false;
        return ok_;
    }
    attachClause(allocClause(out, false));
    return true;
}

void
Solver::uncheckedEnqueue(Lit l, CRef reason)
{
    const auto v = static_cast<std::size_t>(var(l));
    mvp_assert(assigns_[v] == LBool::Undef, "enqueue over assignment");
    assigns_[v] = sign(l) ? LBool::False : LBool::True;
    level_[v] = static_cast<int>(trail_lim_.size());
    reason_[v] = reason;
    trail_.push_back(l);
}

Solver::CRef
Solver::propagate()
{
    CRef conflict = CREF_UNDEF;
    while (qhead_ < trail_.size()) {
        const Lit p = trail_[qhead_++];
        ++stats_.propagations;
        auto &ws = watches_[static_cast<std::size_t>(p.x)];
        std::size_t i = 0, j = 0;
        const std::size_t n = ws.size();
        while (i < n) {
            const Watch w = ws[i++];
            // Blocker satisfied: clause satisfied, watch stays.
            if (value(w.blocker) == LBool::True) {
                ws[j++] = w;
                continue;
            }
            const CRef c = w.cref;
            Lit *lits = clauseLits(c);
            const std::int32_t size = clauseSize(c);
            // Normalise so lits[1] is the falsified watcher (~p).
            const Lit false_lit = ~p;
            if (lits[0] == false_lit)
                std::swap(lits[0], lits[1]);
            mvp_assert(lits[1] == false_lit, "watch desynchronised");
            // First watcher satisfied: keep watching.
            if (value(lits[0]) == LBool::True) {
                ws[j++] = {c, lits[0]};
                continue;
            }
            // Find a new literal to watch.
            bool moved = false;
            for (std::int32_t k = 2; k < size; ++k) {
                if (value(lits[k]) != LBool::False) {
                    std::swap(lits[1], lits[k]);
                    watches_[static_cast<std::size_t>((~lits[1]).x)]
                        .push_back({c, lits[0]});
                    moved = true;
                    break;
                }
            }
            if (moved)
                continue;
            // Unit or conflicting.
            ws[j++] = {c, lits[0]};
            if (value(lits[0]) == LBool::False) {
                conflict = c;
                qhead_ = trail_.size();
                while (i < n)
                    ws[j++] = ws[i++];
                break;
            }
            uncheckedEnqueue(lits[0], c);
        }
        ws.resize(j);
        if (conflict != CREF_UNDEF)
            break;
    }
    return conflict;
}

void
Solver::varBumpActivity(Var v)
{
    auto &a = activity_[static_cast<std::size_t>(v)];
    a += var_inc_;
    if (a > ACT_RESCALE) {
        for (double &x : activity_)
            x *= 1.0 / ACT_RESCALE;
        var_inc_ *= 1.0 / ACT_RESCALE;
    }
    const int pos = heap_pos_[static_cast<std::size_t>(v)];
    if (pos >= 0)
        heapDecreaseKey(pos);
}

void
Solver::insertVarOrder(Var v)
{
    if (heap_pos_[static_cast<std::size_t>(v)] >= 0)
        return;
    heap_.push_back(v);
    heap_pos_[static_cast<std::size_t>(v)] =
        static_cast<int>(heap_.size()) - 1;
    heapDecreaseKey(static_cast<int>(heap_.size()) - 1);
}

void
Solver::heapDecreaseKey(int pos)
{
    const VarOrderLt lt{activity_};
    const Var v = heap_[static_cast<std::size_t>(pos)];
    while (pos > 0) {
        const int parent = (pos - 1) / 2;
        const Var pv = heap_[static_cast<std::size_t>(parent)];
        if (!lt(v, pv))
            break;
        heap_[static_cast<std::size_t>(pos)] = pv;
        heap_pos_[static_cast<std::size_t>(pv)] = pos;
        pos = parent;
    }
    heap_[static_cast<std::size_t>(pos)] = v;
    heap_pos_[static_cast<std::size_t>(v)] = pos;
}

Var
Solver::heapRemoveMin()
{
    const VarOrderLt lt{activity_};
    const Var top = heap_[0];
    heap_pos_[static_cast<std::size_t>(top)] = -1;
    const Var last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
        // Sift the relocated last element down from the root.
        int pos = 0;
        const int n = static_cast<int>(heap_.size());
        for (;;) {
            int child = 2 * pos + 1;
            if (child >= n)
                break;
            if (child + 1 < n &&
                lt(heap_[static_cast<std::size_t>(child + 1)],
                   heap_[static_cast<std::size_t>(child)]))
                ++child;
            if (!lt(heap_[static_cast<std::size_t>(child)], last))
                break;
            heap_[static_cast<std::size_t>(pos)] =
                heap_[static_cast<std::size_t>(child)];
            heap_pos_[static_cast<std::size_t>(
                heap_[static_cast<std::size_t>(pos)])] = pos;
            pos = child;
        }
        heap_[static_cast<std::size_t>(pos)] = last;
        heap_pos_[static_cast<std::size_t>(last)] = pos;
    }
    return top;
}

Lit
Solver::pickBranchLit()
{
    while (!heapEmpty()) {
        const Var v = heapRemoveMin();
        if (assigns_[static_cast<std::size_t>(v)] == LBool::Undef)
            return mkLit(v, polarity_[static_cast<std::size_t>(v)] != 0);
    }
    return LIT_UNDEF;
}

void
Solver::cancelUntil(int lvl)
{
    if (static_cast<int>(trail_lim_.size()) <= lvl)
        return;
    const std::size_t bound =
        static_cast<std::size_t>(trail_lim_[static_cast<std::size_t>(lvl)]);
    for (std::size_t i = trail_.size(); i > bound; --i) {
        const Lit l = trail_[i - 1];
        const auto v = static_cast<std::size_t>(var(l));
        polarity_[v] = sign(l) ? 1 : 0; // phase saving
        assigns_[v] = LBool::Undef;
        reason_[v] = CREF_UNDEF;
        insertVarOrder(var(l));
    }
    trail_.resize(bound);
    trail_lim_.resize(static_cast<std::size_t>(lvl));
    qhead_ = trail_.size();
}

/**
 * First-UIP conflict analysis: resolve the conflict clause backwards
 * along the trail until exactly one literal of the conflicting level
 * remains; the learned clause asserts that literal after backjumping
 * to the second-highest level it mentions.
 */
void
Solver::analyze(CRef conflict, std::vector<Lit> &out_learnt,
                int &out_btlevel)
{
    out_learnt.clear();
    out_learnt.push_back(LIT_UNDEF); // slot for the asserting literal
    const int current = static_cast<int>(trail_lim_.size());

    int counter = 0;
    Lit p = LIT_UNDEF;
    std::size_t index = trail_.size();
    CRef reason = conflict;

    do {
        mvp_assert(reason != CREF_UNDEF, "resolving without a reason");
        const Lit *lits = clauseLits(reason);
        const std::int32_t size = clauseSize(reason);
        // Skip lits[0] when it is the literal being resolved on.
        for (std::int32_t k = (p == LIT_UNDEF) ? 0 : 1; k < size; ++k) {
            const Lit q = lits[k];
            const auto v = static_cast<std::size_t>(var(q));
            if (seen_[v] || level(var(q)) == 0)
                continue;
            seen_[v] = 1;
            analyze_clear_.push_back(var(q));
            varBumpActivity(var(q));
            if (level(var(q)) >= current)
                ++counter;
            else
                out_learnt.push_back(q);
        }
        // Walk to the next marked literal on the trail.
        while (!seen_[static_cast<std::size_t>(var(trail_[index - 1]))])
            --index;
        --index;
        p = trail_[index];
        reason = reason_[static_cast<std::size_t>(var(p))];
        seen_[static_cast<std::size_t>(var(p))] = 0;
        --counter;
    } while (counter > 0);
    out_learnt[0] = ~p;

    // Cheap minimisation: drop literals whose reason clause is fully
    // subsumed by the rest of the learned clause.
    std::size_t keep = 1;
    for (std::size_t i = 1; i < out_learnt.size(); ++i) {
        const Lit q = out_learnt[i];
        const CRef r = reason_[static_cast<std::size_t>(var(q))];
        bool redundant = false;
        if (r != CREF_UNDEF) {
            redundant = true;
            const Lit *lits = clauseLits(r);
            const std::int32_t size = clauseSize(r);
            for (std::int32_t k = 1; k < size; ++k) {
                const auto v = static_cast<std::size_t>(var(lits[k]));
                if (!seen_[v] && level(var(lits[k])) > 0) {
                    redundant = false;
                    break;
                }
            }
        }
        if (!redundant)
            out_learnt[keep++] = q;
    }
    out_learnt.resize(keep);

    // Backjump level: highest level among the non-asserting literals.
    out_btlevel = 0;
    std::size_t max_i = 1;
    for (std::size_t i = 1; i < out_learnt.size(); ++i)
        if (level(var(out_learnt[i])) >
            level(var(out_learnt[max_i])))
            max_i = i;
    if (out_learnt.size() > 1) {
        std::swap(out_learnt[1], out_learnt[max_i]);
        out_btlevel = level(var(out_learnt[1]));
    }

    // Clear every mark made above — including literals the
    // minimisation dropped from the clause (a mark that survives this
    // call would make the next analyze() skip its variable and learn
    // an unsound clause).
    for (const Var v : analyze_clear_)
        seen_[static_cast<std::size_t>(v)] = 0;
    analyze_clear_.clear();
}

/**
 * The refutation touched assumption literal @p p (it would have to be
 * flipped): walk its implication ancestry back to the assumptions to
 * extract the core.
 */
void
Solver::analyzeFinal(Lit p, std::vector<Lit> &out_core)
{
    out_core.clear();
    out_core.push_back(~p); // the failing assumption itself
    if (trail_lim_.empty())
        return;

    seen_[static_cast<std::size_t>(var(p))] = 1;
    const std::size_t root =
        static_cast<std::size_t>(trail_lim_[0]);
    for (std::size_t i = trail_.size(); i > root; --i) {
        const Var v = var(trail_[i - 1]);
        if (!seen_[static_cast<std::size_t>(v)])
            continue;
        const CRef r = reason_[static_cast<std::size_t>(v)];
        if (r == CREF_UNDEF) {
            // A decision below the failure point is an assumption.
            if (level(v) > 0 && trail_[i - 1] != ~p)
                out_core.push_back(trail_[i - 1]);
        } else {
            const Lit *lits = clauseLits(r);
            const std::int32_t size = clauseSize(r);
            for (std::int32_t k = 1; k < size; ++k)
                if (level(var(lits[k])) > 0)
                    seen_[static_cast<std::size_t>(var(lits[k]))] = 1;
        }
        seen_[static_cast<std::size_t>(v)] = 0;
    }
    seen_[static_cast<std::size_t>(var(p))] = 0;
}

bool
Solver::budgetExceeded(std::int64_t conflicts_at_entry)
{
    if (conflict_budget_ > 0 &&
        stats_.conflicts - conflicts_at_entry >= conflict_budget_)
        return true;
    if (stats_.propagations - slice_mark_ < PROPAGATION_SLICE)
        return false;
    slice_mark_ = stats_.propagations;
    return deadline_on_ &&
           std::chrono::steady_clock::now() >= deadline_;
}

SolveResult
Solver::solve(const std::vector<Lit> &assumptions)
{
    conflict_core_.clear();
    budget_hit_ = false;
    if (!ok_)
        return SolveResult::Unsat;
    cancelUntil(0);
    if (propagate() != CREF_UNDEF) {
        ok_ = false;
        return SolveResult::Unsat;
    }

    const std::int64_t conflicts_at_entry = stats_.conflicts;
    std::int64_t restart_limit =
        RESTART_BASE * luby(stats_.restarts);
    std::int64_t conflicts_this_restart = 0;
    std::vector<Lit> learnt;

    for (;;) {
        const CRef conflict = propagate();
        if (conflict != CREF_UNDEF) {
            ++stats_.conflicts;
            ++conflicts_this_restart;
            if (trail_lim_.empty()) {
                ok_ = false;
                return SolveResult::Unsat;
            }
            int bt = 0;
            analyze(conflict, learnt, bt);
            // The backjump may land inside the assumption prefix; the
            // assumption re-decide loop below then notices any
            // assumption forced false and extracts the core.
            cancelUntil(bt);
            ++stats_.learned;
            stats_.learnedLits +=
                static_cast<std::int64_t>(learnt.size());
            if (learnt.size() == 1) {
                uncheckedEnqueue(learnt[0], CREF_UNDEF);
            } else {
                const CRef c = allocClause(learnt, true);
                attachClause(c);
                uncheckedEnqueue(learnt[0], c);
            }
            varDecayActivity();
            if (budgetExceeded(conflicts_at_entry)) {
                budget_hit_ = true;
                cancelUntil(0);
                return SolveResult::Unknown;
            }
            continue;
        }

        if (budgetExceeded(conflicts_at_entry)) {
            budget_hit_ = true;
            cancelUntil(0);
            return SolveResult::Unknown;
        }

        if (conflicts_this_restart >= restart_limit &&
            static_cast<int>(trail_lim_.size()) >
                static_cast<int>(assumptions.size())) {
            ++stats_.restarts;
            conflicts_this_restart = 0;
            restart_limit = RESTART_BASE * luby(stats_.restarts);
            cancelUntil(static_cast<int>(assumptions.size()));
            continue;
        }

        // Assumption prefix first, then activity-driven decisions.
        Lit next = LIT_UNDEF;
        while (static_cast<std::size_t>(trail_lim_.size()) <
               assumptions.size()) {
            const Lit a =
                assumptions[static_cast<std::size_t>(trail_lim_.size())];
            if (value(a) == LBool::True) {
                // Already implied: open an empty level so the prefix
                // indexing stays aligned.
                trail_lim_.push_back(static_cast<int>(trail_.size()));
                continue;
            }
            if (value(a) == LBool::False) {
                analyzeFinal(~a, conflict_core_);
                cancelUntil(0);
                return SolveResult::Unsat;
            }
            next = a;
            break;
        }
        if (next == LIT_UNDEF) {
            next = pickBranchLit();
            if (next == LIT_UNDEF) {
                // All variables assigned: model found.
                model_ = assigns_;
                cancelUntil(0);
                return SolveResult::Sat;
            }
            ++stats_.decisions;
        }
        trail_lim_.push_back(static_cast<int>(trail_.size()));
        uncheckedEnqueue(next, CREF_UNDEF);
    }
}

} // namespace mvp::sched::sat
