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

void
Solver::reset()
{
    for (std::size_t i = 0; i < vals_.size(); ++i)
        watches_[i].clear();
    ok_ = true;
    arena_.clear();
    vals_.clear();
    model_.clear();
    polarity_.clear();
    level_.clear();
    reason_.clear();
    activity_.clear();
    trail_.clear();
    trail_lim_.clear();
    qhead_ = 0;
    var_inc_ = 1.0;
    heap_.clear();
    heap_pos_.clear();
    seen_.clear();
    conflict_core_.clear();
    deadline_on_ = false;
    conflict_budget_ = 0;
    slice_mark_ = 0;
    budget_hit_ = false;
    stats_ = {};
}

Var
Solver::newVar()
{
    const Var v = nVars();
    vals_.push_back(LBool::Undef);
    vals_.push_back(LBool::Undef);
    model_.push_back(LBool::Undef);
    model_.push_back(LBool::Undef);
    polarity_.push_back(1); // saved phase starts at "false"
    level_.push_back(0);
    reason_.push_back(CREF_UNDEF);
    activity_.push_back(0.0);
    heap_pos_.push_back(-1);
    seen_.push_back(0);
    if (watches_.size() < vals_.size())
        watches_.resize(vals_.size());
    insertVarOrder(v);
    return v;
}

Solver::CRef
Solver::allocClause(const std::vector<Lit> &lits, bool learnt)
{
    const CRef c = static_cast<CRef>(arena_.size());
    arena_.push_back(
        Lit{static_cast<std::int32_t>(lits.size()) << 1 | (learnt ? 1 : 0)});
    arena_.insert(arena_.end(), lits.begin(), lits.end());
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
    std::vector<Lit> &out = add_tmp_;
    out.assign(lits.begin(), lits.end());
    std::sort(out.begin(), out.end(),
              [](Lit a, Lit b) { return a.x < b.x; });
    std::size_t kept = 0;
    Lit prev = LIT_UNDEF;
    for (const Lit l : out) {
        mvp_assert(var(l) >= 0 && var(l) < nVars(),
                   "literal over unallocated variable");
        if (l == prev)
            continue;
        if (l == ~prev || value(l) == LBool::True)
            return true; // tautology or already satisfied
        if (value(l) != LBool::False)
            out[kept++] = l;
        prev = l;
    }
    out.resize(kept);

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
    mvp_assert(value(l) == LBool::Undef, "enqueue over assignment");
    vals_[static_cast<std::size_t>(l.x)] = LBool::True;
    vals_[static_cast<std::size_t>((~l).x)] = LBool::False;
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
        const Lit false_lit = ~p;
        ++stats_.propagations;
        // Raw cursors into p's list stay valid: a moved watcher joins
        // the list of a literal that is not false, so never p's.
        auto &ws = watches_[static_cast<std::size_t>(p.x)];
        Watch *i = ws.data();
        Watch *j = i;
        Watch *const end = i + ws.size();
        while (i != end) {
            // Blocker satisfied: clause satisfied, watch stays.
            if (value(i->blocker) == LBool::True) {
                *j++ = *i++;
                continue;
            }
            const CRef c = i->cref;
            ++i;
            Lit *lits = clauseLits(c);
            // Normalise so lits[1] is the falsified watcher (~p).
            if (lits[0] == false_lit) {
                lits[0] = lits[1];
                lits[1] = false_lit;
            }
            mvp_assert(lits[1] == false_lit, "watch desynchronised");
            const Lit first = lits[0];
            // First watcher satisfied: keep watching.
            if (value(first) == LBool::True) {
                *j++ = {c, first};
                continue;
            }
            // Find a new literal to watch.
            const std::int32_t size = clauseSize(c);
            std::int32_t k = 2;
            while (k < size && value(lits[k]) == LBool::False)
                ++k;
            if (k < size) {
                lits[1] = lits[k];
                lits[k] = false_lit;
                watches_[static_cast<std::size_t>((~lits[1]).x)]
                    .push_back({c, first});
                continue;
            }
            // Unit or conflicting.
            *j++ = {c, first};
            if (value(first) == LBool::False) {
                conflict = c;
                qhead_ = trail_.size();
                while (i != end)
                    *j++ = *i++;
                break;
            }
            uncheckedEnqueue(first, c);
        }
        ws.resize(static_cast<std::size_t>(j - ws.data()));
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
        if (value(mkLit(v)) == LBool::Undef)
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
        vals_[static_cast<std::size_t>(l.x)] = LBool::Undef;
        vals_[static_cast<std::size_t>((~l).x)] = LBool::Undef;
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
    std::vector<Lit> &learnt = learnt_;

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
                model_ = vals_;
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
