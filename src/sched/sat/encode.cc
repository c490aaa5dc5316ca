#include "sched/sat/encode.hh"

#include <algorithm>

#include "common/logging.hh"
#include "ir/loop.hh"
#include "sched/mrt.hh"
#include "sched/sentinels.hh"

namespace mvp::sched::sat
{

namespace
{

/** Keep one attempt's encoding from ballooning past the solver's
 * comfort zone: past this many order variables we report TooLarge and
 * the backend degrades to "gap unknown" (never a wrong certificate). */
constexpr std::int64_t MAX_ORDER_VARS = 400'000;

} // namespace

IiEncoding::IiEncoding(const ddg::Ddg &graph, const MachineConfig &machine,
                       const std::vector<OpId> &order, Cycle ii)
    : graph_(graph), machine_(machine), order_(order), ii_(ii),
      lrb_(machine.regBusLatency), nc_(machine.nClusters),
      n_(graph.size())
{
    mvp_assert(order_.size() == n_, "ordering does not cover the loop");
}

Lit
IiEncoding::neg(Lit l)
{
    if (l == TRUE_LIT)
        return FALSE_LIT;
    if (l == FALSE_LIT)
        return TRUE_LIT;
    return ~l;
}

Cycle
IiEncoding::modSlot(Cycle a) const
{
    Cycle m = a % ii_;
    return m < 0 ? m + ii_ : m;
}

Lit
IiEncoding::ole(OpId v, Cycle j) const
{
    const OpVars &o = ops_[static_cast<std::size_t>(v)];
    if (j >= o.hi)
        return TRUE_LIT;
    if (j < o.lo)
        return FALSE_LIT;
    return mkLit(o.o0 + static_cast<Var>(j - o.lo));
}

Lit
IiEncoding::ple(int pair, Cycle j) const
{
    const CommVars &cv = comms_[static_cast<std::size_t>(pair)];
    if (cv.xhi < cv.xlo)
        return TRUE_LIT; // transfer impossible; E is forced false
    if (j >= cv.xhi)
        return TRUE_LIT;
    if (j < cv.xlo)
        return FALSE_LIT;
    return mkLit(cv.p0 + static_cast<Var>(j - cv.xlo));
}

Lit
IiEncoding::klit(OpId v, ClusterId c) const
{
    if (nc_ == 1)
        return c == 0 ? TRUE_LIT : FALSE_LIT;
    return mkLit(ops_[static_cast<std::size_t>(v)].k0 + c);
}

int
IiEncoding::pairOf(OpId u, ClusterId d) const
{
    return pair_of_[static_cast<std::size_t>(u) *
                        static_cast<std::size_t>(nc_) +
                    static_cast<std::size_t>(d)];
}

bool
IiEncoding::readIn(OpId u, ClusterId d,
                   const std::vector<ClusterId> &cluster) const
{
    if (cluster[static_cast<std::size_t>(u)] == d)
        return false;
    for (int ei : graph_.outEdges(u)) {
        const auto &e = graph_.edges()[static_cast<std::size_t>(ei)];
        if (e.isRegFlow() && e.dst != u &&
            cluster[static_cast<std::size_t>(e.dst)] == d)
            return true;
    }
    return false;
}

void
IiEncoding::clause(Solver &s, std::initializer_list<Lit> ls)
{
    buf_.clear();
    buf_.push_back(~act_);
    for (Lit l : ls) {
        if (l == TRUE_LIT)
            return;
        if (l == FALSE_LIT)
            continue;
        buf_.push_back(l);
    }
    s.addClause(buf_);
}

void
IiEncoding::clauseV(Solver &s, const std::vector<Lit> &ls)
{
    buf_.clear();
    buf_.push_back(~act_);
    for (Lit l : ls) {
        if (l == TRUE_LIT)
            return;
        if (l == FALSE_LIT)
            continue;
        buf_.push_back(l);
    }
    s.addClause(buf_);
}

void
IiEncoding::atMostK(Solver &s, const std::vector<Lit> &xs, int k)
{
    const int n = static_cast<int>(xs.size());
    if (n <= k)
        return;
    if (k == 0) {
        for (Lit x : xs)
            clause(s, {neg(x)});
        return;
    }
    // Sinz sequential counter: s_{i,j} <=> "at least j of x_0..x_i".
    std::vector<Var> prev(static_cast<std::size_t>(k));
    std::vector<Var> cur(static_cast<std::size_t>(k));
    for (int j = 0; j < k; ++j) {
        prev[static_cast<std::size_t>(j)] = s.newVar();
        if (j == 0)
            clause(s, {neg(xs[0]),
                       mkLit(prev[static_cast<std::size_t>(j)])});
        else
            clause(s, {~mkLit(prev[static_cast<std::size_t>(j)])});
    }
    for (int i = 1; i < n - 1; ++i) {
        for (int j = 0; j < k; ++j)
            cur[static_cast<std::size_t>(j)] = s.newVar();
        clause(s, {neg(xs[static_cast<std::size_t>(i)]),
                   mkLit(cur[0])});
        clause(s, {~mkLit(prev[0]), mkLit(cur[0])});
        for (int j = 1; j < k; ++j) {
            clause(s, {neg(xs[static_cast<std::size_t>(i)]),
                       ~mkLit(prev[static_cast<std::size_t>(j - 1)]),
                       mkLit(cur[static_cast<std::size_t>(j)])});
            clause(s, {~mkLit(prev[static_cast<std::size_t>(j)]),
                       mkLit(cur[static_cast<std::size_t>(j)])});
        }
        clause(s, {neg(xs[static_cast<std::size_t>(i)]),
                   ~mkLit(prev[static_cast<std::size_t>(k - 1)])});
        std::swap(prev, cur);
    }
    clause(s, {neg(xs[static_cast<std::size_t>(n - 1)]),
               ~mkLit(prev[static_cast<std::size_t>(k - 1)])});
}

/**
 * Static time-window hull per op, mirroring the per-node window rules
 * of the placement kernel (Window::compute/scan in sched/window.hh) by
 * interval arithmetic over placement order:
 * the first op is anchored at cycle 0, an op with earlier-order
 * predecessors gets [early_lo, early_hi + II - 1] (clipped by its
 * earlier-order consumers' budgets), an op with only earlier-order
 * successors gets [late_lo - II + 1, late_hi], an isolated op gets
 * [0, II - 1]. A dependence-slack fixpoint then tightens the hulls.
 * Empty hull = the enumerated space is empty: certified refutation.
 * Unlike the kernel, the hulls start from the first predecessor and do
 * not clamp early at 0 (the kernel's known defect).
 */
bool
IiEncoding::computeWindows()
{
    ops_.assign(n_, OpVars{});
    pos_.assign(n_, -1);
    for (std::size_t k = 0; k < n_; ++k)
        pos_[static_cast<std::size_t>(order_[k])] = static_cast<int>(k);

    // Self-edges constrain nothing the placement can change: the II
    // either absorbs the recurrence or the attempt is refuted outright.
    for (const auto &e : graph_.edges()) {
        if (e.src != e.dst)
            continue;
        const Cycle need =
            e.isRegFlow() ? graph_.opLatency(e.src) : e.latency;
        if (need > ii_ * e.distance)
            return false;
    }

    const bool multi = nc_ > 1;
    for (std::size_t k = 0; k < n_; ++k) {
        const OpId v = order_[k];
        OpVars &ov = ops_[static_cast<std::size_t>(v)];
        const int kp = static_cast<int>(k);
        bool has_pred = false, has_succ = false;
        Cycle early_lo = 0, early_hi = 0;
        Cycle late_lo = CYCLE_MAX, late_hi = CYCLE_MAX;

        for (int ei : graph_.inEdges(v)) {
            const auto &e = graph_.edges()[static_cast<std::size_t>(ei)];
            if (e.src == v || pos_[static_cast<std::size_t>(e.src)] >= kp)
                continue;
            const OpVars &ou = ops_[static_cast<std::size_t>(e.src)];
            const Cycle iidist = ii_ * e.distance;
            const Cycle out_lat = graph_.opLatency(e.src);
            const Cycle minf =
                (e.isRegFlow() ? out_lat : e.latency) - iidist;
            const Cycle maxf =
                minf + (e.isRegFlow() && multi ? lrb_ + ii_ - 1 : 0);
            if (!has_pred) {
                early_lo = ou.lo + minf;
                early_hi = ou.hi + maxf;
                has_pred = true;
            } else {
                early_lo = std::max(early_lo, ou.lo + minf);
                early_hi = std::max(early_hi, ou.hi + maxf);
            }
        }
        for (int ei : graph_.outEdges(v)) {
            const auto &e = graph_.edges()[static_cast<std::size_t>(ei)];
            if (e.dst == v || pos_[static_cast<std::size_t>(e.dst)] >= kp)
                continue;
            const OpVars &ow = ops_[static_cast<std::size_t>(e.dst)];
            const Cycle iidist = ii_ * e.distance;
            const Cycle out_lat = graph_.opLatency(v);
            const Cycle maxg =
                iidist - (e.isRegFlow() ? out_lat : e.latency);
            const Cycle ming =
                maxg - (e.isRegFlow() && multi ? lrb_ : 0);
            has_succ = true;
            late_lo = std::min(late_lo, ow.lo + ming);
            late_hi = std::min(late_hi, ow.hi + maxg);
        }

        if (has_pred) {
            ov.lo = early_lo;
            ov.hi = early_hi + ii_ - 1;
            if (has_succ)
                ov.hi = std::min(ov.hi, late_hi);
        } else if (has_succ) {
            ov.lo = late_lo - ii_ + 1;
            ov.hi = late_hi;
        } else {
            ov.lo = 0;
            ov.hi = k == 0 ? 0 : ii_ - 1;
        }
        if (ov.lo > ov.hi)
            return false;
    }

    // Dependence-slack fixpoint (bounded passes; an unfinished
    // tightening only leaves the hull wider, which is sound).
    const int max_passes = static_cast<int>(2 * n_ + 8);
    for (int pass = 0; pass < max_passes; ++pass) {
        bool changed = false;
        for (const auto &e : graph_.edges()) {
            if (e.src == e.dst)
                continue;
            OpVars &ou = ops_[static_cast<std::size_t>(e.src)];
            OpVars &ov = ops_[static_cast<std::size_t>(e.dst)];
            const Cycle d =
                (e.isRegFlow() ? graph_.opLatency(e.src) : e.latency) -
                ii_ * e.distance;
            if (ov.lo < ou.lo + d) {
                ov.lo = ou.lo + d;
                changed = true;
            }
            if (ou.hi > ov.hi - d) {
                ou.hi = ov.hi - d;
                changed = true;
            }
            if (ov.lo > ov.hi || ou.lo > ou.hi)
                return false;
        }
        if (!changed)
            break;
    }
    return true;
}

void
IiEncoding::emitTimeChains(Solver &s)
{
    for (std::size_t v = 0; v < n_; ++v) {
        OpVars &ov = ops_[v];
        const Cycle width = ov.hi - ov.lo;
        if (width == 0)
            continue;
        ov.o0 = s.newVar();
        for (Cycle i = 1; i < width; ++i)
            s.newVar();
        for (Cycle j = ov.lo; j < ov.hi - 1; ++j)
            clause(s, {~ole(static_cast<OpId>(v), j),
                       ole(static_cast<OpId>(v), j + 1)});
    }
}

void
IiEncoding::emitClusterConstraints(Solver &s)
{
    if (nc_ == 1)
        return;
    for (std::size_t v = 0; v < n_; ++v) {
        OpVars &ov = ops_[v];
        ov.k0 = s.newVar();
        for (int c = 1; c < nc_; ++c)
            s.newVar();
        std::vector<Lit> alo;
        for (ClusterId c = 0; c < nc_; ++c)
            alo.push_back(klit(static_cast<OpId>(v), c));
        clauseV(s, alo);
        for (ClusterId c = 0; c < nc_; ++c)
            for (ClusterId c2 = c + 1; c2 < nc_; ++c2)
                clause(s, {~klit(static_cast<OpId>(v), c),
                           ~klit(static_cast<OpId>(v), c2)});
    }
    // Prefix-population symmetry break, exactly the B&B's c_limit =
    // opened + 1 rule: order_[k] may sit in cluster c >= 1 only when
    // some earlier-order op sits in cluster c - 1.
    for (std::size_t k = 0; k < n_; ++k) {
        const OpId v = order_[k];
        for (ClusterId c = 1; c < nc_; ++c) {
            std::vector<Lit> cl;
            cl.push_back(~klit(v, c));
            for (std::size_t k2 = 0; k2 < k; ++k2)
                cl.push_back(klit(order_[k2], c - 1));
            clauseV(s, cl);
        }
    }
}

void
IiEncoding::emitCommStructure(Solver &s)
{
    pair_of_.assign(n_ * static_cast<std::size_t>(nc_), -1);
    if (nc_ == 1)
        return;
    const bool bus_impossible = !machine_.unboundedRegBuses && lrb_ > ii_;
    for (std::size_t u = 0; u < n_; ++u) {
        const OpVars &ou = ops_[u];
        const Cycle out_lat = graph_.opLatency(static_cast<OpId>(u));
        Cycle budget_hi = CYCLE_MAX;
        bool has_consumer = false;
        for (int ei : graph_.outEdges(static_cast<OpId>(u))) {
            const auto &e = graph_.edges()[static_cast<std::size_t>(ei)];
            if (!e.isRegFlow() || e.dst == static_cast<OpId>(u))
                continue;
            const OpVars &ow = ops_[static_cast<std::size_t>(e.dst)];
            const Cycle b = ow.hi + ii_ * e.distance;
            budget_hi = has_consumer ? std::max(budget_hi, b) : b;
            has_consumer = true;
        }
        if (!has_consumer)
            continue;
        for (ClusterId d = 0; d < nc_; ++d) {
            CommVars cv;
            cv.u = static_cast<OpId>(u);
            cv.d = d;
            cv.xlo = ou.lo + out_lat;
            cv.xhi = std::min(ou.hi + out_lat + ii_ - 1,
                              budget_hi - lrb_);
            if (bus_impossible)
                cv.xhi = cv.xlo - 1;
            const int p = static_cast<int>(comms_.size());
            cv.e = s.newVar();
            if (cv.xhi > cv.xlo) {
                cv.p0 = s.newVar();
                for (Cycle i = 1; i < cv.xhi - cv.xlo; ++i)
                    s.newVar();
            }
            comms_.push_back(cv);
            pair_of_[u * static_cast<std::size_t>(nc_) +
                     static_cast<std::size_t>(d)] = p;
            if (cv.xhi < cv.xlo) {
                clause(s, {~mkLit(cv.e)});
                continue;
            }
            // Start-order chain, producer-ready lower bound, width-II
            // booking window (Window::book: x in [ready, ready+II-1]),
            // and never a transfer into the producer's own cluster.
            for (Cycle j = cv.xlo; j < cv.xhi - 1; ++j)
                clause(s, {~ple(p, j), ple(p, j + 1)});
            for (Cycle j = cv.xlo; j <= cv.xhi; ++j)
                clause(s, {~mkLit(cv.e), neg(ple(p, j)),
                           ole(static_cast<OpId>(u), j - out_lat)});
            for (Cycle j = ou.lo; j <= ou.hi; ++j)
                clause(s, {~mkLit(cv.e),
                           neg(ole(static_cast<OpId>(u), j)),
                           ple(p, j + out_lat + ii_ - 1)});
            clause(s, {~mkLit(cv.e), ~klit(static_cast<OpId>(u), d)});
        }
    }
}

void
IiEncoding::emitDependences(Solver &s)
{
    for (const auto &e : graph_.edges()) {
        if (e.src == e.dst)
            continue; // handled statically in computeWindows()
        const OpId u = e.src, v = e.dst;
        const OpVars &ov = ops_[static_cast<std::size_t>(v)];
        const Cycle iidist = ii_ * e.distance;
        if (!e.isRegFlow()) {
            const Cycle d = iidist - e.latency;
            for (Cycle j = ov.lo; j <= ov.hi; ++j)
                clause(s, {neg(ole(v, j)), ole(u, j + d)});
            continue;
        }
        const Cycle out_lat = graph_.opLatency(u);
        // Same cluster: consumer at t_v reads the local register file.
        for (ClusterId c = 0; c < nc_; ++c)
            for (Cycle j = ov.lo; j <= ov.hi; ++j)
                clause(s, {neg(klit(u, c)), neg(klit(v, c)),
                           neg(ole(v, j)), ole(u, j + iidist - out_lat)});
        // Cross cluster: the shared (u, d) transfer must exist and its
        // value must arrive by the consumer's budget.
        if (nc_ == 1)
            continue;
        for (ClusterId d = 0; d < nc_; ++d) {
            const int p = pairOf(u, d);
            mvp_assert(p >= 0, "register consumer without a comm pair");
            clause(s, {neg(klit(v, d)), klit(u, d),
                       mkLit(comms_[static_cast<std::size_t>(p)].e)});
            for (Cycle j = ov.lo; j <= ov.hi; ++j)
                clause(s, {neg(klit(v, d)), klit(u, d), neg(ole(v, j)),
                           ple(p, j + iidist - lrb_)});
        }
    }
}

/**
 * The B&B's width-II window caps, as per-edge disjunctions: an op with
 * earlier-order predecessors satisfies t_v <= f_e + II - 1 for SOME
 * in-edge e (f_e = that edge's contribution to `early`), an op with
 * only earlier-order successors satisfies t_v >= g_e - II + 1 for some
 * out-edge e. With one eligible edge the implication is emitted
 * directly; otherwise an auxiliary selector per edge carries the
 * disjunction.
 */
void
IiEncoding::emitWindowCaps(Solver &s)
{
    std::vector<int> ins, outs;
    for (std::size_t k = 0; k < n_; ++k) {
        const OpId v = order_[k];
        const OpVars &ov = ops_[static_cast<std::size_t>(v)];
        const int kp = static_cast<int>(k);
        ins.clear();
        outs.clear();
        for (int ei : graph_.inEdges(v)) {
            const auto &e = graph_.edges()[static_cast<std::size_t>(ei)];
            if (e.src != v && pos_[static_cast<std::size_t>(e.src)] < kp)
                ins.push_back(ei);
        }
        for (int ei : graph_.outEdges(v)) {
            const auto &e = graph_.edges()[static_cast<std::size_t>(ei)];
            if (e.dst != v && pos_[static_cast<std::size_t>(e.dst)] < kp)
                outs.push_back(ei);
        }

        if (!ins.empty()) {
            // Ascending window: t_v <= early + II - 1.
            std::vector<Lit> sel;
            const bool multiple = ins.size() > 1;
            if (multiple) {
                for (std::size_t i = 0; i < ins.size(); ++i)
                    sel.push_back(mkLit(s.newVar()));
                clauseV(s, sel);
            }
            for (std::size_t i = 0; i < ins.size(); ++i) {
                const auto &e =
                    graph_.edges()[static_cast<std::size_t>(ins[i])];
                const Lit g = multiple ? ~sel[i] : FALSE_LIT;
                const OpId u = e.src;
                const OpVars &ou = ops_[static_cast<std::size_t>(u)];
                const Cycle iidist = ii_ * e.distance;
                if (!e.isRegFlow()) {
                    const Cycle b = e.latency - iidist + ii_ - 1;
                    for (Cycle j = ou.lo; j <= ou.hi; ++j)
                        clause(s, {g, neg(ole(u, j)), ole(v, j + b)});
                    continue;
                }
                const Cycle out_lat = graph_.opLatency(u);
                const Cycle b = out_lat - iidist + ii_ - 1;
                for (ClusterId c = 0; c < nc_; ++c)
                    for (Cycle j = ou.lo; j <= ou.hi; ++j)
                        clause(s, {g, neg(klit(u, c)), neg(klit(v, c)),
                                   neg(ole(u, j)), ole(v, j + b)});
                if (nc_ == 1)
                    continue;
                const Cycle b2 = lrb_ - iidist + ii_ - 1;
                for (ClusterId d = 0; d < nc_; ++d) {
                    const int p = pairOf(u, d);
                    const CommVars &cv =
                        comms_[static_cast<std::size_t>(p)];
                    for (Cycle j = cv.xlo; j <= cv.xhi; ++j)
                        clause(s, {g, neg(klit(v, d)), klit(u, d),
                                   neg(ple(p, j)), ole(v, j + b2)});
                }
            }
        } else if (!outs.empty()) {
            // Descending window: t_v >= late - II + 1.
            std::vector<Lit> sel;
            const bool multiple = outs.size() > 1;
            if (multiple) {
                for (std::size_t i = 0; i < outs.size(); ++i)
                    sel.push_back(mkLit(s.newVar()));
                clauseV(s, sel);
            }
            const Cycle out_lat = graph_.opLatency(v);
            for (std::size_t i = 0; i < outs.size(); ++i) {
                const auto &e =
                    graph_.edges()[static_cast<std::size_t>(outs[i])];
                const Lit g = multiple ? ~sel[i] : FALSE_LIT;
                const OpId w = e.dst;
                const Cycle iidist = ii_ * e.distance;
                if (!e.isRegFlow()) {
                    const Cycle c0 = iidist - e.latency - ii_ + 1;
                    for (Cycle j = ov.lo; j <= ov.hi; ++j)
                        clause(s, {g, neg(ole(v, j)), ole(w, j - c0)});
                    continue;
                }
                const Cycle c1 = iidist - out_lat - ii_ + 1;
                for (ClusterId c = 0; c < nc_; ++c)
                    for (Cycle j = ov.lo; j <= ov.hi; ++j)
                        clause(s, {g, neg(klit(v, c)), neg(klit(w, c)),
                                   neg(ole(v, j)), ole(w, j - c1)});
                if (nc_ == 1)
                    continue;
                const Cycle c2 = iidist - lrb_ - out_lat - ii_ + 1;
                for (ClusterId d = 0; d < nc_; ++d)
                    for (Cycle j = ov.lo; j <= ov.hi; ++j)
                        clause(s, {g, neg(klit(w, d)), klit(v, d),
                                   neg(ole(v, j)), ole(w, j - c2)});
            }
        }
    }
}

void
IiEncoding::emitFuCapacity(Solver &s)
{
    const auto &loop = graph_.loop();
    for (int f = 0; f < ir::NUM_FU_TYPES; ++f) {
        const auto type = static_cast<ir::FuType>(f);
        const int cap = machine_.fusPerCluster(type);
        std::vector<OpId> members;
        for (std::size_t v = 0; v < n_; ++v)
            if (loop.op(static_cast<OpId>(v)).fuType() == type)
                members.push_back(static_cast<OpId>(v));
        if (static_cast<int>(members.size()) <= cap)
            continue;
        for (OpId v : members) {
            OpVars &ov = ops_[static_cast<std::size_t>(v)];
            if (ov.s0 < 0) {
                ov.s0 = s.newVar();
                for (Cycle i = 1; i < ii_; ++i)
                    s.newVar();
                for (Cycle t = ov.lo; t <= ov.hi; ++t)
                    clause(s, {neg(ole(v, t)), ole(v, t - 1),
                               mkLit(ov.s0 +
                                     static_cast<Var>(modSlot(t)))});
            }
            if (nc_ > 1 && ov.b0 < 0) {
                ov.b0 = s.newVar();
                for (Cycle i = 1; i < static_cast<Cycle>(nc_) * ii_; ++i)
                    s.newVar();
                for (ClusterId c = 0; c < nc_; ++c)
                    for (Cycle sl = 0; sl < ii_; ++sl)
                        clause(s,
                               {neg(klit(v, c)),
                                ~mkLit(ov.s0 + static_cast<Var>(sl)),
                                mkLit(ov.b0 +
                                      static_cast<Var>(c * ii_ + sl))});
            }
        }
        std::vector<Lit> xs;
        for (ClusterId c = 0; c < nc_; ++c)
            for (Cycle sl = 0; sl < ii_; ++sl) {
                xs.clear();
                for (OpId v : members) {
                    const OpVars &ov = ops_[static_cast<std::size_t>(v)];
                    xs.push_back(
                        nc_ == 1
                            ? mkLit(ov.s0 + static_cast<Var>(sl))
                            : mkLit(ov.b0 +
                                    static_cast<Var>(c * ii_ + sl)));
                }
                atMostK(s, xs, cap);
            }
    }
}

void
IiEncoding::emitBusCapacity(Solver &s)
{
    if (nc_ == 1 || machine_.unboundedRegBuses || lrb_ > ii_)
        return;
    int live_pairs = 0;
    for (const CommVars &cv : comms_)
        if (cv.xhi >= cv.xlo)
            ++live_pairs;
    if (live_pairs <= machine_.nRegBuses)
        return;
    for (CommVars &cv : comms_) {
        if (cv.xhi < cv.xlo)
            continue;
        cv.u0 = s.newVar();
        for (Cycle i = 1; i < ii_; ++i)
            s.newVar();
        const int p = static_cast<int>(&cv - comms_.data());
        for (Cycle j = cv.xlo; j <= cv.xhi; ++j)
            for (Cycle kk = 0; kk < lrb_; ++kk)
                clause(s, {~mkLit(cv.e), neg(ple(p, j)), ple(p, j - 1),
                           mkLit(cv.u0 +
                                 static_cast<Var>(modSlot(j + kk)))});
    }
    std::vector<Lit> xs;
    for (Cycle sl = 0; sl < ii_; ++sl) {
        xs.clear();
        for (const CommVars &cv : comms_)
            if (cv.u0 >= 0)
                xs.push_back(mkLit(cv.u0 + static_cast<Var>(sl)));
        atMostK(s, xs, machine_.nRegBuses);
    }
    // Arc cap: per-slot occupancy admits arc sets no bus assignment
    // can colour (three 2-slot arcs on two buses at II=3). A bus
    // carries at most floor(II / L) transfers, whose arcs are disjoint
    // mod II.
    if (lrb_ >= 2) {
        xs.clear();
        for (const CommVars &cv : comms_)
            if (cv.u0 >= 0)
                xs.push_back(mkLit(cv.e));
        atMostK(s, xs, machine_.nRegBuses * static_cast<int>(ii_ / lrb_));
    }
}

/**
 * Exact register-pressure cut of (cluster c, slot). Every lifetime
 * that may occupy a register of c — a value's local interval, or a
 * transfer's remote interval into c — gets one indicator per absolute
 * cycle a = slot mod II of its hull, forced true when the interval
 * holds a: guard, start <= a, and a is the start or some reader's
 * end >= a. A lifetime spanning k stages covers k such cycles, so the
 * at-most-R over the indicators counts live(c, slot) exactly as
 * computeLifetimes() does.
 */
bool
IiEncoding::refinePressure(Solver &s, ClusterId c, Cycle slot)
{
    std::vector<bool>::reference done =
        cut_[static_cast<std::size_t>(c) *
                 static_cast<std::size_t>(ii_) +
             static_cast<std::size_t>(slot)];
    if (done)
        return false;
    done = true;

    // A time term: t_v + off, or the start of transfer `pair` + off.
    struct Term
    {
        OpId v;
        int pair;
        Cycle off;
    };
    const auto le = [&](const Term &t, Cycle a) {
        return t.pair < 0 ? ole(t.v, a - t.off) : ple(t.pair, a - t.off);
    };
    const auto hull = [&](const Term &t) {
        if (t.pair < 0) {
            const OpVars &o = ops_[static_cast<std::size_t>(t.v)];
            return std::pair{o.lo + t.off, o.hi + t.off};
        }
        const CommVars &cv = comms_[static_cast<std::size_t>(t.pair)];
        return std::pair{cv.xlo + t.off, cv.xhi + t.off};
    };
    std::vector<Lit> xs;
    std::vector<std::pair<Lit, Term>> ends; // (reader guard, its end)
    const auto interval = [&](Lit guard, const Term &start) {
        auto [a, a_hi] = hull(start);
        for (const auto &[g, t] : ends)
            a_hi = std::max(a_hi, hull(t).second);
        for (a += modSlot(slot - a); a <= a_hi; a += ii_) {
            const Lit x = mkLit(s.newVar());
            xs.push_back(x);
            clause(s, {neg(guard), neg(le(start, a)), le(start, a - 1), x});
            for (const auto &[g, t] : ends)
                if (a <= hull(t).second)
                    clause(s, {neg(guard), neg(g), neg(le(start, a)),
                               le(t, a - 1), x});
        }
    };
    // Reads of u's value from cluster c, optionally skipping u itself.
    const auto readersIn = [&](OpId u, bool self) {
        ends.clear();
        for (int ei : graph_.outEdges(u)) {
            const auto &e = graph_.edges()[static_cast<std::size_t>(ei)];
            if (e.isRegFlow() && (self || e.dst != u))
                ends.push_back(
                    {klit(e.dst, c), {e.dst, -1, ii_ * e.distance}});
        }
    };

    const auto &loop = graph_.loop();
    for (std::size_t ui = 0; ui < n_; ++ui) {
        const OpId u = static_cast<OpId>(ui);
        if (!loop.op(u).producesValue())
            continue;
        // Local: production until the last same-cluster read or the
        // last transfer start.
        readersIn(u, true);
        for (ClusterId d = 0; d < nc_; ++d)
            if (const int p = pairOf(u, d); p >= 0)
                ends.push_back(
                    {mkLit(comms_[static_cast<std::size_t>(p)].e),
                     {u, p, 0}});
        interval(klit(u, c), {u, -1, graph_.opLatency(u)});
    }
    // Remote: arrival in c until the last read in c.
    for (std::size_t p = 0; p < comms_.size(); ++p) {
        const CommVars &cv = comms_[p];
        if (cv.d != c || cv.xhi < cv.xlo || !loop.op(cv.u).producesValue())
            continue;
        readersIn(cv.u, false);
        interval(mkLit(cv.e), {cv.u, static_cast<int>(p), lrb_});
    }
    atMostK(s, xs, machine_.regsPerCluster);
    return true;
}

IiEncoding::Status
IiEncoding::build(Solver &s)
{
    if (!computeWindows())
        return Status::Infeasible;
    std::int64_t order_vars = 0;
    for (const OpVars &ov : ops_)
        order_vars += ov.hi - ov.lo;
    if (order_vars > MAX_ORDER_VARS)
        return Status::TooLarge;

    act_ = mkLit(s.newVar());
    emitTimeChains(s);
    emitClusterConstraints(s);
    emitCommStructure(s);
    emitDependences(s);
    emitWindowCaps(s);
    emitFuCapacity(s);
    emitBusCapacity(s);
    cut_.assign(static_cast<std::size_t>(nc_) * static_cast<std::size_t>(ii_),
                false);
    return Status::Ok;
}

Cycle
IiEncoding::modelTime(const Solver &s, OpId v) const
{
    const OpVars &ov = ops_[static_cast<std::size_t>(v)];
    for (Cycle j = ov.lo; j < ov.hi; ++j)
        if (s.modelValue(ov.o0 + static_cast<Var>(j - ov.lo)))
            return j;
    return ov.hi;
}

ClusterId
IiEncoding::modelCluster(const Solver &s, OpId v) const
{
    if (nc_ == 1)
        return 0;
    const OpVars &ov = ops_[static_cast<std::size_t>(v)];
    for (ClusterId c = 0; c < nc_; ++c)
        if (s.modelValue(ov.k0 + c))
            return c;
    return 0; // unreachable: the at-least-one clause guarantees a hit
}

Cycle
IiEncoding::modelStart(const Solver &s, int pair) const
{
    const CommVars &cv = comms_[static_cast<std::size_t>(pair)];
    for (Cycle j = cv.xlo; j < cv.xhi; ++j)
        if (s.modelValue(cv.p0 + static_cast<Var>(j - cv.xlo)))
            return j;
    return cv.xhi;
}

bool
IiEncoding::decode(const Solver &s, ModuloSchedule &out) const
{
    std::vector<ClusterId> cluster(n_);
    out.reset(ii_, n_, nc_);
    for (std::size_t v = 0; v < n_; ++v) {
        cluster[v] = modelCluster(s, static_cast<OpId>(v));
        auto &pv = out.placed(static_cast<OpId>(v));
        pv.cluster = cluster[v];
        pv.time = modelTime(s, static_cast<OpId>(v));
        pv.outLatency = graph_.opLatency(static_cast<OpId>(v));
        pv.missScheduled = false;
    }

    // Emit one transfer per (producer, destination) actually read
    // across clusters, on the lowest bus free at the decoded start.
    Mrt mrt(machine_, ii_);
    for (std::size_t u = 0; u < n_; ++u) {
        for (ClusterId d = 0; d < nc_; ++d) {
            const int p = pairOf(static_cast<OpId>(u), d);
            if (p < 0 || !readIn(static_cast<OpId>(u), d, cluster))
                continue;
            const Cycle x = modelStart(s, p);
            const int bus = mrt.findFreeBusAt(mrt.slot(x));
            if (bus == BUS_NONE)
                return false;
            if (bus != BUS_UNBOUNDED)
                mrt.reserveBusAt(bus, mrt.slot(x));
            out.comms().push_back({static_cast<OpId>(u), cluster[u], d,
                                   x, bus});
        }
    }
    out.normalize();
    return true;
}

void
IiEncoding::blockModel(Solver &s)
{
    std::vector<Lit> cl;
    std::vector<ClusterId> cluster(n_);
    for (std::size_t v = 0; v < n_; ++v) {
        const Cycle t = modelTime(s, static_cast<OpId>(v));
        cluster[v] = modelCluster(s, static_cast<OpId>(v));
        cl.push_back(neg(ole(static_cast<OpId>(v), t)));
        cl.push_back(ole(static_cast<OpId>(v), t - 1));
        if (nc_ > 1)
            cl.push_back(~klit(static_cast<OpId>(v), cluster[v]));
    }
    for (std::size_t u = 0; u < n_; ++u)
        for (ClusterId d = 0; d < nc_; ++d) {
            const int p = pairOf(static_cast<OpId>(u), d);
            if (p < 0 || !readIn(static_cast<OpId>(u), d, cluster))
                continue;
            const Cycle x = modelStart(s, p);
            cl.push_back(neg(ple(p, x)));
            cl.push_back(ple(p, x - 1));
        }
    clauseV(s, cl);
}

} // namespace mvp::sched::sat
