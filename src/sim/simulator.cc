#include "sim/simulator.hh"

#include <algorithm>
#include <numeric>
#include <vector>

namespace mvp::sim
{

namespace
{

/**
 * A dependence that must be checked dynamically: an edge whose
 * producer's actual completion may exceed the scheduled latency (loads
 * through register flow, stores through memory flow). The producer is
 * a memory op; @c row is the start of its completion records.
 */
struct DynCheck
{
    std::size_t row;
    int distance;
};

/** One op of a modulo slot: everything the cycle loop reads about it. */
struct SlotOp
{
    std::int64_t stage;        ///< schedule time / II
    ClusterId cluster;
    int mem;                   ///< index into the memory table, or -1
    bool isStore;
    std::uint32_t checksBegin; ///< its DynChecks: [checksBegin, checksEnd)
    std::uint32_t checksEnd;
};

/** One memory op: its reference and this execution's addresses. */
struct MemOp
{
    const ir::AffineRef *ref;
    ir::StridedAddress addr;
    std::size_t row;           ///< start of its completion records
};

} // namespace

SimResult
simulateLoop(const ddg::Ddg &graph, const sched::ModuloSchedule &sched,
             const MachineConfig &machine, SimParams params)
{
    const auto &loop = graph.loop();
    const Cycle ii = sched.ii();
    const int sc = sched.stageCount();
    const std::int64_t n_iter = loop.innerTripCount();
    std::int64_t n_times = loop.outerExecutions();
    if (params.maxExecutions > 0)
        n_times = std::min(n_times, params.maxExecutions);
    const std::int64_t rows = n_iter + sc - 1;
    const Cycle flat_len = rows * ii;
    const std::size_t n_ops = loop.size();

    // Memory ops get completion records (one slot per iteration).
    std::vector<int> mem_of(n_ops, -1);
    std::vector<MemOp> mems;
    for (const auto &op : loop.ops())
        if (op.isMemory()) {
            mem_of[static_cast<std::size_t>(op.id)] =
                static_cast<int>(mems.size());
            mems.push_back({&*op.memRef, {},
                            mems.size() * static_cast<std::size_t>(n_iter)});
        }
    std::vector<Cycle> completion(mems.size() *
                                  static_cast<std::size_t>(n_iter));

    // Issue table: the ops of each modulo slot in program order, slot
    // s spanning [slot_at[s], slot_at[s + 1]), each op with its dynamic
    // checks.
    std::vector<OpId> order(n_ops);
    std::iota(order.begin(), order.end(), OpId{0});
    std::stable_sort(order.begin(), order.end(), [&](OpId a, OpId b) {
        return sched.slot(a) < sched.slot(b);
    });
    std::vector<std::size_t> slot_at(static_cast<std::size_t>(ii) + 1, 0);
    for (const OpId v : order)
        ++slot_at[static_cast<std::size_t>(sched.slot(v)) + 1];
    std::partial_sum(slot_at.begin(), slot_at.end(), slot_at.begin());
    std::vector<SlotOp> table;
    std::vector<DynCheck> checks;
    table.reserve(n_ops);
    for (const OpId v : order) {
        const auto &p = sched.placed(v);
        const auto checks_begin = static_cast<std::uint32_t>(checks.size());
        for (const auto &e : graph.edges()) {
            const auto &src = loop.op(e.src);
            const bool dyn =
                (e.isRegFlow() && src.isLoad()) ||
                (e.kind == ddg::EdgeKind::MemFlow && src.isStore());
            if (dyn && e.dst == v && e.src != e.dst)
                checks.push_back(
                    {mems[static_cast<std::size_t>(
                              mem_of[static_cast<std::size_t>(e.src)])]
                         .row,
                     e.distance});
        }
        table.push_back({p.time / ii, p.cluster,
                         mem_of[static_cast<std::size_t>(v)],
                         loop.op(v).isStore(), checks_begin,
                         static_cast<std::uint32_t>(checks.size())});
    }

    cache::MemorySystem memsys(machine);
    SimResult res;
    res.executions = n_times;

    const ir::IterationSpace space(loop);
    std::vector<std::int64_t> ivs(loop.depth());

    Cycle flat_base = 0;    // accumulated compute cycles of past execs
    Cycle stall_total = 0;

    for (std::int64_t exec = 0; exec < n_times; ++exec) {
        // Outer induction variables of this execution, and every
        // reference's addresses along it.
        space.at(exec * n_iter, ivs);
        for (auto &m : mems)
            m.addr = loop.stridedAddressOf(*m.ref, ivs);

        // Flat cycle c = row * II + slot; an op of stage st issues
        // iteration k = row - st.
        Cycle c = 0;
        for (std::int64_t row = 0; row < rows; ++row) {
            for (std::size_t slot = 0; slot < static_cast<std::size_t>(ii);
                 ++slot, ++c) {
                const SlotOp *first = table.data() + slot_at[slot];
                const SlotOp *last = table.data() + slot_at[slot + 1];

                // --- Hazard check: stall all clusters until every
                // operand consumed this cycle is available. ---
                Cycle stall_here = 0;
                const Cycle dyn_issue = flat_base + c + stall_total;
                for (const SlotOp *e = first; e != last; ++e) {
                    const std::int64_t k = row - e->stage;
                    if (k < 0 || k >= n_iter)
                        continue;
                    for (auto i = e->checksBegin; i != e->checksEnd; ++i) {
                        const std::int64_t src_k = k - checks[i].distance;
                        if (src_k < 0)
                            continue;   // value from before this execution
                        const Cycle done =
                            completion[checks[i].row +
                                       static_cast<std::size_t>(src_k)];
                        if (done > dyn_issue + stall_here)
                            stall_here = done - dyn_issue;
                    }
                }
                stall_total += stall_here;

                // --- Issue. ---
                const Cycle dyn_now = flat_base + c + stall_total;
                for (const SlotOp *e = first; e != last; ++e) {
                    const std::int64_t k = row - e->stage;
                    if (k < 0 || k >= n_iter)
                        continue;
                    ++res.opsExecuted;
                    if (e->mem < 0)
                        continue;
                    const MemOp &m = mems[static_cast<std::size_t>(e->mem)];
                    const auto acc = memsys.access(
                        e->cluster, m.addr.at(k), e->isStore, dyn_now);
                    ++res.memAccesses;
                    stall_total += acc.issueStall;
                    completion[m.row + static_cast<std::size_t>(k)] =
                        acc.completion;
                }
            }
        }

        res.iterations += n_iter;
        flat_base += flat_len;
    }

    res.computeCycles = flat_base;
    res.stallCycles = stall_total;
    res.memStats = memsys.stats();
    return res;
}

} // namespace mvp::sim
