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

/** An op of a modulo slot whose operands are checked dynamically. */
struct CheckedOp
{
    std::int64_t stage;        ///< schedule time / II
    std::uint32_t checksBegin; ///< its DynChecks: [checksBegin, checksEnd)
    std::uint32_t checksEnd;
};

/** A memory op of a modulo slot: everything the issue pass reads. */
struct IssuedOp
{
    std::int64_t stage;        ///< schedule time / II
    ir::StridedAddress addr;   ///< this execution's addresses
    std::size_t row;           ///< start of its completion records
    const ir::AffineRef *ref;
    ClusterId cluster;
    bool isStore;
};

/**
 * The ops of one modulo slot, in program order: checked[checkedBegin,
 * checkedEnd) for the hazard pass, issued[issuedBegin, issuedEnd) for
 * the issue pass.
 */
struct Slot
{
    std::uint32_t checkedBegin = 0;
    std::uint32_t checkedEnd = 0;
    std::uint32_t issuedBegin = 0;
    std::uint32_t issuedEnd = 0;
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

    // Memory ops get completion records (one slot per iteration), in
    // program order.
    std::vector<std::size_t> row_of(n_ops, 0);
    std::size_t n_rows = 0;
    for (const auto &op : loop.ops())
        if (op.isMemory()) {
            row_of[static_cast<std::size_t>(op.id)] = n_rows;
            n_rows += static_cast<std::size_t>(n_iter);
        }
    std::vector<Cycle> completion(n_rows);

    // Issue tables, by modulo slot in program order: the ops with
    // dynamic checks (the hazard pass) and the memory ops (the issue
    // pass). An op in neither does nothing the cycle loop can see, so it
    // is left out; opsExecuted and memAccesses are counted in closed
    // form.
    std::vector<OpId> order(n_ops);
    std::iota(order.begin(), order.end(), OpId{0});
    std::stable_sort(order.begin(), order.end(), [&](OpId a, OpId b) {
        return sched.slot(a) < sched.slot(b);
    });
    std::vector<Slot> slots(static_cast<std::size_t>(ii));
    std::vector<CheckedOp> checked;
    std::vector<IssuedOp> issued;
    std::vector<DynCheck> checks;
    auto next = order.begin();
    for (std::size_t s = 0; s < slots.size(); ++s) {
        Slot &slot = slots[s];
        slot.checkedBegin = static_cast<std::uint32_t>(checked.size());
        slot.issuedBegin = static_cast<std::uint32_t>(issued.size());
        for (; next != order.end() &&
               static_cast<std::size_t>(sched.slot(*next)) == s;
             ++next) {
            const OpId v = *next;
            const auto &op = loop.op(v);
            const auto &p = sched.placed(v);
            const auto checks_begin =
                static_cast<std::uint32_t>(checks.size());
            for (const auto &e : graph.edges()) {
                const auto &src = loop.op(e.src);
                const bool dyn =
                    (e.isRegFlow() && src.isLoad()) ||
                    (e.kind == ddg::EdgeKind::MemFlow && src.isStore());
                if (dyn && e.dst == v && e.src != e.dst)
                    checks.push_back(
                        {row_of[static_cast<std::size_t>(e.src)],
                         e.distance});
            }
            const auto checks_end =
                static_cast<std::uint32_t>(checks.size());
            if (checks_end != checks_begin)
                checked.push_back({p.time / ii, checks_begin, checks_end});
            if (op.isMemory())
                issued.push_back({p.time / ii,
                                  {},
                                  row_of[static_cast<std::size_t>(v)],
                                  &*op.memRef,
                                  p.cluster,
                                  op.isStore()});
        }
        slot.checkedEnd = static_cast<std::uint32_t>(checked.size());
        slot.issuedEnd = static_cast<std::uint32_t>(issued.size());
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
        for (IssuedOp &m : issued)
            m.addr = loop.stridedAddressOf(*m.ref, ivs);

        // Flat cycle c = row * II + slot; an op of stage st issues
        // iteration k = row - st.
        Cycle c = 0;
        for (std::int64_t row = 0; row < rows; ++row) {
            for (const Slot &slot : slots) {
                // --- Hazard check: stall all clusters until every
                // operand consumed this cycle is available. ---
                Cycle stall_here = 0;
                const Cycle dyn_issue = flat_base + c + stall_total;
                for (auto o = slot.checkedBegin; o != slot.checkedEnd; ++o) {
                    const CheckedOp &e = checked[o];
                    const std::int64_t k = row - e.stage;
                    if (k < 0 || k >= n_iter)
                        continue;
                    for (auto i = e.checksBegin; i != e.checksEnd; ++i) {
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
                for (auto o = slot.issuedBegin; o != slot.issuedEnd; ++o) {
                    const IssuedOp &m = issued[o];
                    const std::int64_t k = row - m.stage;
                    if (k < 0 || k >= n_iter)
                        continue;
                    const auto acc = memsys.access(m.cluster, m.addr.at(k),
                                                   m.isStore, dyn_now);
                    stall_total += acc.issueStall;
                    completion[m.row + static_cast<std::size_t>(k)] =
                        acc.completion;
                }
                ++c;
            }
        }

        res.iterations += n_iter;
        flat_base += flat_len;
    }

    res.opsExecuted = static_cast<std::int64_t>(n_ops) * res.iterations;
    res.memAccesses = static_cast<std::int64_t>(issued.size()) *
                      res.iterations;
    res.computeCycles = flat_base;
    res.stallCycles = stall_total;
    res.memStats = memsys.stats();
    return res;
}

} // namespace mvp::sim
