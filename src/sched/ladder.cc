#include "sched/ladder.hh"

#include <algorithm>
#include <string>

#include "sched/mii.hh"

namespace mvp::sched
{

ScheduleResult
climbIiLadder(const ddg::Ddg &graph, const MachineConfig &machine,
              const SchedulerOptions &options, IiProber &prober)
{
    ScheduleResult result;
    SchedStats &st = result.stats;
    st.resMii = resMii(graph.loop(), machine);
    st.recMii = graph.recMii();
    st.mii = std::max(st.resMii, st.recMii);
    st.iiLowerBound = st.mii;
    if (graph.size() == 0) {
        result.error = "empty loop";
        return result;
    }

    SearchClock clock(options.timeBudgetMs);
    prober.begin(st.mii, clock);

    constexpr int MAX_ABORTED_ATTEMPTS = 4;
    int aborted = 0;
    for (Cycle ii = st.mii; ii <= options.maxII; ++ii) {
        ++st.iiAttempts;
        const Probe verdict = prober.probe(ii);
        if (verdict == Probe::Feasible) {
            result.ok = true;
            st.provenOptimal = ii == st.iiLowerBound;
            break;
        }
        if (verdict == Probe::Refuted) {
            if (st.iiLowerBound == ii)
                st.iiLowerBound = ii + 1;
            continue;
        }
        // Aborted: the II is neither feasible nor refuted, so the
        // lower bound must not rise past it. The clock is read on
        // every abort: an engine may have seen the deadline itself.
        ++aborted;
        if (clock.expired() || aborted >= MAX_ABORTED_ATTEMPTS)
            break;
    }

    st.budgetExhausted = aborted > 0 || prober.budgetHit();
    st.deadlineHit = clock.hit();
    if (!result.ok)
        result.error =
            st.budgetExhausted
                ? "exact search budget exhausted before any schedule "
                  "was found for loop '" +
                      graph.loop().name() + "'"
                : "no feasible II up to " +
                      std::to_string(options.maxII) + " for loop '" +
                      graph.loop().name() + "'";
    prober.finish(result);
    return result;
}

} // namespace mvp::sched
