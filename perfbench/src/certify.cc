/**
 * @file
 * The `certify` workload: every builtin loop on the 2-cluster and
 * 4-cluster machines, certified by both exact engines — `exact`
 * (branch and bound) and `sat` (CDCL) — one search at a time, with
 * the library's default budgets (128 certifications per pass). Nearly
 * all of its time is in sched/exact and sched/sat; it runs no sim,
 * cme or svc code. A result whose budget fired, or that carries no
 * optimality proof, counts as failed, so a deadline firing under load
 * shows in ok_rate instead of silently changing the work.
 */

#include <cstdio>

#include "bench.hh"
#include "harness/experiment.hh"
#include "machine/presets.hh"
#include "sched/backend.hh"

namespace perfbench
{
namespace
{

using namespace mvp;

const char *const ENGINES[] = {"exact", "sat"};

class Certify final : public Workload
{
  public:
    explicit Certify(const Args &args)
        : machines_{makeTwoCluster(), makeFourCluster()}, seed_(args.seed)
    {
    }

    int workers() const override { return 0; }

    double setup(bool traced) override
    {
        bench_.reset();   // each set-up starts from the same heap
        const std::int64_t start = nowNs();
        bench_ = prepareWorkbench(traced);
        return static_cast<double>(nowNs() - start) / 1e9;
    }

    void pass(bool traced, Tally &tally) override
    {
        // Item i = ((loop * machines) + machine) * engines + engine.
        const auto &entries = bench_->entries();
        const std::size_t n = entries.size() * 2 * 2;
        if (order_.size() != n)
            order_ = permutation(n, seed_);

        std::vector<sched::ScheduleResult> results(n);
        std::vector<double> ms(n);
        const std::int64_t start = nowNs();
        for (const std::size_t i : order_) {
            const ddg::Ddg &graph = *entries[i / 4]->ddg;
            const MachineConfig &machine = machines_[(i / 2) % 2];
            const std::int64_t t0 = nowNs();
            if (traced) {
                Scope item(SpanKind::Item, static_cast<std::int64_t>(i));
                results[i] = sched::scheduleWithBackend(
                    ENGINES[i % 2], graph, machine, {}, ctx_);
            } else {
                results[i] = sched::scheduleWithBackend(
                    ENGINES[i % 2], graph, machine, {}, ctx_);
            }
            ms[i] = msSince(t0);
        }
        tally.notePass(start, n);

        // Checks, outside the timed region: each engine proves its II
        // within budget, both engines agree, both schedules validate.
        std::vector<bool> ok(n);
        for (std::size_t i = 0; i < n; ++i) {
            const sched::ScheduleResult &r = results[i];
            const ddg::Ddg &graph = *entries[i / 4]->ddg;
            const MachineConfig &machine = machines_[(i / 2) % 2];
            ok[i] = r.ok && r.stats.provenOptimal &&
                    !r.stats.budgetExhausted &&
                    r.schedule.validate(graph, machine).empty();
            if (!ok[i])
                std::fprintf(stderr,
                             "certify: %s on %s/%s: ok=%d proven=%d "
                             "budget=%d %s\n",
                             ENGINES[i % 2], graph.loop().name().c_str(),
                             machine.name.c_str(), r.ok,
                             r.stats.provenOptimal, r.stats.budgetExhausted,
                             r.error.c_str());
        }
        std::int64_t cycles = 0;
        for (std::size_t i = 0; i < n; i += 2) {
            const bool agree =
                results[i].schedule.ii() == results[i + 1].schedule.ii();
            if (!agree)
                std::fprintf(stderr, "certify: engines disagree on %s\n",
                             entries[i / 4]->nest.name().c_str());
            for (const std::size_t j : {i, i + 1}) {
                cycles += results[j].schedule.ii();
                tally.addItem(j % 2 == 0 ? "bnb" : "sat", ms[j],
                              ok[j] && agree);
            }
        }
        tally.notePassCycles(cycles, static_cast<std::int64_t>(n));
    }

  private:
    MachineConfig machines_[2];
    std::uint64_t seed_ = 0;
    std::unique_ptr<harness::Workbench> bench_;
    std::vector<std::size_t> order_;
    sched::SchedContext ctx_;
};

} // namespace

std::unique_ptr<Workload>
makeCertify(const Args &args)
{
    return std::make_unique<Certify>(args);
}

} // namespace perfbench
