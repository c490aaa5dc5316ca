#include "harness/driver.hh"

#include <chrono>
#include <cstdlib>
#include <string>

#include "common/logging.hh"
#include "harness/flags.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace mvp::harness
{

namespace
{

using ObsClock = std::chrono::steady_clock;

/** One worker's share of a sweep: its busy time and its item count. */
void
recordBusy(obs::MetricShard &metrics, ObsClock::time_point busy_start,
           std::int64_t items_done)
{
    const auto busy_us =
        std::chrono::duration_cast<std::chrono::microseconds>(
            ObsClock::now() - busy_start)
            .count();
    metrics.rt("pool.busy_ms") += busy_us / 1000;
    metrics.rtHist("pool.items_per_worker", 0.0, 1024.0, 64)
        .add(static_cast<double>(items_done));
}

} // namespace

int
defaultJobs()
{
    if (const char *env = std::getenv("MVP_JOBS")) {
        int n = 0;
        if (tryParseInteger(env, "MVP_JOBS", n).empty() && n >= 1)
            return n;
        mvp_warn("ignoring MVP_JOBS='", env, "' (want an integer >= 1)");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? static_cast<int>(hw) : 1;
}

ParallelDriver::ParallelDriver(int jobs)
    : jobs_(jobs >= 1 ? jobs : defaultJobs())
{
}

ParallelDriver::~ParallelDriver()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        shutdown_ = true;
    }
    wake_.notify_all();
    for (auto &t : pool_)
        t.join();
}

void
ParallelDriver::ensurePool()
{
    if (!pool_.empty())
        return;
    pool_.reserve(static_cast<std::size_t>(jobs_));
    for (int w = 0; w < jobs_; ++w)
        pool_.emplace_back([this, w] { workerMain(w); });
}

void
ParallelDriver::workerMain(int w)
{
    // One context per worker for the driver's whole lifetime: scratch
    // buffers grown by one sweep stay warm for every later sweep.
    sched::SchedContext ctx;
    std::uint64_t seen = 0;
    for (;;) {
        const std::function<void(std::size_t, sched::SchedContext &)>
            *work = nullptr;
        std::size_t items = 0;
        {
            std::unique_lock<std::mutex> lock(mu_);
            wake_.wait(lock, [&] {
                return shutdown_ || generation_ != seen;
            });
            if (shutdown_)
                return;
            seen = generation_;
            work = work_;
            items = items_;
        }

        // Named per sweep, not per thread: a trace session may start
        // after the pool was spawned, and re-registering is idempotent.
        if (obs::traceOn())
            obs::traceSetThreadName("worker-" + std::to_string(w));
        const bool mets = obs::metricsOn();
        const auto busy_start =
            mets ? ObsClock::now() : ObsClock::time_point{};
        std::int64_t items_done = 0;

        // Dynamic self-scheduling: each idle worker claims (steals) the
        // next unclaimed item, so the pool load-balances itself around
        // expensive items — exact-backend loops cost up to ~10^3x a
        // heuristic one, which static round-robin sharding would
        // serialise behind the unluckiest worker.
        for (;;) {
            const std::size_t i =
                next_.fetch_add(1, std::memory_order_relaxed);
            if (i >= items)
                break;
            MVP_TRACE_SPAN("item", {}, static_cast<std::int64_t>(i));
            (*work)(i, ctx);
            ++items_done;
        }

        if (mets) {
            recordBusy(ctx.metrics, busy_start, items_done);
            // Fold before --active_: when run() returns, every
            // worker's sweep contribution is already in the registry.
            obs::Registry::instance().fold(ctx.metrics);
        }

        {
            std::lock_guard<std::mutex> lock(mu_);
            --active_;
        }
        done_.notify_one();
    }
}

void
ParallelDriver::run(
    std::size_t n,
    const std::function<void(std::size_t, sched::SchedContext &)> &work)
{
    if (n == 0)
        return;

    MVP_TRACE_SPAN("sweep", {}, static_cast<std::int64_t>(n));
    const bool mets = obs::metricsOn();
    if (mets) {
        // Deterministic totals: the same items run whatever the job
        // count, so these byte-compare across --jobs values.
        serialCtx_.metrics.det("pool.sweeps") += 1;
        serialCtx_.metrics.det("pool.items") +=
            static_cast<std::int64_t>(n);
        serialCtx_.metrics.rtMax("pool.workers", jobs_);
    }

    if (jobs_ <= 1 || n == 1) {
        // Serial fast path: same code path as a one-worker pool, minus
        // the thread. The determinism tests compare this against the
        // sharded runs.
        const auto busy_start =
            mets ? ObsClock::now() : ObsClock::time_point{};
        for (std::size_t i = 0; i < n; ++i) {
            MVP_TRACE_SPAN("item", {}, static_cast<std::int64_t>(i));
            work(i, serialCtx_);
        }
        if (mets) {
            recordBusy(serialCtx_.metrics, busy_start,
                       static_cast<std::int64_t>(n));
            obs::Registry::instance().fold(serialCtx_.metrics);
        }
        return;
    }

    ensurePool();
    {
        std::lock_guard<std::mutex> lock(mu_);
        work_ = &work;
        items_ = n;
        next_.store(0, std::memory_order_relaxed);
        active_ = pool_.size();
        ++generation_;
    }
    wake_.notify_all();

    {
        std::unique_lock<std::mutex> lock(mu_);
        done_.wait(lock, [&] { return active_ == 0; });
        work_ = nullptr;
    }
    if (mets)
        obs::Registry::instance().fold(serialCtx_.metrics);
}

} // namespace mvp::harness
