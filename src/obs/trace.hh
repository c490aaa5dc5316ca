/**
 * @file
 * Chrome trace-event tracer: the "when" layer of the stack.
 *
 * Scoped spans (`MVP_TRACE_SPAN("place", loop.name(), ii)`) are
 * collected into per-thread buffers and written at
 * traceFinish() as Chrome trace-event JSON — load the file in
 * chrome://tracing or https://ui.perfetto.dev to see per-worker
 * tracks of pool items, RMCA phases, exact-search II attempts and
 * CME stream builds on one timeline.
 *
 * Discipline for callers:
 *
 *  - span *names* must be string literals (the tracer stores the
 *    `const char *`; no copy is made). Dynamic context goes into the
 *    `detail` argument — a string_view that is copied only when the
 *    tracer is live — or the integer `arg`.
 *  - the disabled path is one relaxed atomic load and a branch, so
 *    spans are safe in warm loops (but not in the per-node hot path;
 *    instrument per II attempt / per item, not per decision).
 *  - traceFinish() must only run with no spans in flight, i.e. with
 *    the worker pool parked. The harness guarantees this by calling
 *    it after the last sweep (ParallelDriver::run has returned, and
 *    its mutex hand-off ordered all worker writes before that
 *    return).
 *
 * Timestamps are microseconds on std::chrono::steady_clock relative
 * to traceInit(), so traces are immune to wall-clock steps.
 */

#ifndef MVP_OBS_TRACE_HH
#define MVP_OBS_TRACE_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

namespace mvp::obs
{

namespace detail
{
extern std::atomic<bool> g_trace_on;

/** Record one completed span [ts_us, ts_us+dur_us) on this thread. */
void traceEmit(const char *name, std::string_view detail,
               std::int64_t arg, std::int64_t ts_us, std::int64_t dur_us);

/** Current trace timestamp (µs since traceInit). */
std::int64_t traceNowUs();
} // namespace detail

/** Whether tracing is enabled (one relaxed atomic load). */
inline bool
traceOn()
{
    return detail::g_trace_on.load(std::memory_order_relaxed);
}

/** Sentinel for "span has no integer argument". */
inline constexpr std::int64_t TRACE_NO_ARG = INT64_MIN;

/**
 * RAII span: records [construction, destruction) as one complete
 * ("ph":"X") event on the calling thread's track.
 *
 * @param name   Event name — must be a string literal (not copied).
 * @param detail Optional dynamic context (copied only when tracing).
 * @param arg    Optional integer argument (e.g. the II attempted).
 */
class TraceSpan
{
  public:
    explicit TraceSpan(const char *name, std::string_view detail = {},
                       std::int64_t arg = TRACE_NO_ARG)
    {
        if (!traceOn())
            return;
        live_ = true;
        name_ = name;
        detail_ = detail;
        arg_ = arg;
        start_us_ = obs::detail::traceNowUs();
    }

    ~TraceSpan()
    {
        if (!live_)
            return;
        const std::int64_t end = obs::detail::traceNowUs();
        obs::detail::traceEmit(name_, detail_, arg_, start_us_,
                               end - start_us_);
    }

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

  private:
    bool live_ = false;
    const char *name_ = nullptr;
    std::string detail_;
    std::int64_t arg_ = TRACE_NO_ARG;
    std::int64_t start_us_ = 0;
};

/** Label the calling thread's track ("worker-3"). Idempotent per
 * thread per trace session; cheap enough to call on every sweep. */
void traceSetThreadName(const std::string &name);

/**
 * Start a trace session writing to @p path at traceFinish(). Names
 * the calling thread "main". Re-init after a finish starts a fresh
 * session (buffers from the old session are dropped).
 */
void traceInit(const std::string &path);

/** Write the JSON and stop tracing. Idempotent; no-op when
 * traceInit() never ran. Only call with no spans in flight. */
void traceFinish();

#define MVP_OBS_CAT2(a, b) a##b
#define MVP_OBS_CAT(a, b) MVP_OBS_CAT2(a, b)

/** Open a scoped span for the rest of the enclosing block. */
#define MVP_TRACE_SPAN(...)                                                  \
    ::mvp::obs::TraceSpan MVP_OBS_CAT(mvp_trace_span_, __LINE__)(__VA_ARGS__)

} // namespace mvp::obs

#endif // MVP_OBS_TRACE_HH
