/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * Every span is recorded from the benchmark's own code, around a call
 * into one of the scheduler library's public functions: the item
 * loops here, and the timing wrappers that installTimingWrappers()
 * registers through sched::BackendRegistry::add and
 * cme::LocalityRegistry::add. Nothing inside the library is
 * instrumented, so the untraced run executes exactly the library's
 * own code paths.
 *
 * Spans live in per-thread buffers (no locking on the hot path); the
 * buffers outlive their threads and are read only while no traced
 * work runs. A span's parent is the innermost span open on the same
 * thread when it started. Spans on the service's pool workers have
 * no parent and no item: the workload relates them to its requests by
 * time.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** Nanoseconds on the steady clock. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** The span kinds; spanName() gives each its printed name. */
enum class SpanKind : std::uint8_t
{
    Item,            ///< one work item (table1 point, certification)
    SchedRmca,       ///< wrapped "rmca" backend
    SchedBaseline,   ///< wrapped "baseline" backend
    SchedExact,      ///< wrapped "exact" (branch and bound) backend
    SchedSat,        ///< wrapped "sat" (CDCL) backend
    CmeQuery,        ///< one query of the wrapped "cme" analysis
    Validate,        ///< ModuloSchedule::validate
    DdgBuild,        ///< ddg::Ddg::build (+ SCC warm-up)
    GenScenario,     ///< gen::generateLoop
    TextPrint,       ///< text::printScenario
    SvcRequest,      ///< ServiceSession::consume of one REQ frame
    SvcFlush,        ///< ServiceSession::consume of one FLUSH frame
    Count
};

constexpr std::size_t SPAN_KINDS = static_cast<std::size_t>(SpanKind::Count);

const char *spanName(SpanKind kind);

/** One recorded span. */
struct Span
{
    SpanKind kind = SpanKind::Item;
    bool proven = false;        ///< sched spans: provenOptimal
    std::int32_t thread = 0;    ///< recorder thread index
    std::int32_t parent = -1;   ///< same-thread parent index, -1 = none
    std::int32_t attempts = 0;  ///< sched spans: SchedStats::iiAttempts
    std::int64_t item = -1;     ///< item / request id, -1 = none
    std::int64_t work = 0;      ///< sched spans: SchedStats::searchNodes
    std::int64_t start = 0;     ///< ns
    std::int64_t end = 0;       ///< ns
};

/**
 * RAII span: opened by the constructor, closed by the destructor.
 * @p item -1 inherits the enclosing span's item on this thread.
 */
class Scope
{
  public:
    explicit Scope(SpanKind kind, std::int64_t item = -1);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /** Attach scheduler counters to the span. */
    void note(std::int64_t work, int attempts, bool proven);

  private:
    std::int32_t index_;
};

/** Every recorded span, in (thread, start order). Call only while no
 * traced work runs. */
std::vector<Span> allSpans();

/** Mark the calling thread as one that runs passes or sends requests
 * (main, clients): its top-level spans are not pool work. */
void markCallerThread();

/**
 * Replace the "rmca", "baseline", "exact" and "sat" backends and the
 * "cme" locality provider with timing wrappers that delegate to the
 * built-ins. Call on the main thread while nothing schedules.
 */
void installTimingWrappers();

/** Per-kind totals over the spans that started in [from, to). */
struct KindTotals
{
    std::int64_t calls = 0;
    std::int64_t totalNs = 0;   ///< inclusive duration
    std::int64_t selfNs = 0;    ///< minus same-thread children
    std::int64_t work = 0;
    std::int64_t attempts = 0;
    std::int64_t proven = 0;
    std::int64_t firstII = 0;   ///< calls with attempts == 1
    std::int64_t poolTopNs = 0; ///< top-level on pool threads
};

using LayerTotals = std::array<KindTotals, SPAN_KINDS>;

LayerTotals aggregate(const std::vector<Span> &spans, std::int64_t from,
                      std::int64_t to);

/** Write @p spans as tab-separated lines; false on I/O failure. */
bool writeSpans(const std::vector<Span> &spans, const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
