#include "obs/trace.hh"

#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

#include "common/logging.hh"

namespace mvp::obs
{

namespace detail
{
std::atomic<bool> g_trace_on{false};
} // namespace detail

namespace
{

using Clock = std::chrono::steady_clock;

struct TraceEvent
{
    const char *name;       ///< literal, borrowed
    std::string detail;     ///< copied context, may be empty
    std::int64_t arg;       ///< TRACE_NO_ARG when absent
    std::int64_t ts_us;
    std::int64_t dur_us;
};

struct TraceBuffer
{
    int tid = 0;
    std::string thread_name;
    std::vector<TraceEvent> events;
};

/**
 * Session state. Buffers are owned here (not by the threads) so they
 * survive thread exit and a parked-pool traceFinish() can read them;
 * the registration mutex plus the driver's own pool hand-off order
 * the writes.
 */
struct TraceState
{
    std::mutex mu;
    std::vector<std::unique_ptr<TraceBuffer>> buffers;
    std::string path;
    bool active = false;
    Clock::time_point start{};
    std::uint64_t epoch = 0;   ///< bumped per traceInit, invalidates TLS
    int next_tid = 0;
};

TraceState &
state()
{
    static TraceState s;
    return s;
}

thread_local TraceBuffer *t_buffer = nullptr;
thread_local std::uint64_t t_epoch = 0;

/** This thread's buffer in the current session, registering on first
 * touch. Only call while tracing is on. */
TraceBuffer &
buffer()
{
    auto &s = state();
    if (t_buffer == nullptr || t_epoch != s.epoch) {
        std::lock_guard<std::mutex> lock(s.mu);
        s.buffers.push_back(std::make_unique<TraceBuffer>());
        t_buffer = s.buffers.back().get();
        t_buffer->tid = s.next_tid++;
        t_epoch = s.epoch;
    }
    return *t_buffer;
}

std::string
jsonEscape(const std::string &in)
{
    std::string out;
    out.reserve(in.size());
    for (const char c : in) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
appendEventJson(std::string &out, const TraceEvent &ev, int tid)
{
    out += "{\"name\":\"";
    out += jsonEscape(ev.name);
    out += "\",\"cat\":\"mvp\",\"ph\":\"X\",\"ts\":";
    out += std::to_string(ev.ts_us);
    out += ",\"dur\":";
    out += std::to_string(ev.dur_us);
    out += ",\"pid\":1,\"tid\":";
    out += std::to_string(tid);
    const bool has_detail = !ev.detail.empty();
    const bool has_arg = ev.arg != TRACE_NO_ARG;
    if (has_detail || has_arg) {
        out += ",\"args\":{";
        if (has_detail) {
            out += "\"detail\":\"";
            out += jsonEscape(ev.detail);
            out += '"';
        }
        if (has_arg) {
            if (has_detail)
                out += ',';
            out += "\"arg\":";
            out += std::to_string(ev.arg);
        }
        out += '}';
    }
    out += '}';
}

} // namespace

namespace detail
{

std::int64_t
traceNowUs()
{
    const auto now = Clock::now();
    return std::chrono::duration_cast<std::chrono::microseconds>(
               now - state().start)
        .count();
}

void
traceEmit(const char *name, std::string_view detail, std::int64_t arg,
          std::int64_t ts_us, std::int64_t dur_us)
{
    // Double-check: a span that straddled traceFinish() must not
    // touch a retired session's buffers.
    if (!traceOn())
        return;
    buffer().events.push_back(
        {name, std::string(detail), arg, ts_us, dur_us});
}

} // namespace detail

void
traceSetThreadName(const std::string &name)
{
    if (!traceOn())
        return;
    buffer().thread_name = name;
}

void
traceInit(const std::string &path)
{
    auto &s = state();
    std::unique_lock<std::mutex> lock(s.mu);
    s.buffers.clear();
    s.path = path;
    s.active = true;
    s.start = Clock::now();
    ++s.epoch;
    s.next_tid = 0;
    lock.unlock();
    detail::g_trace_on.store(true);
    traceSetThreadName("main");
}

void
traceFinish()
{
    auto &s = state();
    if (!s.active)
        return;
    // Stop collection first; late spans (there should be none — see
    // the header contract) drop themselves in traceEmit().
    detail::g_trace_on.store(false);
    s.active = false;

    std::lock_guard<std::mutex> lock(s.mu);
    std::string out = "{\"traceEvents\":[";
    bool first = true;
    for (const auto &buf : s.buffers) {
        if (!buf->thread_name.empty()) {
            if (!first)
                out += ',';
            first = false;
            out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                   "\"tid\":";
            out += std::to_string(buf->tid);
            out += ",\"args\":{\"name\":\"";
            out += jsonEscape(buf->thread_name);
            out += "\"}}";
        }
        for (const auto &ev : buf->events) {
            if (!first)
                out += ',';
            first = false;
            appendEventJson(out, ev, buf->tid);
        }
    }
    out += "]}\n";

    std::FILE *f = std::fopen(s.path.c_str(), "w");
    if (f == nullptr) {
        mvp_warn("cannot write trace file '", s.path, "'");
        return;
    }
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
    mvp_inform("trace written to ", s.path);
}

} // namespace mvp::obs
