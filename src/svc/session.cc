#include "svc/session.hh"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/logging.hh"
#include "harness/flags.hh"

namespace mvp::svc
{
namespace
{

void
appendFrame(std::string &out, const std::string &head,
            const std::string &payload)
{
    out += head + " " + std::to_string(payload.size()) + "\n";
    out += payload;
    out += "\n";
}

} // namespace

bool
ServiceSession::consume(const char *data, std::size_t n,
                        std::string &out)
{
    if (closed_)
        return false;
    buffer_.append(data, n);
    // Frames are parsed from an offset and the consumed prefix is
    // erased once per call, so a chunk of many small frames costs time
    // linear in its size.
    std::size_t pos = 0;
    while (!closed_) {
        const std::size_t avail = buffer_.size() - pos;
        if (mode_ == Mode::Line) {
            // Scan at most one byte past the cap: a longer line is
            // refused without reading the rest of it.
            const char *head = buffer_.data() + pos;
            const auto *nl = static_cast<const char *>(std::memchr(
                head, '\n', std::min(avail, MAX_HEADER_BYTES + 1)));
            if (nl == nullptr) {
                if (avail > MAX_HEADER_BYTES)
                    protocolError("frame header exceeds " +
                                      std::to_string(MAX_HEADER_BYTES) +
                                      " bytes",
                                  out);
                break;
            }
            std::size_t len = static_cast<std::size_t>(nl - head);
            pos += len + 1;
            if (len > 0 && head[len - 1] == '\r')
                --len;
            handleLine(std::string_view(head, len), out);
        } else {
            // Payload plus its terminating newline.
            if (avail < pending_bytes_ + 1)
                break;
            if (buffer_[pos + pending_bytes_] != '\n') {
                protocolError("payload not followed by newline", out);
                break;
            }
            std::string payload = buffer_.substr(pos, pending_bytes_);
            pos += pending_bytes_ + 1;
            mode_ = Mode::Line;
            handlePayload(std::move(payload));
        }
    }
    if (closed_) {
        buffer_.clear();
        return false;
    }
    buffer_.erase(0, pos);
    return true;
}

void
ServiceSession::finish(std::string &out)
{
    if (closed_)
        return;
    if (!buffer_.empty() || mode_ == Mode::Payload)
        protocolError("input ended mid-frame", out);
    else
        flushBatch(out);
    closed_ = true;
}

void
ServiceSession::handleLine(std::string_view line, std::string &out)
{
    Words words;
    const std::size_t count = splitWords(line, words);
    if (count == 0)
        return;   // blank lines between frames are tolerated
    const std::string_view cmd = words[0];

    if (cmd == "REQ") {
        std::uint64_t nbytes = 0;
        const std::string size(words[2]);
        if (count != 3 ||
            !harness::tryParseInteger(size, "REQ", nbytes).empty()) {
            protocolError("REQ wants 'REQ <id> <nbytes>', got '" +
                              std::string(line) + "'",
                          out);
            return;
        }
        if (nbytes > MAX_FRAME_BYTES) {
            protocolError("REQ payload of " + size +
                              " bytes exceeds the frame cap",
                          out);
            return;
        }
        pending_id_ = words[1];
        pending_bytes_ = nbytes;
        mode_ = Mode::Payload;
        return;
    }
    if (cmd == "FLUSH") {
        flushBatch(out);
        return;
    }
    if (cmd == "STATS") {
        appendFrame(out, "STATS", svc_.renderStats());
        return;
    }
    if (cmd == "QUIT") {
        flushBatch(out);
        out += "BYE\n";
        closed_ = true;
        return;
    }
    protocolError("unknown command '" + std::string(cmd) +
                      "' (known: REQ, FLUSH, STATS, QUIT)",
                  out);
}

void
ServiceSession::handlePayload(std::string &&payload)
{
    PendingReq p;
    p.id = std::move(pending_id_);
    // The zero-parse lane: byte-identical repeats resolve here,
    // before the parser ever sees the payload.
    p.resolved = svc_.rawProbe(payload);
    if (p.resolved == nullptr) {
        p.parsed =
            parseRequest(std::move(payload), "request '" + p.id + "'");
        p.parsed.id = p.id;
    }
    pending_.push_back(std::move(p));
}

void
ServiceSession::flushBatch(std::string &out)
{
    if (pending_.empty())
        return;

    // Serve only the frames the raw lane didn't already resolve; the
    // replies land back into their submission slots.
    std::vector<Request> todo;
    std::vector<std::size_t> slots;
    for (std::size_t i = 0; i < pending_.size(); ++i) {
        if (pending_[i].resolved != nullptr)
            continue;
        slots.push_back(i);
        todo.push_back(std::move(pending_[i].parsed));
    }
    if (!todo.empty()) {
        auto replies = svc_.processBatch(std::move(todo));
        for (std::size_t j = 0; j < replies.size(); ++j)
            pending_[slots[j]].resolved =
                std::move(replies[j].payload);
    }

    // Emit every REP in submission order. One reserve covers the
    // whole burst; the frame heads are appended piecewise so no
    // per-frame temporaries are allocated.
    const auto emit_start = std::chrono::steady_clock::now();
    const std::size_t before = out.size();
    std::size_t want = 0;
    for (const PendingReq &p : pending_)
        want += p.id.size() + p.resolved->size() + 32;
    out.reserve(before + want);
    for (const PendingReq &p : pending_) {
        out += "REP ";
        out += p.id;
        out += ' ';
        out += std::to_string(p.resolved->size());
        out += '\n';
        out += *p.resolved;
        out += '\n';
    }
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - emit_start)
                          .count();
    svc_.noteFlush(pending_.size(), out.size() - before, us);
    pending_.clear();
}

void
ServiceSession::protocolError(const std::string &message,
                              std::string &out)
{
    appendFrame(out, "ERR", message);
    closed_ = true;
}

} // namespace mvp::svc
