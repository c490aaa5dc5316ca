#include "svc/session.hh"

#include <chrono>
#include <utility>

#include "common/logging.hh"
#include "harness/flags.hh"

namespace mvp::svc
{
namespace
{

std::vector<std::string>
splitWords(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t i = 0;
    while (i < s.size()) {
        while (i < s.size() && (s[i] == ' ' || s[i] == '\t'))
            ++i;
        std::size_t j = i;
        while (j < s.size() && s[j] != ' ' && s[j] != '\t')
            ++j;
        if (j > i)
            out.push_back(s.substr(i, j - i));
        i = j;
    }
    return out;
}

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
    for (;;) {
        if (closed_) {
            buffer_.clear();
            return false;
        }
        if (mode_ == Mode::Line) {
            const std::size_t eol = buffer_.find('\n');
            if (eol == std::string::npos)
                break;
            std::string line = buffer_.substr(0, eol);
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            buffer_.erase(0, eol + 1);
            handleLine(line, out);
        } else {
            // Payload plus its terminating newline.
            if (buffer_.size() < pending_bytes_ + 1)
                break;
            if (buffer_[pending_bytes_] != '\n') {
                protocolError("payload not followed by newline", out);
                continue;
            }
            std::string payload = buffer_.substr(0, pending_bytes_);
            buffer_.erase(0, pending_bytes_ + 1);
            mode_ = Mode::Line;
            handlePayload(std::move(payload), out);
        }
    }
    return !closed_;
}

void
ServiceSession::finish(std::string &out)
{
    if (closed_)
        return;
    if (!buffer_.empty())
        protocolError("input ended mid-frame", out);
    else
        flushBatch(out);
    closed_ = true;
}

void
ServiceSession::handleLine(const std::string &line, std::string &out)
{
    const std::vector<std::string> words = splitWords(line);
    if (words.empty())
        return;   // blank lines between frames are tolerated
    const std::string &cmd = words[0];

    if (cmd == "REQ") {
        std::uint64_t nbytes = 0;
        if (words.size() != 3 ||
            !harness::tryParseInteger(words[2], "REQ", nbytes).empty()) {
            protocolError("REQ wants 'REQ <id> <nbytes>', got '" +
                              line + "'",
                          out);
            return;
        }
        if (nbytes > MAX_FRAME_BYTES) {
            protocolError("REQ payload of " + words[2] +
                              " bytes exceeds the frame cap",
                          out);
            return;
        }
        pending_cmd_ = "REQ";
        pending_id_ = words[1];
        pending_bytes_ = nbytes;
        mode_ = Mode::Payload;
        return;
    }
    if (cmd == "SAVE" || cmd == "LOAD") {
        std::uint64_t nbytes = 0;
        if (words.size() != 2 ||
            !harness::tryParseInteger(words[1], cmd, nbytes).empty() ||
            nbytes > MAX_FRAME_BYTES) {
            protocolError(cmd + " wants '" + cmd + " <nbytes>', got '" +
                              line + "'",
                          out);
            return;
        }
        pending_cmd_ = cmd;
        pending_id_.clear();
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
    protocolError("unknown command '" + cmd +
                      "' (known: REQ, FLUSH, STATS, SAVE, LOAD, QUIT)",
                  out);
}

void
ServiceSession::handlePayload(std::string &&payload, std::string &out)
{
    if (pending_cmd_ == "REQ") {
        PendingReq p;
        p.id = std::move(pending_id_);
        // The zero-parse lane: byte-identical repeats resolve here,
        // before the parser ever sees the payload.
        p.resolved = svc_.rawProbe(payload);
        if (p.resolved == nullptr) {
            p.parsed = parseRequest(payload, "request '" + p.id + "'");
            p.parsed.id = p.id;
        }
        pending_.push_back(std::move(p));
        return;
    }
    // SAVE / LOAD: the payload is a file path, acted on immediately.
    std::string err;
    const bool ok = pending_cmd_ == "SAVE"
                        ? svc_.saveStateFile(payload, &err)
                        : svc_.loadStateFile(payload, &err);
    if (ok)
        out += pending_cmd_ == "SAVE" ? "OK save\n" : "OK load\n";
    else
        appendFrame(out, "ERR", err);
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
