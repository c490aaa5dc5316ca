/**
 * @file
 * The service's wire protocol: line-framed commands with length-framed
 * payloads, transport-agnostic.
 *
 * Client -> server, one command per line:
 *
 *     REQ <id> <nbytes>\n<payload>\n   queue one request (payload:
 *                                      svc/protocol.hh grammar)
 *     FLUSH\n                          serve the queued batch
 *     STATS\n                          service counters snapshot
 *     QUIT\n                           flush, say BYE, end the session
 *
 * Server -> client:
 *
 *     REP <id> <nbytes>\n<payload>\n   one per REQ, in submission
 *                                      order, after FLUSH
 *     STATS <nbytes>\n<payload>\n
 *     ERR <nbytes>\n<message>\n        a framing error; the session
 *                                      closes (the stream is
 *                                      desynchronised)
 *     BYE\n
 *
 * A malformed *payload* is not a framing error: it produces a normal
 * REP whose body is `status error` — ids stay aligned and the server
 * survives (svc/service.hh error containment). Only an unparseable
 * frame header, a header longer than MAX_HEADER_BYTES or an unknown
 * command closes the session. No command
 * touches the file system: warm state reaches disk only through the
 * operator's `mvp_served --state FILE`.
 *
 * ServiceSession is a pure byte transformer — feed it input chunks of
 * any size, collect output bytes — so the stdio server, the TCP
 * reactor and in-process tests/benches all drive the identical state
 * machine.
 *
 * Zero-parse warm lane: a REQ payload is first probed byte-for-byte
 * against the service's raw reply lane (svc/cache.hh). A hit resolves
 * the frame immediately — no parsing, no canonical printing, no trip
 * through the worker pool — and its REP is emitted at the next FLUSH
 * in submission order, interleaved correctly with cold frames from
 * the same batch. Because raw entries alias the canonical cache's
 * reply bytes, the warm reply is byte-identical to the cold one.
 */

#ifndef MVP_SVC_SESSION_HH
#define MVP_SVC_SESSION_HH

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "svc/protocol.hh"
#include "svc/service.hh"

namespace mvp::svc
{

/** Refuse absurd frames before allocating for them. */
constexpr std::size_t MAX_FRAME_BYTES = std::size_t(1) << 26;

/** Refuse a command line (a frame header) longer than this, so input
 * without a newline cannot grow the session's buffer without bound. */
constexpr std::size_t MAX_HEADER_BYTES = std::size_t(1) << 12;

class ServiceSession
{
  public:
    explicit ServiceSession(SchedService &service) : svc_(service) {}

    /**
     * Feed @p n input bytes; append whatever the session emits to
     * @p out. Returns false once the session has closed (QUIT or a
     * framing error) — further input is ignored.
     */
    bool consume(const char *data, std::size_t n, std::string &out);

    /** consume() for strings (tests, benches). */
    bool consume(const std::string &data, std::string &out)
    {
        return consume(data.data(), data.size(), out);
    }

    /**
     * End of input without QUIT: serve any queued requests (their
     * REPs land in @p out) so a piped client that forgot the final
     * FLUSH still gets its replies.
     */
    void finish(std::string &out);

    bool closed() const { return closed_; }

  private:
    enum class Mode { Line, Payload };

    /** One queued REQ frame: either already resolved from the raw
     * lane (no parse happened) or parsed and awaiting the batch. */
    struct PendingReq
    {
        std::string id;
        ReplyBytes resolved;   ///< nullptr until served
        Request parsed;        ///< meaningful only while !resolved
    };

    void handleLine(std::string_view line, std::string &out);
    void handlePayload(std::string &&payload);
    void flushBatch(std::string &out);
    void protocolError(const std::string &message, std::string &out);

    SchedService &svc_;
    std::string buffer_;
    Mode mode_ = Mode::Line;
    bool closed_ = false;

    std::string pending_id_;   ///< the REQ awaiting its payload
    std::size_t pending_bytes_ = 0;

    std::vector<PendingReq> pending_;
};

} // namespace mvp::svc

#endif // MVP_SVC_SESSION_HH
