/**
 * @file
 * Transports for the scheduling service: a stdio session (framed
 * protocol on stdin/stdout — the piped/batch mode CI drives) and a
 * loopback TCP reactor.
 *
 * The reactor is a single-threaded poll(2) event loop: every socket
 * is non-blocking, each connection owns a ServiceSession plus a
 * pending-output buffer, and frames are assembled incrementally from
 * whatever byte chunks the kernel delivers. Scheduling work still
 * runs on the service's persistent worker pool — a FLUSH executes the
 * batch inline on the loop thread via SchedService::processBatch,
 * which shards the batch across the pool; raw-lane hits never reach
 * the pool at all. Replies are gathered into the connection's output
 * buffer (one contiguous burst per FLUSH, reused across bursts) and
 * flushed with short-write/EINTR-safe non-blocking sends; whatever
 * the socket won't take immediately waits for POLLOUT backpressure
 * instead of blocking the loop.
 *
 * One loop thread replaces the old thread-per-connection design: no
 * per-connection stacks, no unbounded thread growth from idle
 * keep-alive connections, and cross-connection batches serialise in
 * exactly one place (the service's batch mutex) instead of racing to
 * it from N threads.
 */

#ifndef MVP_SVC_SERVER_HH
#define MVP_SVC_SERVER_HH

#include <cstddef>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>

#include "svc/service.hh"
#include "svc/session.hh"

namespace mvp::svc
{

/**
 * Run one protocol session over @p in / @p out until QUIT or EOF
 * (output is flushed after every input chunk, so a step-lock client
 * can converse). Queued requests left at EOF are served.
 */
void runStdioSession(SchedService &service, std::istream &in,
                     std::ostream &out);

/**
 * The poll(2) event loop behind `mvp_served --listen`: bind a port
 * (0 = kernel-assigned), run() the loop, and stop() it from another
 * thread or a signal handler. Not thread-safe except for stop().
 */
class TcpReactor
{
  public:
    /** Bind and listen on 127.0.0.1:@p port (0 = kernel-assigned).
     * Check ok() before run(); error() says what failed. */
    TcpReactor(SchedService &service, int port);
    ~TcpReactor();

    TcpReactor(const TcpReactor &) = delete;
    TcpReactor &operator=(const TcpReactor &) = delete;

    bool ok() const { return listener_ >= 0; }
    const std::string &error() const { return error_; }

    /** The bound port (valid when ok()). */
    int port() const { return port_; }

    /** Serve until stop(). Returns 0, or 1 when setup had failed. */
    int run();

    /** Ask a running loop to exit (thread-safe and
     * async-signal-safe: one write(2) to the self-pipe). Open
     * connections are closed; pending batches are dropped. */
    void stop();

  private:
    struct Conn
    {
        explicit Conn(SchedService &service) : session(service) {}

        ServiceSession session;
        /** Bytes emitted but not yet accepted by the socket. Kept
         * allocated across bursts — the reply-path scratch. */
        std::string outbuf;
        std::size_t out_off = 0;
        /** Input is done (EOF or session closed); the connection
         * lingers only until outbuf drains. */
        bool draining = false;
    };

    void acceptReady();
    /** Returns false when the connection should be dropped. */
    bool readReady(Conn &conn, int fd);
    /** Non-blocking flush of conn.outbuf; false = peer gone. */
    bool flushOut(Conn &conn, int fd);

    SchedService &service_;
    int listener_ = -1;
    int wake_rd_ = -1;   ///< self-pipe read end (poll()ed)
    int wake_wr_ = -1;   ///< self-pipe write end (stop() writes)
    int port_ = 0;
    std::string error_;
    std::map<int, std::unique_ptr<Conn>> conns_;
};

} // namespace mvp::svc

#endif // MVP_SVC_SERVER_HH
