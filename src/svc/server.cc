#include "svc/server.hh"

#include <cerrno>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hh"
#include "obs/metrics.hh"

namespace mvp::svc
{

void
runStdioSession(SchedService &service, std::istream &in,
                std::ostream &out)
{
    ServiceSession session(service);
    std::string emitted;
    char buf[1 << 16];
    while (in) {
        in.read(buf, sizeof buf);
        const std::streamsize got = in.gcount();
        if (got <= 0)
            break;
        emitted.clear();
        const bool open = session.consume(
            buf, static_cast<std::size_t>(got), emitted);
        out.write(emitted.data(),
                  static_cast<std::streamsize>(emitted.size()));
        out.flush();
        if (!open)
            return;
    }
    emitted.clear();
    session.finish(emitted);
    out.write(emitted.data(),
              static_cast<std::streamsize>(emitted.size()));
    out.flush();
}

namespace
{

bool
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/** Drop the drained prefix of a connection's output buffer. Cheap
 * amortised: only compacts when the dead prefix dominates, and a
 * fully-drained buffer just resets (keeping its capacity — the
 * per-session reply scratch). */
void
compactOut(std::string &outbuf, std::size_t &off)
{
    if (off == outbuf.size()) {
        outbuf.clear();
        off = 0;
    } else if (off > (std::size_t(1) << 16) && off > outbuf.size() / 2) {
        outbuf.erase(0, off);
        off = 0;
    }
}

} // namespace

TcpReactor::TcpReactor(SchedService &service, int port)
    : service_(service)
{
    const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listener < 0) {
        error_ = "socket() failed";
        return;
    }
    const int one = 1;
    ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::bind(listener, reinterpret_cast<const sockaddr *>(&addr),
               sizeof addr) != 0) {
        error_ = "cannot bind 127.0.0.1:" + std::to_string(port);
        ::close(listener);
        return;
    }
    if (::listen(listener, 64) != 0 || !setNonBlocking(listener)) {
        error_ = "listen() failed";
        ::close(listener);
        return;
    }

    int pipefd[2];
    if (::pipe(pipefd) != 0 || !setNonBlocking(pipefd[0]) ||
        !setNonBlocking(pipefd[1])) {
        error_ = "cannot create the stop pipe";
        ::close(listener);
        return;
    }

    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    ::getsockname(listener, reinterpret_cast<sockaddr *>(&bound), &len);
    port_ = ntohs(bound.sin_port);
    listener_ = listener;
    wake_rd_ = pipefd[0];
    wake_wr_ = pipefd[1];
}

TcpReactor::~TcpReactor()
{
    for (auto &[fd, conn] : conns_)
        ::close(fd);
    conns_.clear();
    if (listener_ >= 0)
        ::close(listener_);
    if (wake_rd_ >= 0)
        ::close(wake_rd_);
    if (wake_wr_ >= 0)
        ::close(wake_wr_);
}

void
TcpReactor::stop()
{
    if (wake_wr_ < 0)
        return;
    const char byte = 'q';
    // A full pipe already guarantees a pending wakeup.
    (void)!::write(wake_wr_, &byte, 1);
}

void
TcpReactor::acceptReady()
{
    for (;;) {
        const int fd = ::accept(listener_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return;   // EAGAIN, or a transient accept failure
        }
        if (!setNonBlocking(fd)) {
            ::close(fd);
            continue;
        }
        conns_.emplace(fd, std::make_unique<Conn>(service_));
        obs::foldRtCounter("svc.reactor.accepts", 1);
    }
}

bool
TcpReactor::flushOut(Conn &conn, int fd)
{
    while (conn.out_off < conn.outbuf.size()) {
        const ssize_t got =
            ::send(fd, conn.outbuf.data() + conn.out_off,
                   conn.outbuf.size() - conn.out_off, MSG_NOSIGNAL);
        if (got < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                obs::foldRtCounter("svc.reactor.short_writes", 1);
                return true;   // wait for POLLOUT
            }
            return false;   // peer gone
        }
        conn.out_off += static_cast<std::size_t>(got);
    }
    compactOut(conn.outbuf, conn.out_off);
    return true;
}

bool
TcpReactor::readReady(Conn &conn, int fd)
{
    char buf[1 << 16];
    for (;;) {
        const ssize_t got = ::recv(fd, buf, sizeof buf, 0);
        if (got < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return true;
            return false;
        }
        if (got == 0) {
            // EOF without QUIT: serve what's queued, then drain.
            conn.session.finish(conn.outbuf);
            conn.draining = true;
            return true;
        }
        if (!conn.session.consume(buf, static_cast<std::size_t>(got),
                                  conn.outbuf)) {
            conn.draining = true;   // QUIT or framing error
            return true;
        }
    }
}

int
TcpReactor::run()
{
    if (!ok())
        return 1;

    std::vector<pollfd> fds;
    std::vector<int> dead;
    for (;;) {
        fds.clear();
        fds.push_back({wake_rd_, POLLIN, 0});
        fds.push_back({listener_, POLLIN, 0});
        for (const auto &[fd, conn] : conns_) {
            short events = 0;
            if (!conn->draining)
                events |= POLLIN;
            if (conn->out_off < conn->outbuf.size())
                events |= POLLOUT;
            fds.push_back({fd, events, 0});
        }

        const int n = ::poll(fds.data(),
                             static_cast<nfds_t>(fds.size()), -1);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            mvp_warn("svc: poll() failed");
            return 1;
        }

        if ((fds[0].revents & POLLIN) != 0)
            return 0;   // stop() requested
        if ((fds[1].revents & POLLIN) != 0)
            acceptReady();

        dead.clear();
        for (std::size_t i = 2; i < fds.size(); ++i) {
            const int fd = fds[i].fd;
            const short re = fds[i].revents;
            if (re == 0)
                continue;
            auto it = conns_.find(fd);
            if (it == conns_.end())
                continue;
            Conn &conn = *it->second;
            bool alive = (re & (POLLERR | POLLNVAL)) == 0;
            if (alive && (re & (POLLIN | POLLHUP)) != 0)
                alive = readReady(conn, fd);
            // Flush whatever the read produced (the common case: a
            // whole burst of REPs goes out right here, no extra poll
            // round) plus anything POLLOUT unblocked.
            if (alive)
                alive = flushOut(conn, fd);
            if (!alive ||
                (conn.draining && conn.out_off >= conn.outbuf.size()))
                dead.push_back(fd);
        }
        for (const int fd : dead) {
            ::close(fd);
            conns_.erase(fd);
        }
    }
}

} // namespace mvp::svc
