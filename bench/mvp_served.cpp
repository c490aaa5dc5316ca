/**
 * @file
 * The scheduling service as a long-running process.
 *
 * Default mode speaks the framed protocol (svc/session.hh) on
 * stdin/stdout — pipe a request stream in, read the replies; with
 * --listen it serves the same protocol on loopback TCP instead, one
 * session per connection sharing one cache and worker pool.
 *
 * Usage: mvp_served [--jobs N] [--state FILE] [--listen PORT]
 *                   [--log-level L] [--metrics[=F]] [--trace=F]
 *
 * --state FILE loads warm state (the schedule cache) from FILE at
 * startup when it exists — a missing or unreadable file is a cold
 * start, not an error — and saves back to FILE on the way out: in
 * stdio mode when the session ends, in TCP mode when SIGTERM or SIGINT
 * stops the listener. The save is atomic (svc/service.hh), so a
 * process killed mid-save leaves the previous snapshot intact.
 */

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <string>

#include "common/logging.hh"
#include "harness/flags.hh"
#include "svc/server.hh"
#include "svc/service.hh"

using namespace mvp;

namespace
{

/** The running TCP listener, for the signal handler (which may run on
 * any thread, the worker pool's included). */
std::atomic<svc::TcpReactor *> g_reactor{nullptr};

/** SIGTERM/SIGINT: wake the reactor through its self-pipe (a write(2),
 * so async-signal-safe); run() returns and main() saves the state. */
void
stopReactor(int)
{
    const int saved = errno;
    if (svc::TcpReactor *reactor = g_reactor.load())
        reactor->stop();
    errno = saved;
}

/** Serve TCP on 127.0.0.1:@p port until SIGTERM/SIGINT; the chosen
 * port is announced on stdout as `listening on <port>` (so scripted
 * clients can scrape it when 0 asked the kernel for one). */
int
serveTcp(svc::SchedService &service, int port)
{
    svc::TcpReactor reactor(service, port);
    if (!reactor.ok()) {
        mvp_warn("svc: ", reactor.error());
        return 1;
    }
    // Handlers go in before the announcement: a supervisor may signal
    // as soon as it reads it. A stop() before run() is a pending
    // wakeup, so run() returns at its first poll.
    g_reactor = &reactor;
    std::signal(SIGTERM, stopReactor);
    std::signal(SIGINT, stopReactor);
    std::printf("listening on %d\n", reactor.port());
    std::fflush(stdout);
    const int rc = reactor.run();
    // From here a second signal kills the process; the save is atomic.
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);
    g_reactor = nullptr;
    return rc;
}

/** Save to --state (when given); a failure is a warning, not an
 * error — the previous snapshot stays as it was. */
void
saveState(const svc::SchedService &service, const std::string &state)
{
    if (state.empty())
        return;
    std::string err;
    if (!service.saveStateFile(state, &err))
        mvp_warn("svc: warm state not saved: ", err);
}

} // namespace

int
main(int argc, char **argv)
{
    harness::parseObservabilityFlags(argc, argv);
    const int jobs = harness::parseJobsFlag(argc, argv);
    const std::string state =
        harness::stripValueFlag(argc, argv, "--state", "state file");
    const std::string listen =
        harness::stripValueFlag(argc, argv, "--listen", "TCP port");
    harness::rejectUnknownFlags(argc, argv,
                                {"--jobs", "--state", "--listen",
                                 "--log-level", "--metrics",
                                 "--trace"});

    svc::SchedService service(jobs);

    if (!state.empty()) {
        // Status goes to stderr: stdout is the reply stream in stdio
        // mode, and warm and cold runs must emit identical bytes
        // there.
        std::string err;
        if (service.loadStateFile(state, &err))
            std::fprintf(stderr, "svc: warm state loaded from '%s'\n",
                         state.c_str());
        else
            std::fprintf(stderr, "svc: cold start (%s)\n",
                         err.c_str());
    }

    if (!listen.empty()) {
        const int port = harness::parseInteger<int>(listen, "--listen");
        if (port < 0 || port > 65535)
            mvp_fatal("--listen wants a TCP port in 0..65535, got ",
                      port);
        const int rc = serveTcp(service, port);
        if (rc == 0)
            saveState(service, state);
        return rc;
    }

    svc::runStdioSession(service, std::cin, std::cout);
    saveState(service, state);
    return 0;
}
