/**
 * @file
 * gem5-flavoured status and error reporting.
 *
 * panic()  - an internal invariant was violated (a bug in this library);
 *            aborts so the debugger or a core dump can take over.
 * fatal()  - the user asked for something impossible (bad configuration);
 *            exits with status 1.
 * warn()   - something works but not as well as it should.
 * inform() - neutral progress/status output.
 */

#ifndef MVP_COMMON_LOGGING_HH
#define MVP_COMMON_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace mvp
{

/** Verbosity levels for inform(); higher is chattier. */
enum class LogLevel { Quiet = 0, Normal = 1, Verbose = 2, Debug = 3 };

/**
 * What mvp_fatal() throws while a FatalScope is active on the calling
 * thread. Carries the composed message (without the file:line suffix
 * the exiting path prints — the catcher reports context its own way).
 */
class FatalError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * RAII guard turning mvp_fatal() into a throw of FatalError on this
 * thread for its lifetime. Long-running servers wrap the handling of
 * one request in a FatalScope so malformed input — which the parsers
 * and registries report via mvp_fatal() — rejects that request instead
 * of killing the process. Nests; panic() is unaffected.
 */
class FatalScope
{
  public:
    FatalScope();
    ~FatalScope();
    FatalScope(const FatalScope &) = delete;
    FatalScope &operator=(const FatalScope &) = delete;
};

/** Process-wide log level; default Normal. */
LogLevel logLevel();

/** Set the process-wide log level (e.g. from a harness flag). */
void setLogLevel(LogLevel level);

namespace detail
{

[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(LogLevel level, const std::string &msg);

/** Stream-compose a message from a variadic pack. */
template <typename... Args>
std::string
composeMessage(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail
} // namespace mvp

/** Abort: internal invariant violated. */
#define mvp_panic(...)                                                       \
    ::mvp::detail::panicImpl(__FILE__, __LINE__,                             \
                             ::mvp::detail::composeMessage(__VA_ARGS__))

/** Exit(1): unusable user configuration or input. */
#define mvp_fatal(...)                                                       \
    ::mvp::detail::fatalImpl(__FILE__, __LINE__,                             \
                             ::mvp::detail::composeMessage(__VA_ARGS__))

/** Non-fatal warning on stderr. */
#define mvp_warn(...)                                                        \
    ::mvp::detail::warnImpl(::mvp::detail::composeMessage(__VA_ARGS__))

/** Status message at Normal verbosity. */
#define mvp_inform(...)                                                      \
    ::mvp::detail::informImpl(::mvp::LogLevel::Normal,                       \
                              ::mvp::detail::composeMessage(__VA_ARGS__))

/**
 * Status message only shown at Verbose or Debug verbosity. Below that
 * the message is not composed at all: hot paths (every refuted II)
 * call this.
 */
#define mvp_verbose(...)                                                     \
    do {                                                                     \
        if (::mvp::logLevel() >= ::mvp::LogLevel::Verbose)                   \
            ::mvp::detail::informImpl(                                       \
                ::mvp::LogLevel::Verbose,                                    \
                ::mvp::detail::composeMessage(__VA_ARGS__));                 \
    } while (0)

/** panic() unless the condition holds. */
#define mvp_assert(cond, ...)                                                \
    do {                                                                     \
        if (!(cond)) {                                                       \
            ::mvp::detail::panicImpl(                                        \
                __FILE__, __LINE__,                                          \
                std::string("assertion failed: " #cond " ") +                \
                    ::mvp::detail::composeMessage(__VA_ARGS__));             \
        }                                                                    \
    } while (0)

#endif // MVP_COMMON_LOGGING_HH
