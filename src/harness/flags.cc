#include "harness/flags.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sched/backend.hh"

namespace mvp::harness
{

std::string
stripValueFlag(int &argc, char **argv, const std::string &flag,
               const char *value_desc)
{
    std::string value;
    const std::string prefix = flag + '=';
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == flag) {
            if (i + 1 >= argc)
                mvp_fatal(flag, " needs ", value_desc);
            value = argv[++i];
        } else if (arg.rfind(prefix, 0) == 0) {
            value = arg.substr(prefix.size());
        } else {
            argv[out++] = argv[i];
            continue;
        }
        if (value.empty())
            mvp_fatal(flag, " wants ", value_desc);
    }
    argc = out;
    return value;
}

template <class T>
std::string
tryParseInteger(const std::string &text, const std::string &what, T &out,
                int base)
{
    constexpr bool is_signed = std::numeric_limits<T>::is_signed;
    // strto* skip leading blanks and strtoull negates a '-' value, so
    // both are refused before the call.
    const bool bad_start =
        text.empty() || std::isspace(static_cast<unsigned char>(text[0])) ||
        (!is_signed && text[0] == '-');
    char *end = nullptr;
    errno = 0;
    T value{};
    bool in_range = true;
    if (!bad_start) {
        if constexpr (is_signed) {
            const long long v = std::strtoll(text.c_str(), &end, base);
            in_range = v >= std::numeric_limits<T>::min() &&
                       v <= std::numeric_limits<T>::max();
            value = static_cast<T>(v);
        } else {
            const unsigned long long v =
                std::strtoull(text.c_str(), &end, base);
            in_range = v <= std::numeric_limits<T>::max();
            value = static_cast<T>(v);
        }
    }
    if (bad_start || end == text.c_str() || *end != '\0')
        return what + " wants an integer, got '" + text + "'";
    if (errno == ERANGE || !in_range)
        return what + " value '" + text + "' is out of range";
    out = value;
    return "";
}

template <class T>
T
parseInteger(const std::string &text, const std::string &what, int base)
{
    T value{};
    if (const std::string error = tryParseInteger(text, what, value, base);
        !error.empty())
        mvp_fatal(error);
    return value;
}

template std::string tryParseInteger<int>(const std::string &,
                                         const std::string &, int &, int);
template std::string tryParseInteger<std::int64_t>(const std::string &,
                                                   const std::string &,
                                                   std::int64_t &, int);
template std::string tryParseInteger<std::uint64_t>(const std::string &,
                                                    const std::string &,
                                                    std::uint64_t &, int);
template int parseInteger<int>(const std::string &, const std::string &,
                               int);
template std::int64_t parseInteger<std::int64_t>(const std::string &,
                                                 const std::string &, int);
template std::uint64_t parseInteger<std::uint64_t>(const std::string &,
                                                   const std::string &,
                                                   int);

int
parseJobsFlag(int &argc, char **argv)
{
    const std::string value =
        stripValueFlag(argc, argv, "--jobs", "a worker count");
    if (value.empty())
        return 0;
    const int jobs = parseInteger<int>(value, "--jobs");
    if (jobs < 1)
        mvp_fatal("--jobs wants an integer >= 1, got '", value, "'");
    return jobs;
}

void
parseLocalityFlag(int &argc, char **argv, std::string &out)
{
    const std::string value =
        stripValueFlag(argc, argv, "--locality", "a provider name");
    if (!value.empty())
        out = value;
}

std::vector<std::string>
parseWorkloadsFlag(int &argc, char **argv)
{
    const std::string value = stripValueFlag(
        argc, argv, "--workloads", "a comma-separated workload list");
    std::vector<std::string> names;
    std::size_t pos = 0;
    while (pos < value.size()) {
        std::size_t end = value.find(',', pos);
        if (end == std::string::npos)
            end = value.size();
        if (end > pos)
            names.push_back(value.substr(pos, end - pos));
        pos = end + 1;
    }
    // An empty *result* means "all builtin suites" downstream; a flag
    // that was given but names nothing (e.g. "--workloads ,") must
    // not silently widen the sweep to everything.
    if (!value.empty() && names.empty())
        mvp_fatal("--workloads '", value, "' names no workloads");
    return names;
}

void
parseTimeBudgetFlag(int &argc, char **argv, std::int64_t &out)
{
    stripIntegerFlag(argc, argv, "--time-budget-ms", "a millisecond count",
                     out);
}

void
parseExactBackendFlag(int &argc, char **argv, std::string &out)
{
    const std::string value = stripValueFlag(
        argc, argv, "--exact-backend", "a scheduler backend name");
    if (value.empty())
        return;
    if (!sched::BackendRegistry::instance().has(value)) {
        std::string list;
        for (const std::string &n :
             sched::BackendRegistry::instance().names())
            list += (list.empty() ? "" : ", ") + n;
        mvp_fatal("--exact-backend '", value,
                  "' is not a registered scheduler backend (known: ",
                  list, ")");
    }
    out = value;
}

bool
parseLogLevelFlag(int &argc, char **argv)
{
    const std::string value =
        stripValueFlag(argc, argv, "--log-level", "a verbosity name");
    if (value.empty())
        return false;
    if (value == "quiet")
        setLogLevel(LogLevel::Quiet);
    else if (value == "normal")
        setLogLevel(LogLevel::Normal);
    else if (value == "verbose")
        setLogLevel(LogLevel::Verbose);
    else if (value == "debug")
        setLogLevel(LogLevel::Debug);
    else
        mvp_fatal("--log-level wants quiet|normal|verbose|debug, got '",
                  value, "'");
    return true;
}

void
parseObservabilityFlags(int &argc, char **argv)
{
    parseLogLevelFlag(argc, argv);

    // --metrics takes an *optional* value, which stripValueFlag cannot
    // express (it fatals on a valueless flag), so scan by hand: match
    // the exact flag or its `=` form, never a `--metrics-foo`.
    bool metrics_on = false;
    std::string metrics_path;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--metrics") {
            metrics_on = true;
        } else if (arg.rfind("--metrics=", 0) == 0) {
            metrics_on = true;
            metrics_path = arg.substr(sizeof "--metrics=" - 1);
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;

    const std::string trace_path =
        stripValueFlag(argc, argv, "--trace", "an output file");

    if (metrics_on)
        obs::metricsInit(metrics_path);
    if (!trace_path.empty())
        obs::traceInit(trace_path);
    if (metrics_on || !trace_path.empty()) {
        // One finish hook for both: reports land after the binary's
        // last sweep, whatever its exit path through main.
        std::atexit([] {
            obs::metricsFinish();
            obs::traceFinish();
        });
    }
}

bool
stripBoolFlag(int &argc, char **argv, const std::string &flag)
{
    bool seen = false;
    int w = 1;
    for (int i = 1; i < argc; ++i) {
        if (flag == argv[i]) {
            seen = true;
            continue;
        }
        argv[w++] = argv[i];
    }
    argc = w;
    return seen;
}

void
rejectUnknownFlags(int argc, char **argv,
                   const std::vector<std::string> &known)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0)
            continue;
        const std::string bare = arg.substr(0, arg.find('='));
        std::string list;
        for (const std::string &k : known)
            list += (list.empty() ? "" : ", ") + k;
        mvp_fatal("unknown flag '", bare, "' (known: ", list, ")");
    }
}

} // namespace mvp::harness
