/**
 * @file
 * Command-line flags shared by every suite binary in bench/: one
 * strip-and-parse helper plus the typed parsers built on it. Each
 * parser removes its flag from argv (compacting in place) so a binary
 * can layer its own argument handling after the shared ones; an
 * ill-formed value is fatal with a uniform message.
 *
 * Formerly these lived in harness/driver.{hh,cc}; they moved here when
 * the budget and backend flags joined, so binaries that only parse
 * flags stop pulling in the thread-pool header.
 */

#ifndef MVP_HARNESS_FLAGS_HH
#define MVP_HARNESS_FLAGS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace mvp::harness
{

/**
 * Strip every `FLAG VALUE` / `FLAG=VALUE` occurrence from @p argv,
 * compacting the remaining arguments in place. Returns the last value
 * seen ("" when the flag is absent); a flag with no value is fatal,
 * with @p value_desc naming what it wanted.
 */
std::string stripValueFlag(int &argc, char **argv,
                           const std::string &flag,
                           const char *value_desc);

/**
 * Parse all of @p text as an integer of type T (int, std::int64_t or
 * std::uint64_t) in @p base; base 0 also takes the C prefixes `0x` and
 * `0`. On success store the value in @p out and return "". An empty
 * value, junk, trailing characters, a sign on an unsigned type and a
 * value outside T's range return an error message naming @p what (the
 * flag, key or field the value came from) and leave @p out untouched.
 * The one integer parser for values arriving from outside the program.
 */
template <class T>
std::string tryParseInteger(const std::string &text,
                            const std::string &what, T &out,
                            int base = 10);

/** tryParseInteger(), with a refused value fatal. */
template <class T>
T parseInteger(const std::string &text, const std::string &what,
               int base = 10);

/**
 * Strip a `FLAG N` / `FLAG=N` flag (see stripValueFlag) and, when it
 * was given, store its value in @p out through parseInteger().
 * @p out keeps its default when the flag is absent.
 */
template <class T>
void
stripIntegerFlag(int &argc, char **argv, const std::string &flag,
                 const char *value_desc, T &out, int base = 10)
{
    const std::string value =
        stripValueFlag(argc, argv, flag, value_desc);
    if (!value.empty())
        out = parseInteger<T>(value, flag, base);
}

/**
 * Strip every occurrence of the valueless flag @p flag from @p argv,
 * compacting in place. Returns true when it appeared at least once.
 */
bool stripBoolFlag(int &argc, char **argv, const std::string &flag);

/**
 * Parse and strip a `--jobs N` / `--jobs=N` flag. Returns 0 when the
 * flag is absent — the ParallelDriver constructor maps 0 to
 * defaultJobs().
 */
int parseJobsFlag(int &argc, char **argv);

/**
 * Parse and strip a `--locality NAME` / `--locality=NAME` flag (a
 * locality-provider registry name) into @p out, which keeps its value
 * when the flag is absent.
 */
void parseLocalityFlag(int &argc, char **argv, std::string &out);

/**
 * Parse and strip a `--workloads A,B,...` / `--workloads=A,B,...`
 * flag: the comma-separated workload names a suite binary forwards
 * into the Workbench `only` selection. Every form
 * workloads::benchmarkByName accepts works here — builtin suites,
 * `file:<path>` loop files, `gen:<spec>` generated suites. Returns an
 * empty vector when the flag is absent (= all builtin suites).
 */
std::vector<std::string> parseWorkloadsFlag(int &argc, char **argv);

/**
 * Parse and strip a `--time-budget-ms N` / `--time-budget-ms=N` flag
 * into @p out: the wall-clock budget of the exact search per loop, in
 * milliseconds (SchedulerOptions::timeBudgetMs). Negative disables
 * the deadline, 0 expires it on entry. @p out keeps its value when
 * the flag is absent.
 */
void parseTimeBudgetFlag(int &argc, char **argv, std::int64_t &out);

/**
 * Parse and strip an `--exact-backend NAME` / `--exact-backend=NAME`
 * flag into @p out: the certifying engine verify-mode sweeps run
 * ("exact"/"bnb" branch and bound or "sat" CDCL search;
 * SchedulerOptions::exactBackend). A name not in the backend registry
 * is fatal, with the registered names listed. @p out keeps its value
 * when the flag is absent.
 */
void parseExactBackendFlag(int &argc, char **argv, std::string &out);

/**
 * Parse and strip a `--log-level LEVEL` / `--log-level=LEVEL` flag
 * (quiet|normal|verbose|debug) and apply it via setLogLevel().
 * Returns true when the flag was given; anything but the four names
 * is fatal.
 */
bool parseLogLevelFlag(int &argc, char **argv);

/**
 * Parse and strip the observability flags every suite binary shares:
 *
 *  - `--log-level=LEVEL` (see parseLogLevelFlag);
 *  - `--metrics[=FILE]`: enable the obs::Registry; its text report
 *    goes to stdout with the bare form, into FILE otherwise;
 *  - `--trace=FILE`: record Chrome trace-event JSON into FILE.
 *
 * The reports are written by an atexit hook (obs::metricsFinish /
 * obs::traceFinish), so binaries need no explicit teardown call.
 */
void parseObservabilityFlags(int &argc, char **argv);

/**
 * Fatal on any `--flag` still left in argv after a binary has run all
 * of its parsers, listing the flags it does accept (same shape as the
 * registries' unknown-name errors). Every parse*Flag helper strips the
 * flags it consumed from argv, so whatever still looks like a flag is
 * a typo — `--localty=oracle` must not silently run the default
 * provider. @p known is the binary's full flag list for the message.
 */
void rejectUnknownFlags(int argc, char **argv,
                        const std::vector<std::string> &known);

} // namespace mvp::harness

#endif // MVP_HARNESS_FLAGS_HH
