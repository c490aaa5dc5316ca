/**
 * @file
 * Request payloads and reply payloads of the scheduling service.
 *
 * A request payload is plain text: optional `config KEY VALUE` lines
 * followed by a scenario (one `loop` block and one `machine` block,
 * text/format.hh grammar, either order, `#` comments anywhere). The
 * config keys, all optional:
 *
 *     config backend NAME           scheduler backend (default rmca)
 *     config locality NAME          locality provider (default cme)
 *     config threshold X            RMCA miss threshold (default 0.25)
 *     config time-budget-ms N       exact wall budget (default as repo)
 *     config node-budget N          exact work cap per II (default 0)
 *     config exact-backend NAME     verify engine (default exact)
 *
 * The cache key is the *canonical* rendering of the parsed request:
 * the config block reprinted in fixed order with every default made
 * explicit, then printScenario() of the parsed scenario. Any two
 * payloads that parse to the same request — whitespace, comments,
 * block order, option order, redundant defaults — share one key, so
 * the service's content-addressed cache returns byte-identical
 * replies for all of them.
 *
 * A reply payload is one `status` line followed by `FIELD VALUE`
 * lines: the schedule statistics, the optimality-gap certificate, the
 * per-op placements and the inter-cluster transfers. Doubles are
 * rendered with %.17g so re-rendering a parsed reply is lossless. An
 * error reply is `status error` plus an `error` line. Reply payloads
 * are pure functions of the cache key; the service caches them
 * verbatim.
 */

#ifndef MVP_SVC_PROTOCOL_HH
#define MVP_SVC_PROTOCOL_HH

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "sched/scheduler.hh"
#include "text/format.hh"

namespace mvp::svc
{

/** Per-request scheduler configuration (the `config` lines). */
struct RequestOptions
{
    std::string backend = "rmca";
    std::string locality = "cme";
    double threshold = 0.25;
    std::int64_t timeBudgetMs = sched::DEFAULT_TIME_BUDGET_MS;
    std::int64_t nodeBudget = 0;
    std::string exactBackend = "exact";
};

/** One parsed request. */
struct Request
{
    /** Frame id (client-chosen token); never part of the cache key. */
    std::string id;

    /**
     * Nonempty when the payload failed to parse; the other fields are
     * then meaningless and the reply is an uncached error payload.
     */
    std::string error;

    RequestOptions options;
    text::ScenarioText scenario;

    /**
     * The verbatim payload bytes as they arrived (empty on parse
     * error). After the reply is published under the canonical key,
     * the service also publishes raw -> reply in the zero-parse lane
     * so the next byte-identical payload skips parsing entirely.
     */
    std::string raw;

    /** Canonical cache key (empty on parse error). */
    std::string key;

    /** printLoop() of the parsed loop — the loop-context key. */
    std::string loopKey;

    /** printMachine() of the parsed machine — the DDG cache key. */
    std::string machineKey;
};

/**
 * Parse one request payload. Never exits the process: parser fatals
 * are captured (FatalScope) into Request::error, so a malformed
 * payload costs its sender one error reply, not the server.
 */
Request parseRequest(std::string payload,
                     const std::string &origin = "<request>");

/**
 * The canonical `config` block: fixed key order, every default
 * explicit, doubles via %.17g. The cache key is this text, a blank
 * line, then printScenario().
 */
std::string canonicalOptionsText(const RequestOptions &options);

/** The first words of a line: views into the line, unused ones empty. */
using Words = std::array<std::string_view, 3>;

/** Split @p line on spaces and tabs into @p words and return how many
 * words it holds (possibly more than fit): the tokeniser of `config`
 * lines and of the session's frame headers. */
std::size_t splitWords(std::string_view line, Words &words);

/** Render the reply payload for a scheduling result. */
std::string renderReply(const Request &request,
                        const sched::ScheduleResult &result);

/** Render an error reply payload (newlines flattened to spaces). */
std::string renderErrorReply(const std::string &message);

} // namespace mvp::svc

#endif // MVP_SVC_PROTOCOL_HH
