#include "svc/protocol.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "harness/flags.hh"

namespace mvp::svc
{
namespace
{

std::string_view
trim(std::string_view s)
{
    const std::size_t b = s.find_first_not_of(" \t\r");
    if (b == std::string_view::npos)
        return {};
    return s.substr(b, s.find_last_not_of(" \t\r") - b + 1);
}

/** Append @p v as %.17g: distinct doubles render distinctly, equal ones
 * identically — exactly what a canonical key and a lossless reply
 * need. */
void
appendG(std::string &out, double v)
{
    char buf[32];
    const int n = std::snprintf(buf, sizeof buf, "%.17g", v);
    out.append(buf, static_cast<std::size_t>(n));
}

const char *KNOWN_CONFIG_KEYS = "backend, exact-backend, locality, "
                                "node-budget, threshold, time-budget-ms";

/**
 * Apply one `config KEY VALUE` line. Returns an error message, or ""
 * on success. Registry names are not validated here: an unknown
 * backend/provider fatals inside the scheduling call, which the
 * service turns into an *uncached* error reply — the cache only ever
 * holds replies the registries actually produced.
 */
std::string
applyConfig(RequestOptions &opt, std::string_view key,
            std::string_view value)
{
    std::string *name = key == "backend"         ? &opt.backend
                        : key == "locality"      ? &opt.locality
                        : key == "exact-backend" ? &opt.exactBackend
                                                 : nullptr;
    if (name != nullptr) {
        *name = value;
        return "";
    }
    const std::string text(value);
    if (key == "threshold") {
        char *end = nullptr;
        opt.threshold = std::strtod(text.c_str(), &end);
        if (text.empty() || *end != '\0')
            return "config threshold wants a number, got '" + text + "'";
        if (!std::isfinite(opt.threshold) || opt.threshold < 0.0 ||
            opt.threshold > 1.0)
            return "config threshold wants a ratio in [0, 1], got '" +
                   text + "'";
        return "";
    }
    if (key == "time-budget-ms")
        return harness::tryParseInteger(text, "config time-budget-ms",
                                        opt.timeBudgetMs);
    if (key == "node-budget")
        return harness::tryParseInteger(text, "config node-budget",
                                        opt.nodeBudget);
    return "unknown config key '" + std::string(key) +
           "' (known: " + KNOWN_CONFIG_KEYS + ")";
}

} // namespace

std::size_t
splitWords(std::string_view line, Words &words)
{
    std::size_t count = 0;
    std::size_t i = 0;
    while (i < line.size()) {
        while (i < line.size() && (line[i] == ' ' || line[i] == '\t'))
            ++i;
        std::size_t j = i;
        while (j < line.size() && line[j] != ' ' && line[j] != '\t')
            ++j;
        if (j > i && count < words.size())
            words[count] = line.substr(i, j - i);
        if (j > i)
            ++count;
        i = j;
    }
    return count;
}

std::string
canonicalOptionsText(const RequestOptions &options)
{
    std::string out;
    strappend(out, "config backend ", options.backend,
              "\nconfig exact-backend ", options.exactBackend,
              "\nconfig locality ", options.locality,
              "\nconfig node-budget ", options.nodeBudget,
              "\nconfig threshold ");
    appendG(out, options.threshold);
    strappend(out, "\nconfig time-budget-ms ", options.timeBudgetMs, '\n');
    return out;
}

Request
parseRequest(std::string payload, const std::string &origin)
{
    Request req;

    // The config prefix: every `config` line before the first
    // scenario line. Blank lines and comments inside the prefix are
    // skipped (comments cannot change a parse); everything from the
    // first non-config content line on is the scenario text.
    const std::string_view text(payload);
    std::size_t pos = 0;
    std::size_t scenario_start = text.size();
    while (pos < text.size()) {
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string_view::npos)
            eol = text.size();
        const std::string_view line = trim(text.substr(pos, eol - pos));
        if (line.empty() || line[0] == '#') {
            pos = eol + 1;
            continue;
        }
        Words words;
        const std::size_t count = splitWords(line, words);
        if (words[0] != "config") {
            scenario_start = pos;
            break;
        }
        if (count != 3) {
            req.error = origin + ": config lines are 'config KEY " +
                        "VALUE', got '" + std::string(line) + "'";
            return req;
        }
        req.error = applyConfig(req.options, words[1], words[2]);
        if (!req.error.empty()) {
            req.error = origin + ": " + req.error;
            return req;
        }
        pos = eol + 1;
    }

    {
        FatalScope guard;
        try {
            req.scenario =
                text::parseScenario(text.substr(scenario_start), origin);
        } catch (const FatalError &e) {
            req.error = e.what();
            return req;
        }
    }

    req.raw = std::move(payload);
    req.loopKey = text::printLoop(req.scenario.loop);
    req.machineKey = text::printMachine(req.scenario.machine);
    req.key = canonicalOptionsText(req.options);
    req.key.reserve(req.key.size() + req.loopKey.size() +
                    req.machineKey.size() + 2);
    strappend(req.key, '\n', req.loopKey, '\n', req.machineKey);
    return req;
}

std::string
renderReply(const Request &request, const sched::ScheduleResult &result)
{
    const sched::SchedStats &st = result.stats;
    const sched::ModuloSchedule &sch = result.schedule;
    const auto boolWord = [](bool v) { return v ? "true" : "false"; };
    std::string out;
    strappend(out, "status ok\nloop \"", request.scenario.loop.name(),
              "\"\nmachine \"", request.scenario.machine.name,
              "\"\nbackend ", request.options.backend,
              "\nii ", sch.ii(), "\nstages ", sch.stageCount(),
              "\nclusters ", sch.numClusters(), "\nres-mii ", st.resMii,
              "\nrec-mii ", st.recMii, "\nmii ", st.mii,
              "\nii-attempts ", st.iiAttempts, "\ncomms ", st.comms,
              "\nmiss-scheduled-loads ", st.missScheduledLoads,
              "\nordering-both-neighbours ", st.orderingBothNeighbours,
              "\npredicted-misses-per-iter ");
    appendG(out, st.predictedMissesPerIter);
    strappend(out, "\nproven-optimal ", boolWord(st.provenOptimal),
              "\nii-lower-bound ", st.iiLowerBound,
              "\npressure-optimal ", boolWord(st.pressureOptimal),
              "\nsearch-nodes ", st.searchNodes,
              "\nbudget-exhausted ", boolWord(st.budgetExhausted),
              "\ngap-known ", boolWord(st.gapKnown),
              "\nexact-ii ", st.exactII, "\nii-gap ", st.iiGap,
              "\nmax-live");
    for (const int v : sch.maxLive())
        strappend(out, ' ', v);

    const auto &placed = sch.placements();
    strappend(out, "\nops ", placed.size(), '\n');
    for (std::size_t v = 0; v < placed.size(); ++v) {
        const auto &p = placed[v];
        strappend(out, "op ", v, " cluster ", p.cluster, " time ", p.time,
                  " latency ", p.outLatency, " miss ",
                  boolWord(p.missScheduled), '\n');
    }

    strappend(out, "transfers ", sch.comms().size(), '\n');
    for (const auto &c : sch.comms())
        strappend(out, "comm producer ", c.producer, " from ", c.from,
                  " to ", c.to, " start ", c.xferStart, " bus ", c.bus,
                  '\n');
    return out;
}

std::string
renderErrorReply(const std::string &message)
{
    std::string flat = message;
    for (char &c : flat)
        if (c == '\n' || c == '\r')
            c = ' ';
    return "status error\nerror " + flat + "\n";
}

} // namespace mvp::svc
