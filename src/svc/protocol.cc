#include "svc/protocol.hh"

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace mvp::svc
{
namespace
{

std::string
trim(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

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

/** %.17g: distinct doubles render distinctly, equal ones identically —
 * exactly what a canonical key and a lossless reply need. */
std::string
fmtG(double v)
{
    return strprintf("%.17g", v);
}

bool
parseDouble(const std::string &s, double *out)
{
    char *end = nullptr;
    *out = std::strtod(s.c_str(), &end);
    return end != nullptr && *end == '\0' && !s.empty();
}

bool
parseInt64(const std::string &s, std::int64_t *out)
{
    char *end = nullptr;
    *out = std::strtoll(s.c_str(), &end, 10);
    return end != nullptr && *end == '\0' && !s.empty();
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
applyConfig(RequestOptions &opt, const std::string &key,
            const std::string &value)
{
    if (key == "backend") {
        opt.backend = value;
        return "";
    }
    if (key == "locality") {
        opt.locality = value;
        return "";
    }
    if (key == "exact-backend") {
        opt.exactBackend = value;
        return "";
    }
    if (key == "threshold") {
        if (!parseDouble(value, &opt.threshold))
            return "config threshold wants a number, got '" + value +
                   "'";
        if (!std::isfinite(opt.threshold) || opt.threshold < 0.0 ||
            opt.threshold > 1.0)
            return "config threshold wants a ratio in [0, 1], got '" +
                   value + "'";
        return "";
    }
    if (key == "time-budget-ms") {
        if (!parseInt64(value, &opt.timeBudgetMs))
            return "config time-budget-ms wants an integer, got '" +
                   value + "'";
        return "";
    }
    if (key == "node-budget") {
        if (!parseInt64(value, &opt.nodeBudget))
            return "config node-budget wants an integer, got '" +
                   value + "'";
        return "";
    }
    return "unknown config key '" + key +
           "' (known: " + KNOWN_CONFIG_KEYS + ")";
}

std::string
boolWord(bool v)
{
    return v ? "true" : "false";
}

} // namespace

std::string
canonicalOptionsText(const RequestOptions &options)
{
    std::string out;
    out += "config backend " + options.backend + "\n";
    out += "config exact-backend " + options.exactBackend + "\n";
    out += "config locality " + options.locality + "\n";
    out += "config node-budget " + std::to_string(options.nodeBudget) +
           "\n";
    out += "config threshold " + fmtG(options.threshold) + "\n";
    out += "config time-budget-ms " +
           std::to_string(options.timeBudgetMs) + "\n";
    return out;
}

Request
parseRequest(const std::string &payload, const std::string &origin)
{
    Request req;

    // The config prefix: every `config` line before the first
    // scenario line. Blank lines and comments inside the prefix are
    // skipped (comments cannot change a parse); everything from the
    // first non-config content line on is the scenario text.
    std::size_t pos = 0;
    std::size_t scenario_start = payload.size();
    while (pos < payload.size()) {
        std::size_t eol = payload.find('\n', pos);
        if (eol == std::string::npos)
            eol = payload.size();
        const std::string line = trim(payload.substr(pos, eol - pos));
        if (line.empty() || line[0] == '#') {
            pos = eol + 1;
            continue;
        }
        const std::vector<std::string> words = splitWords(line);
        if (words[0] != "config") {
            scenario_start = pos;
            break;
        }
        if (words.size() != 3) {
            req.error = origin + ": config lines are 'config KEY " +
                        "VALUE', got '" + line + "'";
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
            req.scenario = text::parseScenario(
                payload.substr(scenario_start), origin);
        } catch (const FatalError &e) {
            req.error = e.what();
            return req;
        }
    }

    req.raw = payload;
    req.loopKey = text::printLoop(req.scenario.loop);
    req.machineKey = text::printMachine(req.scenario.machine);
    req.key = canonicalOptionsText(req.options) + "\n" + req.loopKey +
              "\n" + req.machineKey;
    return req;
}

std::string
renderReply(const Request &request, const sched::ScheduleResult &result)
{
    const sched::SchedStats &st = result.stats;
    const sched::ModuloSchedule &sch = result.schedule;
    std::string out;
    out += "status ok\n";
    out += "loop \"" + request.scenario.loop.name() + "\"\n";
    out += "machine \"" + request.scenario.machine.name + "\"\n";
    out += "backend " + request.options.backend + "\n";
    out += "ii " + std::to_string(sch.ii()) + "\n";
    out += "stages " + std::to_string(sch.stageCount()) + "\n";
    out += "clusters " + std::to_string(sch.numClusters()) + "\n";
    out += "res-mii " + std::to_string(st.resMii) + "\n";
    out += "rec-mii " + std::to_string(st.recMii) + "\n";
    out += "mii " + std::to_string(st.mii) + "\n";
    out += "ii-attempts " + std::to_string(st.iiAttempts) + "\n";
    out += "comms " + std::to_string(st.comms) + "\n";
    out += "miss-scheduled-loads " +
           std::to_string(st.missScheduledLoads) + "\n";
    out += "ordering-both-neighbours " +
           std::to_string(st.orderingBothNeighbours) + "\n";
    out += "predicted-misses-per-iter " +
           fmtG(st.predictedMissesPerIter) + "\n";
    out += "proven-optimal " + boolWord(st.provenOptimal) + "\n";
    out += "ii-lower-bound " + std::to_string(st.iiLowerBound) + "\n";
    out += "pressure-optimal " + boolWord(st.pressureOptimal) + "\n";
    out += "search-nodes " + std::to_string(st.searchNodes) + "\n";
    out += "budget-exhausted " + boolWord(st.budgetExhausted) + "\n";
    out += "gap-known " + boolWord(st.gapKnown) + "\n";
    out += "exact-ii " + std::to_string(st.exactII) + "\n";
    out += "ii-gap " + std::to_string(st.iiGap) + "\n";

    std::string live;
    for (const int v : sch.maxLive())
        live += " " + std::to_string(v);
    out += "max-live" + live + "\n";

    const auto &placed = sch.placements();
    out += "ops " + std::to_string(placed.size()) + "\n";
    for (std::size_t v = 0; v < placed.size(); ++v) {
        const auto &p = placed[v];
        out += "op " + std::to_string(v) + " cluster " +
               std::to_string(p.cluster) + " time " +
               std::to_string(p.time) + " latency " +
               std::to_string(p.outLatency) + " miss " +
               boolWord(p.missScheduled) + "\n";
    }

    out += "transfers " + std::to_string(sch.comms().size()) + "\n";
    for (const auto &c : sch.comms())
        out += "comm producer " + std::to_string(c.producer) +
               " from " + std::to_string(c.from) + " to " +
               std::to_string(c.to) + " start " +
               std::to_string(c.xferStart) + " bus " +
               std::to_string(c.bus) + "\n";
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
