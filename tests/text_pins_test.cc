/**
 * @file
 * Byte-level pins of the text layer. Two FNV folds hold everything the
 * printers emit and everything parseRequest() makes of valid and
 * hostile payloads, so a rewrite of the printers or the lexer that
 * changes a single byte of output, an accepted IR or an error message
 * fails here. A deliberate format change must re-pin both with a
 * reason.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "gen/generator.hh"
#include "machine/presets.hh"
#include "svc/protocol.hh"
#include "text/format.hh"
#include "workloads/workloads.hh"

namespace mvp
{
namespace
{

/** Running FNV-1a over each folded string plus a separator byte. */
struct Fold
{
    std::uint64_t h = 1469598103934665603ULL;

    void add(const std::string &s)
    {
        for (const unsigned char c : s)
            step(c);
        step(0xff);
    }

    void step(unsigned char c)
    {
        h ^= c;
        h *= 1099511628211ULL;
    }
};

constexpr int GEN_SCENARIOS = 500;
constexpr std::uint64_t GEN_BASE = 0x7e47;

std::vector<MachineConfig>
presets()
{
    return {makeUnified(), makeTwoCluster(), makeFourCluster()};
}

/** Request payloads over a spread of loops, machines and options. */
std::vector<std::string>
payloads()
{
    std::vector<std::string> out;
    const auto machines = presets();
    const auto benches = workloads::allBenchmarks();
    const char *const configs[] = {
        "config backend rmca\nconfig threshold 0.25\n\n",
        "# a comment\nconfig locality cme\n  config   threshold 0.75\n\n",
        "config node-budget 20\nconfig exact-backend sat\n",
    };
    for (std::size_t b = 0; b < benches.size(); b += 2) {
        const auto &loops = benches[b].loops;
        const auto &nest = loops[b % loops.size()];
        out.push_back(configs[b % 3] +
                      text::printScenario({nest, machines[b % 3]}));
    }
    for (int i = 0; i < 3; ++i) {
        const gen::Scenario sc =
            gen::generateScenario(gen::deriveSeed(GEN_BASE, 100 + i));
        // Machine block first: the parser takes either order.
        out.push_back(configs[i] + text::printMachine(sc.machine) + "\n" +
                      text::printLoop(sc.nest));
    }
    return out;
}

std::vector<std::string>
lines(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos < s.size()) {
        std::size_t eol = s.find('\n', pos);
        if (eol == std::string::npos)
            eol = s.size();
        out.push_back(s.substr(pos, eol + 1 - pos));
        pos = eol + 1;
    }
    return out;
}

/**
 * Every payload broken in the ways a hostile or careless client breaks
 * one: truncated at every 7th byte, each byte (every 3rd) replaced by
 * a structural character, each line dropped or doubled, and each
 * number pushed to 2^31 or 2^63 (decimal and hex).
 */
std::vector<std::string>
hostileCorpus()
{
    static const char REPLACEMENTS[] = "\"%#-{}[]0x\n";
    static const char *const NUMBERS[] = {
        "2147483648", "9223372036854775808", "0x80000000",
        "0x8000000000000000"};
    std::vector<std::string> out;
    for (const std::string &p : payloads()) {
        out.push_back(p);
        for (std::size_t k = 0; k < p.size(); k += 7)
            out.push_back(p.substr(0, k));
        for (std::size_t i = 0; i < p.size(); i += 3)
            for (const char *c = REPLACEMENTS; *c; ++c)
                if (p[i] != *c) {
                    std::string q = p;
                    q[i] = *c;
                    out.push_back(std::move(q));
                }
        const std::vector<std::string> ls = lines(p);
        for (std::size_t l = 0; l < ls.size(); ++l) {
            std::string dropped, doubled;
            for (std::size_t j = 0; j < ls.size(); ++j) {
                dropped += j == l ? "" : ls[j];
                doubled += ls[j];
                doubled += j == l ? ls[j] : "";
            }
            out.push_back(std::move(dropped));
            out.push_back(std::move(doubled));
        }
        for (std::size_t i = 0; i < p.size();) {
            if (p[i] < '0' || p[i] > '9') {
                ++i;
                continue;
            }
            std::size_t end = i;
            while (end < p.size() && p[end] >= '0' && p[end] <= '9')
                ++end;
            for (const char *n : NUMBERS)
                out.push_back(p.substr(0, i) + n + p.substr(end));
            i = end;
        }
    }
    return out;
}

TEST(TextPins, PrintersFold)
{
    Fold fold;
    std::size_t printed = 0;
    const auto machines = presets();
    for (const auto &bench : workloads::allBenchmarks()) {
        fold.add(text::printLoopFile({bench.name, bench.loops}));
        for (const auto &nest : bench.loops)
            for (const auto &machine : machines) {
                fold.add(text::printLoop(nest));
                fold.add(text::printMachine(machine));
                fold.add(text::printScenario({nest, machine}));
                ++printed;
            }
    }
    for (int i = 0; i < GEN_SCENARIOS; ++i) {
        const gen::Scenario sc =
            gen::generateScenario(gen::deriveSeed(GEN_BASE, i));
        fold.add(text::printLoop(sc.nest));
        fold.add(text::printMachine(sc.machine));
        fold.add(text::printScenario({sc.nest, sc.machine}));
        ++printed;
    }
    EXPECT_EQ(printed, 96u + GEN_SCENARIOS);
    EXPECT_EQ(fold.h, 0x49a0dd3a5595a75bULL) << std::hex << "0x" << fold.h;
}

TEST(TextPins, ParseRequestFold)
{
    Fold fold;
    std::size_t accepted = 0;
    const std::vector<std::string> corpus = hostileCorpus();
    for (const std::string &payload : corpus) {
        const svc::Request req = svc::parseRequest(payload);
        if (req.error.empty()) {
            ++accepted;
            fold.add("K" + req.key);
        } else {
            fold.add("E" + req.error);
        }
    }
    EXPECT_EQ(corpus.size(), 25480u);
    EXPECT_EQ(accepted, 2752u);
    EXPECT_EQ(fold.h, 0x13cff583d461d8acULL) << std::hex << "0x" << fold.h;
}

} // namespace
} // namespace mvp
