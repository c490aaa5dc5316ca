/**
 * @file
 * The scenario engine in four steps: write a loop and a machine in the
 * text format and parse them, generate synthetic scenarios from a
 * seed, dump a corpus that the `file:` workload scheme loads back, and
 * run the differential validation pipeline over generated scenarios.
 *
 * Usage: scenario_engine [--jobs N] [--scenarios N] [--seed S]
 */

#include <cstdio>
#include <cstring>

#include "gen/corpus.hh"
#include "gen/generator.hh"
#include "harness/differential.hh"
#include "harness/experiment.hh"
#include "harness/flags.hh"
#include "text/format.hh"

using namespace mvp;

namespace
{

/** A hand-written loop in the text grammar of docs/scenarios.md. */
const char *const SAXPY_TEXT = R"(
# y[i] += a * x[i], with X and Y one cache period apart.
loop "text.saxpy" {
  for rep = 0 to 8
  for i = 0 to 256
  array X[256] elem=4 base=0x10000
  array Y[256] elem=4 base=0x12000
  %0 = load "x" X[i]
  %1 = load "y" Y[i]
  %2 = fmul "ax" %0 _
  %3 = fadd "s" %2 %1
  %4 = store "sy" %3 -> Y[i]
}
)";

const char *const MACHINE_TEXT = R"(
machine "text.twocluster" {
  clusters 2
  int_fus 2
  fp_fus 2
  mem_fus 2
  regs 32
  reg_buses 2
  cache_bytes 8192
}
)";

} // namespace

int
main(int argc, char **argv)
{
    harness::parseObservabilityFlags(argc, argv);
    harness::ParallelDriver driver(harness::parseJobsFlag(argc, argv));
    harness::DiffOptions options;
    options.scenarios = 32;
    harness::parseTimeBudgetFlag(argc, argv, options.timeBudgetMs);
    harness::parseExactBackendFlag(argc, argv, options.exactBackend);
    harness::stripIntegerFlag(argc, argv, "--scenarios", "scenario count",
                              options.scenarios);
    harness::stripIntegerFlag(argc, argv, "--seed", "seed", options.seed,
                              0);
    harness::rejectUnknownFlags(
        argc, argv,
        {"--jobs", "--time-budget-ms", "--exact-backend",
         "--scenarios", "--seed", "--log-level", "--metrics",
         "--trace"});

    // --- 1. The text frontend: loops and machines are data, not code.
    // parseLoop validates the nest; the canonical reprint round-trips. ---
    const ir::LoopNest nest = text::parseLoop(SAXPY_TEXT, "saxpy");
    const MachineConfig machine =
        text::parseMachine(MACHINE_TEXT, "twocluster");
    std::printf("parsed '%s' (%zu ops) for %s\n", nest.name().c_str(),
                nest.size(), machine.summary().c_str());
    std::printf("canonical form:\n%s\n",
                text::printLoop(nest).c_str());

    // --- 2. The generator: a scenario is a pure function of a 64-bit
    // seed — same seed, same loop and machine, forever. ---
    const gen::Scenario sc = gen::generateScenario(options.seed);
    std::printf("generated scenario %llu: '%s' (%zu ops, depth %zu) "
                "on '%s'\n",
                static_cast<unsigned long long>(sc.seed),
                sc.nest.name().c_str(), sc.nest.size(),
                sc.nest.depth(), sc.machine.name.c_str());

    // --- 3. A corpus on disk, loaded back through the `file:` scheme
    // exactly like a builtin suite. ---
    gen::CorpusSpec spec;
    spec.seed = options.seed;
    spec.loops = 4;
    spec.machines = 1;
    const auto paths = gen::writeCorpus(spec, "scenario_corpus");
    std::printf("corpus: wrote %zu files under scenario_corpus/\n",
                paths.size());
    harness::Workbench bench({"file:" + paths.front()});
    std::printf("workbench from '%s': %zu loops\n\n",
                paths.front().c_str(), bench.entries().size());

    // --- 4. The differential pipeline: schedule, cross-check against
    // the exact backend, expand the kernel, simulate, compare CME to
    // the oracle — on every generated scenario. ---
    const auto report = harness::runDifferential(options, driver);
    std::printf("%s", report.summary().c_str());
    return report.failed() == 0 ? 0 : 1;
}
