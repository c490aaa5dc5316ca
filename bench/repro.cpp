/**
 * @file
 * The paper's figures and tables, one subcommand each:
 *
 *   repro fig3       Figure 3, the motivating example
 *   repro table1     Table 1, the machine configurations
 *   repro fig5       Figure 5, unbounded buses
 *   repro fig6       Figure 6, limited buses
 *   repro ablation   the RMCA component ablation
 *   repro unroll     unrolling x binding prefetching (§4.3)
 *
 * fig3 and table1 take no flags. The four sweeps take --jobs N,
 * --locality NAME and the observability flags; their output is
 * byte-identical at any --jobs. The reproductions live in
 * harness/repro.hh.
 */

#include <cstdio>
#include <string>

#include "common/logging.hh"
#include "harness/flags.hh"
#include "harness/repro.hh"

using namespace mvp;
using namespace mvp::harness;

int
main(int argc, char **argv)
{
    const std::string cmd = argc > 1 ? argv[1] : "";
    if (argc > 1) {
        // Drop the subcommand; the flag parsers skip argv[0].
        argv[1] = argv[0];
        ++argv;
        --argc;
    }

    std::string out;
    if (cmd == "fig3" || cmd == "table1") {
        rejectUnknownFlags(argc, argv, {});
        out = cmd == "fig3" ? formatFig3(reproduceFig3())
                            : formatTable1(reproduceTable1());
    } else if (cmd == "fig5" || cmd == "fig6" || cmd == "ablation" ||
               cmd == "unroll") {
        parseObservabilityFlags(argc, argv);
        ParallelDriver driver(parseJobsFlag(argc, argv));
        std::string locality = "cme";
        parseLocalityFlag(argc, argv, locality);
        rejectUnknownFlags(argc, argv,
                           {"--jobs", "--locality", "--log-level",
                            "--metrics", "--trace"});
        if (cmd == "unroll") {
            out = formatUnroll(reproduceUnroll(locality, driver));
        } else {
            Workbench bench;
            out = cmd == "fig5"
                      ? formatFig5(reproduceFig5(bench, locality, driver))
                  : cmd == "fig6"
                      ? formatFig6(reproduceFig6(bench, locality, driver))
                      : formatAblation(
                            reproduceAblation(bench, locality, driver));
        }
    } else {
        mvp_fatal("usage: repro fig3|table1|fig5|fig6|ablation|unroll "
                  "[flags] (got '", cmd, "')");
    }
    std::fputs(out.c_str(), stdout);
    return 0;
}
