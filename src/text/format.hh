/**
 * @file
 * Human-writable text format for loop nests and machine configurations.
 *
 * Everything the in-memory IR captures — loop bounds, array layouts,
 * operation dataflow with loop-carried distances, affine subscripts,
 * and the full multiVLIWprocessor parameter set — round-trips through
 * a line-oriented grammar (docs/scenarios.md) so that experiments are
 * no longer restricted to the eight compiled-in suites: loops can be
 * written by hand, emitted by the synthetic generator (src/gen/), and
 * fed back through the `file:<path>` workload scheme of the workloads
 * registry.
 *
 * Round-trip contract: for any valid nest N, parse(print(N)) is
 * structurally identical to N and print(parse(print(N))) == print(N)
 * byte for byte (property-tested over all builtin workloads). The
 * printer is the canonical form; the parser additionally accepts
 * flexible whitespace, `#` comments and omitted optional fields.
 *
 * Errors in user-supplied text are reported with mvp_fatal() carrying
 * the file name (when known) and line number.
 */

#ifndef MVP_TEXT_FORMAT_HH
#define MVP_TEXT_FORMAT_HH

#include <string>
#include <string_view>
#include <vector>

#include "ir/loop.hh"
#include "machine/machine.hh"

namespace mvp::text
{

/**
 * Contents of one loop file: any number of loop nests plus an optional
 * `suite "name"` directive naming the collection (the workloads
 * registry uses it as the benchmark name; empty means "derive from the
 * file name").
 */
struct LoopFile
{
    std::string suite;
    std::vector<ir::LoopNest> loops;
};

/** @name Loop nests */
/// @{

/** Canonical text rendering of one loop nest. */
std::string printLoop(const ir::LoopNest &nest);

/** Canonical rendering of a whole file (suite directive + loops). */
std::string printLoopFile(const LoopFile &file);

/**
 * Parse loop-file text. @p origin names the source in diagnostics
 * (a file path, or e.g. "<string>"). fatal() on malformed input;
 * every parsed nest is validate()d.
 */
LoopFile parseLoops(std::string_view text,
                    const std::string &origin = "<string>");

/** Parse text holding exactly one loop nest. */
ir::LoopNest parseLoop(std::string_view text,
                       const std::string &origin = "<string>");

/** Read and parse @p path; fatal() when unreadable. */
LoopFile loadLoopFile(const std::string &path);

/** Write the canonical rendering of @p file to @p path. */
void saveLoopFile(const LoopFile &file, const std::string &path);

/// @}

/** @name Machine configurations */
/// @{

/** Canonical text rendering of a machine configuration. */
std::string printMachine(const MachineConfig &cfg);

/**
 * Parse one `machine` block. Omitted keys keep their MachineConfig
 * defaults; the result is validate()d. fatal() on malformed input.
 */
MachineConfig parseMachine(std::string_view text,
                           const std::string &origin = "<string>");

/** Read and parse @p path; fatal() when unreadable. */
MachineConfig loadMachineFile(const std::string &path);

/** Write the canonical rendering of @p cfg to @p path. */
void saveMachineFile(const MachineConfig &cfg, const std::string &path);

/// @}

/** @name Scenarios (one loop + one machine in a single text) */
/// @{

/**
 * A self-contained scheduling scenario: exactly one loop nest and one
 * machine configuration. This is the wire payload of the scheduling
 * service (src/svc/) — the unit a single request describes.
 */
struct ScenarioText
{
    ir::LoopNest loop;
    MachineConfig machine;
};

/**
 * Canonical rendering: the loop block, a blank line, the machine
 * block. parseScenario(printScenario(s)) reprints byte-identically —
 * the service's content-addressed cache keys on this form.
 */
std::string printScenario(const ScenarioText &scenario);

/**
 * Parse one scenario: a `loop` block and a `machine` block in either
 * order (a `suite` directive is tolerated and ignored). fatal() unless
 * exactly one of each is present.
 */
ScenarioText parseScenario(std::string_view text,
                           const std::string &origin = "<string>");

/// @}

} // namespace mvp::text

#endif // MVP_TEXT_FORMAT_HH
