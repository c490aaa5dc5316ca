/**
 * @file
 * Tests for the text frontend: round-trip stability over every builtin
 * workload and machine preset, grammar acceptance (comments, free-form
 * whitespace, hex numbers, recurrence operands), file IO, the `file:`
 * workload scheme, and the parser's diagnostics.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "machine/presets.hh"
#include "text/format.hh"
#include "workloads/workloads.hh"

namespace mvp::text
{
namespace
{

/** A scratch file removed at scope exit. */
class TempFile
{
  public:
    explicit TempFile(const std::string &stem)
        : path_(::testing::TempDir() + stem)
    {
    }
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

// ------------------------------------------------- round-trip property

TEST(TextRoundTrip, EveryBuiltinLoopReprintsIdentically)
{
    // parse(print(N)) must reprint byte-identically and preserve the
    // structural facts downstream layers read.
    for (const auto &bench : workloads::allBenchmarks()) {
        for (const auto &nest : bench.loops) {
            const std::string printed = printLoop(nest);
            const ir::LoopNest parsed = parseLoop(printed, nest.name());
            EXPECT_EQ(printLoop(parsed), printed) << nest.name();
            EXPECT_EQ(parsed.name(), nest.name());
            EXPECT_EQ(parsed.size(), nest.size()) << nest.name();
            EXPECT_EQ(parsed.depth(), nest.depth()) << nest.name();
            EXPECT_EQ(parsed.innerTripCount(), nest.innerTripCount());
            EXPECT_EQ(parsed.outerExecutions(), nest.outerExecutions());
            EXPECT_EQ(parsed.memoryOps(), nest.memoryOps());
            for (std::size_t a = 0; a < nest.arrays().size(); ++a) {
                const auto &want = nest.arrays()[a];
                const auto &got =
                    parsed.array(static_cast<ArrayId>(a));
                EXPECT_EQ(got.name, want.name);
                EXPECT_EQ(got.dims, want.dims);
                EXPECT_EQ(got.base, want.base);
                EXPECT_EQ(got.elemSize, want.elemSize);
            }
            for (std::size_t o = 0; o < nest.size(); ++o) {
                const auto &want = nest.ops()[o];
                const auto &got = parsed.op(static_cast<OpId>(o));
                EXPECT_EQ(got.opcode, want.opcode);
                EXPECT_EQ(got.name, want.name);
                ASSERT_EQ(got.inputs.size(), want.inputs.size());
                for (std::size_t k = 0; k < want.inputs.size(); ++k) {
                    EXPECT_EQ(got.inputs[k].producer,
                              want.inputs[k].producer);
                    EXPECT_EQ(got.inputs[k].distance,
                              want.inputs[k].distance);
                }
                EXPECT_EQ(got.memRef.has_value(),
                          want.memRef.has_value());
                if (want.memRef) {
                    EXPECT_TRUE(*got.memRef == *want.memRef);
                }
            }
        }
    }
}

TEST(TextRoundTrip, EveryMachinePresetReprintsIdentically)
{
    for (const MachineConfig &cfg :
         {makeUnified(), makeTwoCluster(), makeFourCluster()}) {
        const std::string printed = printMachine(cfg);
        const MachineConfig parsed = parseMachine(printed, cfg.name);
        EXPECT_EQ(printMachine(parsed), printed) << cfg.name;
        // summary() folds every field the experiments read.
        EXPECT_EQ(parsed.summary(), cfg.summary());
        EXPECT_EQ(parsed.missLatency(), cfg.missLatency());
        EXPECT_EQ(parsed.clusterCacheGeom(), cfg.clusterCacheGeom());
    }
}

TEST(TextRoundTrip, WholeFileWithSuiteDirective)
{
    LoopFile file;
    file.suite = "tomcatv";
    file.loops = workloads::benchmarkByName("tomcatv").loops;
    const std::string printed = printLoopFile(file);
    const LoopFile parsed = parseLoops(printed, "tomcatv");
    EXPECT_EQ(parsed.suite, "tomcatv");
    ASSERT_EQ(parsed.loops.size(), file.loops.size());
    EXPECT_EQ(printLoopFile(parsed), printed);
}

// ---------------------------------------------------------- grammar

TEST(TextParse, AcceptsCommentsFreeFormWhitespaceAndHex)
{
    const ir::LoopNest nest = parseLoop(R"(
      # a comment
      loop "grammar.demo" {
        for i = 0 to 16   # trailing comment
        for j = -2 to 30 step 2
        array A[16][70] elem=8 base=0x2000
        %0 = load A[i, 2*j + 5] %1 = fadd %0 %0@2
        %2 = fmadd "acc" %1 _ %2@1
        %3 = store %2 -> A[i, j + 4]
      }
    )");
    EXPECT_EQ(nest.size(), 4u);
    EXPECT_EQ(nest.loops()[1].lower, -2);
    EXPECT_EQ(nest.loops()[1].step, 2);
    EXPECT_EQ(nest.array(0).base, 0x2000u);
    EXPECT_EQ(nest.array(0).elemSize, 8);
    // %1 reads %0 at distances 0 and 2; %2 is a self-recurrence.
    EXPECT_EQ(nest.op(1).inputs[1].distance, 2);
    EXPECT_EQ(nest.op(2).inputs[2].producer, 2);
    EXPECT_EQ(nest.op(2).inputs[2].distance, 1);
    EXPECT_TRUE(nest.op(2).inputs[1].isLiveIn());
}

TEST(TextParse, MachineDefaultsApplyForOmittedKeys)
{
    const MachineConfig cfg = parseMachine(
        "machine \"tiny\" { clusters 2 regs 16 cache_bytes 4096 }");
    EXPECT_EQ(cfg.nClusters, 2);
    EXPECT_EQ(cfg.regsPerCluster, 16);
    EXPECT_EQ(cfg.totalCacheBytes, 4096);
    // Everything else keeps the MachineConfig default.
    EXPECT_EQ(cfg.intFusPerCluster, MachineConfig{}.intFusPerCluster);
    EXPECT_EQ(cfg.latMainMemory, MachineConfig{}.latMainMemory);
}

TEST(TextParse, NumbersReadAsStollReadsTheirWholeSpelling)
{
    // A number spans every alphanumeric character after its first
    // digit and must convert as a whole, the way std::stoll reads it:
    // base 16 after 0x, where a second 0x prefix is still accepted.
    const auto extent = [](const std::string &spelling) {
        return parseLoop("loop \"x\" { for i = 0 to 4 array A[" + spelling +
                         "] elem=4 base=0 %0 = load A[i] }")
            .array(0)
            .dims[0];
    };
    EXPECT_EQ(extent("012"), 12);
    EXPECT_EQ(extent("0x1f"), 31);
    EXPECT_EQ(extent("0X1F"), 31);
    EXPECT_EQ(extent("0x0x1f"), 31);
    for (const char *bad : {"0x", "0x0x", "0xg", "12ab", "0b1",
                            "9223372036854775808", "0x8000000000000000"})
        EXPECT_EXIT((void)extent(bad), ::testing::ExitedWithCode(1),
                    std::string("bad number '") + bad + "'")
            << bad;
}

TEST(TextPrint, CoefficientOfInt64MinPrintsItsMagnitude)
{
    // -9223372036854775807*i - i sums to INT64_MIN, which a one-trip
    // loop's subscript check lets through; its magnitude does not fit
    // an int64, and negating it there was undefined.
    const ir::LoopNest nest = parseLoop(
        "loop \"x\" { for i = 0 to 1 array A[16] elem=4 base=0\n"
        "%0 = load A[-9223372036854775807*i - i + 3] }");
    EXPECT_NE(printLoop(nest).find("A[-9223372036854775808*i + 3]"),
              std::string::npos)
        << printLoop(nest);
}

// ------------------------------------------------------- diagnostics

TEST(TextParseDeath, ReportsOriginAndLine)
{
    // The diagnostic carries the origin and the line of the offending
    // token (the '}' standing where 'to' should be).
    EXPECT_EXIT((void)parseLoop("loop \"x\" {\n  for i = 0\n}", "bad.loops"),
                ::testing::ExitedWithCode(1), "bad.loops:3: expected 'to'");
}

TEST(TextParseDeath, RejectsUnknownOpcode)
{
    EXPECT_EXIT((void)parseLoop(
                    "loop \"x\" { for i = 0 to 4 %0 = frob }"),
                ::testing::ExitedWithCode(1), "unknown opcode 'frob'");
}

TEST(TextParseDeath, RejectsUndeclaredArrayAndUnknownIv)
{
    EXPECT_EXIT((void)parseLoop(
                    "loop \"x\" { for i = 0 to 4 %0 = load B[i] }"),
                ::testing::ExitedWithCode(1), "undeclared array 'B'");
    EXPECT_EXIT((void)parseLoop("loop \"x\" { for i = 0 to 4 "
                                "array A[9] elem=4 base=0 "
                                "%0 = load A[q] }"),
                ::testing::ExitedWithCode(1),
                "unknown loop variable 'q'");
}

TEST(TextParseDeath, RejectsNonDenseOpIds)
{
    EXPECT_EXIT((void)parseLoop("loop \"x\" { for i = 0 to 4 "
                                "array A[9] elem=4 base=0 "
                                "%1 = load A[i] }"),
                ::testing::ExitedWithCode(1),
                "op ids must be dense");
}

TEST(TextParseDeath, RejectsInvalidNests)
{
    // Structurally well-formed text still goes through
    // LoopNest::validate(): out-of-bounds references are fatal.
    EXPECT_EXIT((void)parseLoop("loop \"x\" { for i = 0 to 40 "
                                "array A[9] elem=4 base=0 "
                                "%0 = load A[i] }"),
                ::testing::ExitedWithCode(1), "indexes");
    EXPECT_EXIT((void)parseLoop("loop \"x\" { }"),
                ::testing::ExitedWithCode(1), "has no loops");
}

TEST(TextParseDeath, RejectsUnknownMachineKey)
{
    EXPECT_EXIT((void)parseMachine("machine \"m\" { warp_drive 9 }"),
                ::testing::ExitedWithCode(1),
                "unknown machine key 'warp_drive'");
}

TEST(TextParseDeath, RejectsMachineValuesOutsideInt)
{
    // 2^32 + 2 and 2^32 + 32 would wrap to 2 clusters and 32 registers.
    EXPECT_EXIT((void)parseMachine("machine \"m\" { clusters 4294967298 }"),
                ::testing::ExitedWithCode(1),
                "machine key 'clusters' value 4294967298 is out of range");
    EXPECT_EXIT((void)parseMachine("machine \"m\" { regs 4294967328 }"),
                ::testing::ExitedWithCode(1),
                "machine key 'regs' value 4294967328 is out of range");
}

TEST(TextParseDeath, RejectsLoopValuesOutsideInt)
{
    // Each would wrap to a small value: elem=4, %0 and a distance of 1.
    const std::string head = "loop \"x\" { for i = 1 to 4 "
                             "array A[9] elem=4 base=0 "
                             "%0 = load A[i] ";
    EXPECT_EXIT((void)parseLoop("loop \"x\" { for i = 1 to 4 "
                                "array A[9] elem=4294967300 base=0 "
                                "%0 = load A[i] }"),
                ::testing::ExitedWithCode(1),
                "array 'A' elem value 4294967300 is out of range");
    EXPECT_EXIT((void)parseLoop(head + "%1 = fadd %4294967296 %0 }"),
                ::testing::ExitedWithCode(1),
                "operand id value 4294967296 is out of range");
    EXPECT_EXIT((void)parseLoop(head + "%1 = fadd %0 %0@4294967297 }"),
                ::testing::ExitedWithCode(1),
                "operand distance value 4294967297 is out of range");
    // Affine constants and coefficients sum in checked 64-bit
    // arithmetic: a wrapping sum is a parse error naming the term.
    EXPECT_EXIT((void)parseLoop(head + "%1 = load A[9223372036854775807 "
                                       "+ 9223372036854775807 + i] }"),
                ::testing::ExitedWithCode(1),
                "affine term 9223372036854775807 overflows");
    EXPECT_EXIT((void)parseLoop(head + "%1 = load A[-9223372036854775807 "
                                       "- 2 + i] }"),
                ::testing::ExitedWithCode(1), "affine term -2 overflows");
    EXPECT_EXIT((void)parseLoop(head + "%1 = load A[9223372036854775807*i "
                                       "+ i] }"),
                ::testing::ExitedWithCode(1), "affine term 1\\*i overflows");
}

// ------------------------------------------------------------ file IO

TEST(TextFiles, LoopFileSaveLoadRoundTrip)
{
    TempFile file("text_test.loops");
    LoopFile out;
    out.suite = "swim";
    out.loops = workloads::benchmarkByName("swim").loops;
    saveLoopFile(out, file.path());
    const LoopFile in = loadLoopFile(file.path());
    EXPECT_EQ(in.suite, "swim");
    EXPECT_EQ(printLoopFile(in), printLoopFile(out));
}

TEST(TextFiles, MachineFileSaveLoadRoundTrip)
{
    TempFile file("text_test.machine");
    saveMachineFile(makeFourCluster(), file.path());
    EXPECT_EQ(printMachine(loadMachineFile(file.path())),
              printMachine(makeFourCluster()));
}

TEST(TextFiles, MissingFileIsFatal)
{
    EXPECT_EXIT((void)loadLoopFile("/nonexistent/nowhere.loops"),
                ::testing::ExitedWithCode(1), "cannot read");
}

// ------------------------------------------------- file: workload scheme

TEST(TextFiles, FileSchemeResolvesThroughWorkloadRegistry)
{
    TempFile file("text_test_scheme.loops");
    LoopFile out;
    out.suite = "diskbench";
    out.loops = workloads::benchmarkByName("mgrid").loops;
    saveLoopFile(out, file.path());

    const auto bench =
        workloads::benchmarkByName("file:" + file.path());
    EXPECT_EQ(bench.name, "diskbench");
    ASSERT_EQ(bench.loops.size(), out.loops.size());
    EXPECT_EQ(printLoop(bench.loops[0]), printLoop(out.loops[0]));
}

} // namespace
} // namespace mvp::text
