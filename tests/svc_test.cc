/**
 * @file
 * The scheduling service: cache-key canonicalization, cold/warm byte
 * identity, warm-state persistence, batch determinism and the framed
 * protocol session.
 *
 *  - Textual request variants (whitespace, comments, block order,
 *    option order, redundant defaults) produce one canonical key and
 *    hit one cache entry, with byte-identical replies.
 *  - The zero-parse raw lane aliases canonical entries: byte-repeat
 *    payloads resolve without parsing, textual variants fall through
 *    to the canonical key and then prime their own raw entry, error
 *    replies never enter either lane, and a raw hit after FLUSH is
 *    byte-identical to the cold reply.
 *  - A warm service replays cold replies byte for byte, and a service
 *    rebuilt from encodeState() does the same — including the
 *    encode(decode(s)) == s round trip of the binary v4 snapshot,
 *    whole-snapshot rejection of version skew, truncation, a v3
 *    locality-memo section and the retired text v1 format, merge on
 *    decode, and the atomic file save.
 *  - Replies whose search hit the wall-clock deadline never enter a
 *    cache lane; replies stopped by the work cap are cached, and the
 *    cap binds the sat engine as it binds the branch and bound.
 *  - Batches are deterministic across --jobs and arrival order.
 *  - The session survives malformed payloads, out-of-range inputs and
 *    unknown registry names (error REP, not a dead server, and never a
 *    cache entry), keeps REP ids aligned with submission order, and
 *    closes on a command it does not know — the retired SAVE/LOAD
 *    frames included — or on a header longer than MAX_HEADER_BYTES.
 *    Frames parse the same however the input is chunked.
 *  - The TCP reactor serves interleaved connections whose frames
 *    arrive in tiny chunks split across reads (run under TSan in CI).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hh"
#include "harness/flags.hh"
#include "machine/presets.hh"
#include "svc/protocol.hh"
#include "svc/server.hh"
#include "svc/service.hh"
#include "svc/session.hh"
#include "svc/state.hh"
#include "text/format.hh"
#include "workloads/workloads.hh"

namespace mvp::svc
{
namespace
{

/** A small mixed request set: two suites, two machines, rmca. */
std::vector<std::string>
samplePayloads()
{
    std::vector<std::string> out;
    for (const char *suite : {"tomcatv", "swim"}) {
        const auto bench = workloads::benchmarkByName(suite);
        for (const auto &nest : bench.loops) {
            for (const auto &machine :
                 {makeTwoCluster(), makeFourCluster()}) {
                const text::ScenarioText scenario{nest, machine};
                out.push_back("config backend rmca\n"
                              "config threshold 0.25\n\n" +
                              text::printScenario(scenario));
            }
        }
    }
    return out;
}

std::vector<Request>
parseAll(const std::vector<std::string> &payloads)
{
    std::vector<Request> out;
    for (std::size_t i = 0; i < payloads.size(); ++i) {
        Request req = parseRequest(payloads[i]);
        req.id = std::string("r").append(std::to_string(i));
        EXPECT_EQ(req.error, "");
        out.push_back(std::move(req));
    }
    return out;
}

/** Run @p payload through one session @p rounds times, as REQ r0, r1,
 * ... each followed by a FLUSH, and return the REP payloads in order. */
std::vector<std::string>
replayAcrossFlushes(SchedService &service, const std::string &payload,
                    int rounds)
{
    std::string stream;
    for (int round = 0; round < rounds; ++round)
        stream += "REQ r" + std::to_string(round) + " " +
                  std::to_string(payload.size()) + "\n" + payload +
                  "\nFLUSH\n";
    stream += "QUIT\n";

    ServiceSession session(service);
    std::string out;
    session.consume(stream, out);

    std::vector<std::string> reps;
    std::size_t pos = 0;
    while ((pos = out.find("REP r", pos)) != std::string::npos) {
        const std::size_t head_end = out.find('\n', pos);
        const std::size_t nbytes = static_cast<std::size_t>(
            std::atoll(out.c_str() + pos + 7));
        reps.push_back(out.substr(head_end + 1, nbytes));
        pos = head_end + 1 + nbytes;
    }
    return reps;
}

TEST(SvcProtocol, ScenarioPrintParseRoundTrips)
{
    const auto bench = workloads::benchmarkByName("tomcatv");
    const text::ScenarioText scenario{bench.loops[0],
                                      makeTwoCluster()};
    const std::string printed = text::printScenario(scenario);
    const auto reparsed = text::parseScenario(printed, "round-trip");
    EXPECT_EQ(text::printScenario(reparsed), printed);
}

/** The canonicalization contract: every textual variant of one
 * request — comments, whitespace, block order, option order,
 * redundant defaults, equivalent number spellings — is one key. */
TEST(SvcProtocol, TextualVariantsShareOneCacheKey)
{
    const auto bench = workloads::benchmarkByName("tomcatv");
    const text::ScenarioText scenario{bench.loops[0],
                                      makeTwoCluster()};
    const std::string loop_text = text::printLoop(scenario.loop);
    const std::string machine_text =
        text::printMachine(scenario.machine);

    const std::string plain = "config backend rmca\n"
                              "config threshold 0.25\n\n" +
                              loop_text + "\n" + machine_text;

    // Comments, blank lines, option order, explicit defaults, the
    // machine block before the loop block, a trailing-zero threshold.
    const std::string variant = "# a comment\n"
                                "\n"
                                "config threshold 0.250\n"
                                "config locality cme\n"
                                "config backend rmca\n"
                                "config exact-backend exact\n"
                                "# another comment\n" +
                                machine_text + "\n# between blocks\n" +
                                loop_text + "\n";

    const Request a = parseRequest(plain);
    const Request b = parseRequest(variant);
    ASSERT_EQ(a.error, "");
    ASSERT_EQ(b.error, "");
    EXPECT_EQ(a.key, b.key);

    // And a semantically different request must not collide.
    const std::string other = "config backend rmca\n"
                              "config threshold 0.75\n\n" +
                              loop_text + "\n" + machine_text;
    const Request c = parseRequest(other);
    ASSERT_EQ(c.error, "");
    EXPECT_NE(a.key, c.key);
}

TEST(SvcProtocol, MalformedPayloadsReportInsteadOfExiting)
{
    const Request bad = parseRequest("loop garbage {", "test");
    EXPECT_NE(bad.error, "");
    const Request empty = parseRequest("config backend rmca\n");
    EXPECT_NE(empty.error, "");
    const Request unknown =
        parseRequest("config frobnicate 3\nloop \"x\" {\n}\n");
    EXPECT_NE(unknown.error.find("unknown config key"),
              std::string::npos);
}

/** One service, same batch twice: the warm pass is all cache hits and
 * byte-identical; a canonical variant of a request also hits. */
TEST(SvcService, WarmRepliesAreByteIdenticalToCold)
{
    const auto payloads = samplePayloads();
    SchedService service(2);

    auto cold = service.processBatch(parseAll(payloads));
    auto warm = service.processBatch(parseAll(payloads));
    ASSERT_EQ(cold.size(), warm.size());
    for (std::size_t i = 0; i < cold.size(); ++i) {
        EXPECT_FALSE(cold[i].cacheHit) << i;
        EXPECT_TRUE(warm[i].cacheHit) << i;
        EXPECT_EQ(cold[i].bytes(), warm[i].bytes()) << i;
    }

    const auto st = service.stats();
    EXPECT_EQ(st.requests,
              static_cast<std::int64_t>(2 * payloads.size()));
    EXPECT_EQ(st.cacheHits,
              static_cast<std::int64_t>(payloads.size()));
    EXPECT_EQ(st.cacheEntries,
              static_cast<std::int64_t>(payloads.size()));

    // A reordered textual variant of request 0 is a hit too.
    const Request plain = parseRequest(payloads[0]);
    std::string variant_payload =
        "# variant\nconfig threshold 0.250\nconfig backend rmca\n" +
        payloads[0].substr(payloads[0].find("\n\n") + 2);
    Request variant = parseRequest(variant_payload);
    ASSERT_EQ(variant.key, plain.key);
    const auto hit = service.processOne(std::move(variant));
    EXPECT_TRUE(hit.cacheHit);
    EXPECT_EQ(hit.bytes(), cold[0].bytes());
}

/** The zero-parse lane: a byte-identical repeat resolves via
 * rawProbe() with the *same* stored bytes as the canonical entry; a
 * textual variant misses the raw lane, falls through to the canonical
 * key, and then primes its own raw entry; parse errors never enter
 * either lane. */
TEST(SvcService, RawLaneAliasesCanonicalEntries)
{
    const auto bench = workloads::benchmarkByName("tomcatv");
    const text::ScenarioText scenario{bench.loops[0],
                                      makeTwoCluster()};
    const std::string payload = "config backend rmca\n"
                                "config threshold 0.25\n\n" +
                                text::printScenario(scenario);
    const std::string variant =
        "# variant spelling\nconfig threshold 0.250\n"
        "config backend rmca\n\n" +
        text::printScenario(scenario);

    SchedService service(1);
    EXPECT_EQ(service.rawProbe(payload), nullptr);

    const auto cold = service.processOne(parseRequest(payload));
    ASSERT_FALSE(cold.cacheHit);

    // The exact bytes now resolve without parsing — and alias the
    // canonical entry (same shared payload, not a copy).
    const ReplyBytes raw_hit = service.rawProbe(payload);
    ASSERT_NE(raw_hit, nullptr);
    EXPECT_EQ(raw_hit.get(), cold.payload.get());

    // A different spelling is a raw miss but a canonical hit; the
    // serve publishes its raw entry for next time.
    EXPECT_EQ(service.rawProbe(variant), nullptr);
    const auto via_key = service.processOne(parseRequest(variant));
    EXPECT_TRUE(via_key.cacheHit);
    EXPECT_EQ(via_key.bytes(), cold.bytes());
    const ReplyBytes variant_hit = service.rawProbe(variant);
    ASSERT_NE(variant_hit, nullptr);
    EXPECT_EQ(variant_hit.get(), cold.payload.get());

    // Parse errors quote the frame id: never cached, never raw.
    const std::string bad = "loop garbage {";
    const auto err = service.processOne(parseRequest(bad, "test"));
    EXPECT_FALSE(err.cacheHit);
    EXPECT_EQ(service.rawProbe(bad), nullptr);

    const auto st = service.stats();
    EXPECT_EQ(st.rawHits, 2);
    EXPECT_EQ(st.rawEntries, 2);
    EXPECT_EQ(st.cacheEntries, 1);
}

/** Through the session: the second identical REQ is answered from the
 * raw lane (no parse), across a FLUSH boundary, byte-identically. */
TEST(SvcSession, RawLaneHitsAcrossFlushesStayByteIdentical)
{
    const auto bench = workloads::benchmarkByName("swim");
    const text::ScenarioText scenario{bench.loops[0],
                                      makeTwoCluster()};
    const std::string payload = "config backend rmca\n\n" +
                                text::printScenario(scenario);

    SchedService service(1);
    // Three byte-identical REP payloads.
    const auto reps = replayAcrossFlushes(service, payload, 3);
    ASSERT_EQ(reps.size(), 3u);
    EXPECT_EQ(reps[0], reps[1]);
    EXPECT_EQ(reps[0], reps[2]);
    EXPECT_NE(reps[0].find("status ok"), std::string::npos);

    // Rounds 2 and 3 were raw-lane resolutions.
    EXPECT_EQ(service.stats().rawHits, 2);
}

/** A search the deadline cut short is not a pure function of its
 * cache key (a wall-clock cutoff depends on load), so neither a
 * verify reply carrying `budget-exhausted true` nor an exact
 * "budget exhausted" error may enter either cache lane: each repeat
 * is scheduled again. */
TEST(SvcSession, BudgetExhaustedRepliesAreNeverCached)
{
    const auto bench = workloads::benchmarkByName("swim");
    const std::string scenario = text::printScenario(
        text::ScenarioText{bench.loops[0], makeTwoCluster()});
    for (const char *backend : {"verify", "exact"}) {
        const std::string payload = std::string("config backend ") +
                                    backend +
                                    "\nconfig time-budget-ms 0\n\n" +
                                    scenario;
        SchedService service(1);
        const auto reps = replayAcrossFlushes(service, payload, 2);
        ASSERT_EQ(reps.size(), 2u) << backend;
        EXPECT_EQ(reps[0], reps[1]) << backend;
        const char *degraded = std::string(backend) == "verify"
                                   ? "budget-exhausted true"
                                   : "budget exhausted before any schedule";
        EXPECT_NE(reps[0].find(degraded), std::string::npos) << reps[0];
        const auto st = service.stats();
        EXPECT_EQ(st.cacheEntries, 0) << backend;
        EXPECT_EQ(st.rawEntries, 0) << backend;
        EXPECT_EQ(st.rawHits, 0) << backend;
        EXPECT_EQ(st.cacheHits, 0) << backend;
    }
}

/** tomcatv.rxry on the 2-cluster preset under @p config lines. */
std::string
rxryPayload(const std::string &config)
{
    const auto bench = workloads::benchmarkByName("tomcatv");
    const auto nest = std::find_if(
        bench.loops.begin(), bench.loops.end(),
        [](const auto &n) { return n.name() == "tomcatv.rxry"; });
    EXPECT_NE(nest, bench.loops.end());
    return config + "\n" +
           text::printScenario(text::ScenarioText{*nest, makeTwoCluster()});
}

/** `node-budget` caps whichever exact engine runs: uncapped, the sat
 * engine proves tomcatv.rxry optimal; at one conflict per solve it
 * cannot. */
TEST(SvcSession, SatEngineHonoursTheNodeBudget)
{
    SchedService service(1);
    const auto free_reps = replayAcrossFlushes(
        service, rxryPayload("config backend sat\n"), 1);
    ASSERT_EQ(free_reps.size(), 1u);
    EXPECT_NE(free_reps[0].find("proven-optimal true"), std::string::npos)
        << free_reps[0];

    const auto capped = replayAcrossFlushes(
        service,
        rxryPayload("config backend sat\nconfig node-budget 1\n"), 1);
    ASSERT_EQ(capped.size(), 1u);
    EXPECT_EQ(capped[0].find("proven-optimal true"), std::string::npos)
        << capped[0];
}

/** A search stopped by the work cap is a pure function of its cache
 * key (the cap is part of the key): its reply does not change under
 * load, and a repeat is answered from the cache. */
TEST(SvcSession, WorkCappedRepliesAreCachedAndLoadIndependent)
{
    const std::string payload =
        rxryPayload("config backend exact\nconfig node-budget 1\n");

    SchedService quiet(1);
    const auto calm = replayAcrossFlushes(quiet, payload, 2);

    std::atomic<bool> stop{false};
    std::thread spinner([&] {
        while (!stop.load(std::memory_order_relaxed)) {
        }
    });
    SchedService busy(1);
    const auto loaded = replayAcrossFlushes(busy, payload, 1);
    stop = true;
    spinner.join();

    ASSERT_EQ(calm.size(), 2u);
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_NE(calm[0].find("budget exhausted before any schedule"),
              std::string::npos)
        << calm[0];
    EXPECT_EQ(loaded[0], calm[0]);
    EXPECT_EQ(calm[1], calm[0]);
    const auto st = quiet.stats();
    EXPECT_EQ(st.cacheEntries, 1);
    EXPECT_EQ(st.cacheHits, 1);
}

/** Replies are a pure function of the request: job counts and arrival
 * order are invisible in the bytes. */
TEST(SvcService, BatchesAreDeterministicAcrossJobsAndOrder)
{
    const auto payloads = samplePayloads();

    SchedService serial(1);
    const auto a = serial.processBatch(parseAll(payloads));

    // Same requests, more workers, reversed arrival order.
    std::vector<std::string> reversed(payloads.rbegin(),
                                      payloads.rend());
    SchedService pooled(8);
    const auto b = pooled.processBatch(parseAll(reversed));

    ASSERT_EQ(a.size(), b.size());
    const std::size_t n = a.size();
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(a[i].bytes(), b[n - 1 - i].bytes()) << i;
}

/** Warm-state persistence: a service rebuilt from a snapshot replays
 * every reply byte-identically from its cache, and the snapshot
 * itself round-trips (encode(decode(s)) == s). */
TEST(SvcService, WarmStateRoundTripsAcrossServices)
{
    auto payloads = samplePayloads();
    // An oracle-provider request too: its reply is one more cache
    // entry, like every other.
    const auto bench = workloads::benchmarkByName("tomcatv");
    const text::ScenarioText scenario{bench.loops[0],
                                      makeTwoCluster()};
    payloads.push_back("config backend rmca\n"
                       "config locality oracle\n"
                       "config threshold 0.25\n\n" +
                       text::printScenario(scenario));

    SchedService first(2);
    const auto cold = first.processBatch(parseAll(payloads));
    const std::string snapshot = first.encodeState();

    // Deterministic encoding: same state, same bytes.
    EXPECT_EQ(first.encodeState(), snapshot);

    SchedService second(2);
    second.decodeState(snapshot, "test-snapshot");
    EXPECT_EQ(second.encodeState(), snapshot);

    const auto warm = second.processBatch(parseAll(payloads));
    ASSERT_EQ(warm.size(), cold.size());
    for (std::size_t i = 0; i < warm.size(); ++i) {
        EXPECT_TRUE(warm[i].cacheHit) << i;
        EXPECT_EQ(warm[i].bytes(), cold[i].bytes()) << i;
    }

    // The snapshot is the binary format, not text.
    ASSERT_GE(snapshot.size(), sizeof WARM_STATE_MAGIC);
    EXPECT_EQ(std::memcmp(snapshot.data(), WARM_STATE_MAGIC,
                          sizeof WARM_STATE_MAGIC),
              0);
}

/** Decoding merges: two half-snapshots loaded into one service equal
 * one service that computed everything itself. */
TEST(SvcService, LoadingTwoSnapshotsMergesKeepTheWinner)
{
    const auto payloads = samplePayloads();
    const std::size_t half = payloads.size() / 2;
    const std::vector<std::string> lo(payloads.begin(),
                                      payloads.begin() + half);
    const std::vector<std::string> hi(payloads.begin() + half,
                                      payloads.end());

    SchedService a(1), b(1), all(1);
    a.processBatch(parseAll(lo));
    b.processBatch(parseAll(hi));
    all.processBatch(parseAll(payloads));

    SchedService merged(1);
    merged.decodeState(a.encodeState(), "half-a");
    merged.decodeState(b.encodeState(), "half-b");
    EXPECT_EQ(merged.encodeState(), all.encodeState());

    // Re-loading what's already present changes nothing.
    merged.decodeState(a.encodeState(), "half-a-again");
    EXPECT_EQ(merged.encodeState(), all.encodeState());
}

/** Version skew, truncation, the retired text v1 format and a tag-2
 * section (the per-loop locality memos v3 wrote) reject the *whole*
 * snapshot: the service is untouched, not half-loaded. */
TEST(SvcService, CorruptSnapshotsAreRejectedWhole)
{
    const auto payloads = samplePayloads();
    SchedService donor(2);
    donor.processBatch(parseAll(payloads));
    const std::string good = donor.encodeState();

    // Binary with a skewed version word.
    std::string skewed(WARM_STATE_MAGIC, sizeof WARM_STATE_MAGIC);
    skewed += std::string("\xe7\x03\x00\x00", 4);   // version 999
    skewed += good.substr(sizeof WARM_STATE_MAGIC + 4);

    // Truncated mid-payload.
    const std::string truncated = good.substr(0, good.size() / 2);

    // A well-formed snapshot of the retired text v1 format.
    const std::string text_v1 =
        "mvp-warm-state 1\ncache 0\nloops 0\nend\n";

    // The good cache section plus an empty tag-2 section. good is
    // magic, version, nsections = 1, {tag 1, len}, cache body; a table
    // entry is a u32 tag and a u64 length.
    const std::size_t table_at = sizeof WARM_STATE_MAGIC + 8;
    std::string with_loops = good.substr(0, sizeof WARM_STATE_MAGIC + 4);
    with_loops += std::string("\x02\x00\x00\x00", 4);   // two sections
    with_loops += good.substr(table_at, 12);
    with_loops += std::string("\x02\x00\x00\x00", 4);   // tag 2
    with_loops += std::string("\x08\0\0\0\0\0\0\0", 8); // 8 bytes
    with_loops += good.substr(table_at + 12);
    with_loops += std::string(8, '\0');                 // zero loops

    SchedService victim(1);
    FatalScope guard;
    EXPECT_THROW(victim.decodeState(skewed, "skewed"), FatalError);
    EXPECT_THROW(victim.decodeState(truncated, "truncated"),
                 FatalError);
    EXPECT_THROW(victim.decodeState(text_v1, "text-v1"), FatalError);
    try {
        victim.decodeState(with_loops, "with-loops");
        ADD_FAILURE() << "a tag-2 section was accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("unknown section tag 2"),
                  std::string::npos)
            << e.what();
    }
    const auto st = victim.stats();
    EXPECT_EQ(st.cacheEntries, 0);
    EXPECT_EQ(st.loopContexts, 0);
    EXPECT_EQ(victim.encodeState(), SchedService(1).encodeState());
}

/** saveStateFile() writes `<path>.tmp.<pid>` and renames it over the
 * path:
 * a good save leaves no temporary behind, a failed one leaves the
 * previous snapshot as it was, and a save into a missing directory
 * fails with an error and creates nothing. */
TEST(SvcService, SnapshotFilesAreWrittenAtomically)
{
    namespace fs = std::filesystem;
    const std::string path = ::testing::TempDir() + "svc_test_state.bin";
    const std::string tmp =
        path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
    fs::remove_all(tmp);

    SchedService donor(1);
    donor.processBatch(parseAll(samplePayloads()));
    std::string error;
    ASSERT_TRUE(donor.saveStateFile(path, &error)) << error;
    EXPECT_FALSE(fs::exists(tmp));
    SchedService loaded(1);
    ASSERT_TRUE(loaded.loadStateFile(path, &error)) << error;
    EXPECT_EQ(loaded.encodeState(), donor.encodeState());

    // A save that cannot write its temporary fails and leaves the
    // previous snapshot intact.
    fs::create_directory(tmp);
    EXPECT_FALSE(SchedService(1).saveStateFile(path, &error));
    EXPECT_NE(error.find(tmp), std::string::npos) << error;
    SchedService reloaded(1);
    ASSERT_TRUE(reloaded.loadStateFile(path, &error)) << error;
    EXPECT_EQ(reloaded.encodeState(), donor.encodeState());
    fs::remove_all(tmp);
    fs::remove(path);

    const std::string missing =
        ::testing::TempDir() + "svc_test_no_such_dir/state.bin";
    error.clear();
    EXPECT_FALSE(donor.saveStateFile(missing, &error));
    EXPECT_NE(error, "");
    EXPECT_FALSE(fs::exists(missing));
    EXPECT_FALSE(fs::exists(fs::path(missing).parent_path()));
}

TEST(SvcService, DecodeRejectsVersionSkewInsideFatalScope)
{
    SchedService service(1);
    FatalScope guard;
    EXPECT_THROW(
        service.decodeState("mvp-warm-state 999\ncache 0\nloops 0\nend\n",
                            "skewed"),
        FatalError);
    EXPECT_THROW(service.decodeState("not a snapshot", "garbage"),
                 FatalError);
}

/** The framed protocol: byte-at-a-time feeding, malformed payloads
 * answered with error REPs (ids aligned, session alive), STATS, QUIT. */
TEST(SvcSession, ChunkedFramesMalformedPayloadsAndQuit)
{
    const auto bench = workloads::benchmarkByName("tomcatv");
    const text::ScenarioText scenario{bench.loops[0],
                                      makeTwoCluster()};
    const std::string good = "config backend rmca\n"
                             "config threshold 0.25\n\n" +
                             text::printScenario(scenario);
    const std::string bad = "loop garbage {";

    std::string stream;
    stream += "REQ good " + std::to_string(good.size()) + "\n" + good +
              "\n";
    stream += "REQ bad " + std::to_string(bad.size()) + "\n" + bad +
              "\n";
    stream += "FLUSH\n";
    stream += "STATS\n";
    stream += "QUIT\n";

    SchedService service(2);
    ServiceSession session(service);
    std::string out;
    bool open = true;
    for (const char c : stream)
        open = session.consume(&c, 1, out);
    EXPECT_FALSE(open);
    EXPECT_TRUE(session.closed());

    // Two REPs in submission order, then STATS, then BYE.
    ASSERT_EQ(out.compare(0, 9, "REP good "), 0) << out.substr(0, 40);
    const std::size_t bad_at = out.find("REP bad ");
    ASSERT_NE(bad_at, std::string::npos);
    const std::size_t err_at = out.find("status error", bad_at);
    EXPECT_NE(err_at, std::string::npos);
    EXPECT_NE(out.find("\nSTATS "), std::string::npos);
    EXPECT_EQ(out.compare(out.size() - 4, 4, "BYE\n"), 0);

    // The good reply matches a direct computation of the same
    // request.
    const auto direct = SchedService(1).processOne(parseRequest(good));
    const std::size_t head_end = out.find('\n');
    const std::size_t nbytes = static_cast<std::size_t>(
        std::atoll(out.c_str() + 9));
    EXPECT_EQ(out.substr(head_end + 1, nbytes), direct.bytes());
}

TEST(SvcSession, DegenerateCacheGeometryIsAnErrorReply)
{
    // A zero line size or associativity used to divide by zero inside
    // MachineConfig::validate and a zero capacity tripped an assertion
    // in the locality analysis; a negative latency and a threshold
    // outside [0, 1] used to be scheduled; the retired `hybrid`
    // locality provider and its `hybrid:<N>` spelling used to be
    // served; machine counts, element sizes, operand ids and operand
    // distances past 2^32 used to wrap to small ones and budgets past
    // 64 bits were clamped. Each is now a `status error`
    // reply and the session carries on to the next request.
    const auto bench = workloads::benchmarkByName("tomcatv");
    const std::string good = "config backend rmca\n\n" +
                             text::printScenario(text::ScenarioText{
                                 bench.loops[0], makeTwoCluster()});
    const auto with = [&](const std::string &from, const std::string &to) {
        const std::size_t at = good.find(from);
        EXPECT_NE(at, std::string::npos) << from;
        std::string payload = good;
        return payload.replace(at, from.size(), to);
    };
    const std::vector<std::pair<std::string, std::string>> requests = {
        {"line0", with("cache_line 32\n", "cache_line 0\n")},
        {"assoc0", with("cache_assoc 1\n", "cache_assoc 0\n")},
        {"bytes0", with("cache_bytes 8192\n", "cache_bytes 0\n")},
        {"latfp", with("lat_fp 2\n", "lat_fp -5\n")},
        {"clusters", with("clusters 2\n", "clusters 4294967298\n")},
        {"regs", with("regs 32\n", "regs 4294967328\n")},
        {"elem", with("elem=4 ", "elem=4294967300 ")},
        {"operand", with("%0 %1", "%4294967296 %1")},
        {"distance", with("%0 %1", "%0 %1@4294967297")},
        {"nodes", "config node-budget 99999999999999999999\n" + good},
        {"deadline", "config time-budget-ms -99999999999999999999\n" + good},
        {"thrnan", "config threshold nan\n" + good},
        {"thr2", "config threshold 2\n" + good},
        {"hybrid", "config locality hybrid\n" + good},
        {"hybrid2", "config locality hybrid:2\n" + good},
        {"good", good},
    };

    std::string stream;
    for (const auto &[id, payload] : requests)
        stream += "REQ " + id + " " + std::to_string(payload.size()) +
                  "\n" + payload + "\n";
    stream += "FLUSH\nQUIT\n";

    SchedService service(2);
    ServiceSession session(service);
    std::string out;
    EXPECT_FALSE(session.consume(stream.data(), stream.size(), out));

    for (const auto &[id, payload] : requests) {
        const std::size_t at = out.find("REP " + id + " ");
        ASSERT_NE(at, std::string::npos) << id;
        const std::size_t next = out.find("\nREP ", at + 1);
        const std::string reply = out.substr(at, next - at);
        EXPECT_EQ(reply.find("status error") != std::string::npos,
                  id != "good")
            << reply;
        if (id == "hybrid") {
            EXPECT_NE(reply.find("(known: cme, oracle)"),
                      std::string::npos)
                << reply;
        }
        if (id == "clusters" || id == "regs") {
            EXPECT_NE(reply.find("machine key '" + id + "'"),
                      std::string::npos)
                << reply;
        }
        if (id == "elem" || id == "operand" || id == "distance") {
            const std::string field = id == "elem"      ? "array 'X' elem"
                                      : id == "operand" ? "operand id"
                                                        : "operand distance";
            EXPECT_NE(reply.find(field + " value"), std::string::npos)
                << reply;
        }
        if (id == "nodes") {
            EXPECT_NE(reply.find("config node-budget value"),
                      std::string::npos)
                << reply;
        }
    }
    EXPECT_EQ(out.compare(out.size() - 4, 4, "BYE\n"), 0);
}

TEST(SvcSession, FramingErrorsCloseTheSession)
{
    SchedService service(1);
    ServiceSession session(service);
    std::string out;
    EXPECT_FALSE(session.consume(std::string("NONSENSE 3\n"), out));
    EXPECT_NE(out.find("unknown command"), std::string::npos);
    // Input after close is ignored.
    out.clear();
    EXPECT_FALSE(session.consume(std::string("STATS\n"), out));
    EXPECT_EQ(out, "");
}

/** A frame header is capped at MAX_HEADER_BYTES: a longer line gets
 * one ERR and closes the session instead of growing its buffer. */
TEST(SvcSession, OverlongHeadersAreRefused)
{
    SchedService service(1);
    {
        ServiceSession session(service);
        std::string out;
        EXPECT_FALSE(session.consume(std::string(1 << 20, 'x'), out));
        EXPECT_TRUE(session.closed());
        EXPECT_EQ(out.compare(0, 4, "ERR "), 0) << out;
        EXPECT_EQ(out.find("ERR ", 1), std::string::npos) << out;
        EXPECT_NE(out.find("frame header exceeds"), std::string::npos)
            << out;
    }
    // The cap holds across calls, and a line of exactly the cap is
    // still a line (a blank one here).
    ServiceSession session(service);
    std::string out;
    const std::string at_cap(MAX_HEADER_BYTES, ' ');
    EXPECT_TRUE(session.consume(at_cap.substr(0, 100), out));
    EXPECT_TRUE(session.consume(at_cap.substr(100) + "\nSTATS\n", out));
    EXPECT_EQ(out.compare(0, 6, "STATS "), 0) << out;
    out.clear();
    EXPECT_TRUE(session.consume(at_cap, out));
    EXPECT_FALSE(session.consume(std::string(" "), out));
    EXPECT_EQ(out.compare(0, 4, "ERR "), 0) << out;
}

/** Input that ends after a REQ header but before its payload is a
 * framing error, not a silently dropped request. */
TEST(SvcSession, InputEndingBeforeAPayloadIsAnError)
{
    SchedService service(1);
    ServiceSession session(service);
    std::string out;
    EXPECT_TRUE(session.consume(std::string("REQ a 5\n"), out));
    session.finish(out);
    EXPECT_EQ(out.compare(0, 4, "ERR "), 0) << out;
    EXPECT_NE(out.find("input ended mid-frame"), std::string::npos)
        << out;
}

/** One REQ frame plus FLUSH, for the chunking tests below. */
std::string
sampleFrame()
{
    const std::string payload = samplePayloads().front();
    return "REQ r0 " + std::to_string(payload.size()) + "\n" + payload +
           "\nFLUSH\n";
}

/** 262,144 blank lines ahead of a REQ and a FLUSH, all in one call,
 * give the reply a fresh session gives (the session used to erase each
 * line from the front of its buffer, quadratic in the line count). */
TEST(SvcSession, ManyFramesInOneChunkMatchAFreshSession)
{
    const std::string frame = sampleFrame();
    std::string want;
    {
        SchedService service(1);
        ServiceSession session(service);
        EXPECT_TRUE(session.consume(frame, want));
    }
    ASSERT_EQ(want.compare(0, 7, "REP r0 "), 0) << want;

    SchedService service(1);
    ServiceSession session(service);
    std::string out;
    EXPECT_TRUE(session.consume(std::string(262144, '\n') + frame, out));
    EXPECT_EQ(out, want);
}

/** A REQ frame split at every byte offset across two consume() calls
 * still parses to the same reply. */
TEST(SvcSession, FramesSplitAtEveryOffsetStillParse)
{
    const std::string frame = sampleFrame();
    SchedService service(1);
    std::string want;
    {
        ServiceSession session(service);
        EXPECT_TRUE(session.consume(frame, want));
    }
    ASSERT_EQ(want.compare(0, 7, "REP r0 "), 0) << want;
    for (std::size_t cut = 0; cut <= frame.size(); ++cut) {
        ServiceSession session(service);
        std::string out;
        EXPECT_TRUE(session.consume(frame.substr(0, cut), out));
        EXPECT_TRUE(session.consume(frame.substr(cut), out));
        ASSERT_EQ(out, want) << "split at byte " << cut;
    }
}

/** SAVE and LOAD are gone: the session answers them like any unknown
 * command, with ERR and a closed session, and touches no file. Warm
 * state reaches disk only through the operator's --state. */
TEST(SvcSession, SaveAndLoadFramesAreUnknownCommands)
{
    const std::string path = ::testing::TempDir() + "svc_test_save.bin";
    std::filesystem::remove(path);
    for (const std::string cmd : {"SAVE", "LOAD"}) {
        SchedService service(1);
        ServiceSession session(service);
        std::string out;
        const std::string frame = cmd + " " + std::to_string(path.size()) +
                                  "\n" + path + "\nSTATS\n";
        EXPECT_FALSE(session.consume(frame, out)) << cmd;
        EXPECT_TRUE(session.closed()) << cmd;
        EXPECT_EQ(out.compare(0, 4, "ERR "), 0) << out;
        EXPECT_NE(out.find("unknown command '" + cmd + "'"),
                  std::string::npos)
            << out;
        EXPECT_EQ(out.find("\nSTATS "), std::string::npos) << out;
        EXPECT_FALSE(std::filesystem::exists(path)) << cmd;
    }
}

/** An unknown backend or locality provider passes the parser (names
 * are checked when the request is scheduled) and gets an error reply —
 * every time, because the reply is never cached in either lane. */
TEST(SvcSession, UnknownRegistryNamesAreUncachedErrors)
{
    const auto bench = workloads::benchmarkByName("swim");
    const std::string scenario = text::printScenario(
        text::ScenarioText{bench.loops[0], makeTwoCluster()});
    for (const std::string config :
         {"config backend no-such-backend\n",
          "config locality no-such-provider\n"}) {
        SCOPED_TRACE(config);
        SchedService service(1);
        const auto reps =
            replayAcrossFlushes(service, config + "\n" + scenario, 2);
        ASSERT_EQ(reps.size(), 2u);
        for (const std::string &rep : reps)
            EXPECT_EQ(rep.compare(0, 13, "status error\n"), 0) << rep;
        EXPECT_EQ(reps[0], reps[1]);
        const std::string stats = service.renderStats();
        EXPECT_NE(stats.find("\ncache-entries 0\n"), std::string::npos)
            << stats;
        EXPECT_NE(stats.find("\nraw-entries 0\n"), std::string::npos)
            << stats;
        EXPECT_EQ(service.stats().errors, 2);
    }
}

/** The poll() reactor: two concurrent connections whose frames arrive
 * in tiny chunks, interleaved byte-for-byte, still produce replies
 * byte-identical to direct computation. Run under TSan in CI — the
 * reactor thread and the main thread share the service. */
TEST(SvcServer, ReactorServesChunkedInterleavedConnections)
{
    const auto bench = workloads::benchmarkByName("tomcatv");
    const text::ScenarioText s1{bench.loops[0], makeTwoCluster()};
    const text::ScenarioText s2{bench.loops[0], makeFourCluster()};
    const std::string p1 = "config backend rmca\n\n" +
                           text::printScenario(s1);
    const std::string p2 = "config backend rmca\n\n" +
                           text::printScenario(s2);
    const std::string bad = "loop garbage {";

    std::string stream1 = "REQ a " + std::to_string(p1.size()) + "\n" +
                          p1 + "\nFLUSH\n" + "REQ a2 " +
                          std::to_string(p1.size()) + "\n" + p1 +
                          "\nQUIT\n";
    std::string stream2 = "REQ b " + std::to_string(p2.size()) + "\n" +
                          p2 + "\n" + "REQ oops " +
                          std::to_string(bad.size()) + "\n" + bad +
                          "\nQUIT\n";

    SchedService service(2);
    TcpReactor reactor(service, 0);
    ASSERT_TRUE(reactor.ok()) << reactor.error();
    std::thread loop([&] { reactor.run(); });

    const auto connect = [&]() {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        EXPECT_GE(fd, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port =
            htons(static_cast<std::uint16_t>(reactor.port()));
        EXPECT_EQ(::connect(fd,
                            reinterpret_cast<const sockaddr *>(&addr),
                            sizeof addr),
                  0);
        return fd;
    };
    const int c1 = connect();
    const int c2 = connect();

    // Drip the two streams alternately, 7 bytes at a time, so every
    // frame is split across many reads and the two sessions
    // interleave on the loop thread.
    std::size_t o1 = 0, o2 = 0;
    while (o1 < stream1.size() || o2 < stream2.size()) {
        if (o1 < stream1.size()) {
            const std::size_t n = std::min<std::size_t>(
                7, stream1.size() - o1);
            ASSERT_EQ(::send(c1, stream1.data() + o1, n, 0),
                      static_cast<ssize_t>(n));
            o1 += n;
        }
        if (o2 < stream2.size()) {
            const std::size_t n = std::min<std::size_t>(
                7, stream2.size() - o2);
            ASSERT_EQ(::send(c2, stream2.data() + o2, n, 0),
                      static_cast<ssize_t>(n));
            o2 += n;
        }
    }

    const auto drain = [](int fd) {
        std::string out;
        char buf[4096];
        for (;;) {
            const ssize_t got = ::recv(fd, buf, sizeof buf, 0);
            if (got <= 0)
                break;
            out.append(buf, static_cast<std::size_t>(got));
            if (out.size() >= 4 &&
                out.compare(out.size() - 4, 4, "BYE\n") == 0)
                break;
        }
        return out;
    };
    const std::string out1 = drain(c1);
    const std::string out2 = drain(c2);
    ::close(c1);
    ::close(c2);
    reactor.stop();
    loop.join();

    // Extract one REP payload by id from a session's output.
    const auto rep = [](const std::string &out, const std::string &id) {
        const std::string head = "REP " + id + " ";
        const std::size_t at = out.find(head);
        if (at == std::string::npos)
            return std::string();
        const std::size_t nbytes = static_cast<std::size_t>(
            std::atoll(out.c_str() + at + head.size()));
        const std::size_t body = out.find('\n', at) + 1;
        return out.substr(body, nbytes);
    };

    SchedService direct(1);
    const std::string want1 =
        direct.processOne(parseRequest(p1)).bytes();
    const std::string want2 =
        direct.processOne(parseRequest(p2)).bytes();
    EXPECT_EQ(rep(out1, "a"), want1);
    // The repeat on connection 1 went through the raw lane (the FLUSH
    // published the entry) — still byte-identical.
    EXPECT_EQ(rep(out1, "a2"), want1);
    EXPECT_EQ(rep(out2, "b"), want2);
    EXPECT_NE(rep(out2, "oops").find("status error"),
              std::string::npos);
    EXPECT_EQ(out1.compare(out1.size() - 4, 4, "BYE\n"), 0);
    EXPECT_EQ(out2.compare(out2.size() - 4, 4, "BYE\n"), 0);
    EXPECT_GE(service.stats().rawHits, 1);
}

TEST(SvcFlags, UnknownFlagsAreFatalWithTheKnownList)
{
    const char *argv_c[] = {"prog", "--localty=oracle"};
    char **argv = const_cast<char **>(argv_c);
    EXPECT_EXIT(harness::rejectUnknownFlags(2, argv,
                                            {"--jobs", "--locality"}),
                testing::ExitedWithCode(1),
                "unknown flag '--localty'");
}

} // namespace
} // namespace mvp::svc
