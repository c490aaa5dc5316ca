/**
 * @file
 * The scheduling service: batched requests on the persistent worker
 * pool, fronted by the content-addressed schedule cache and the
 * zero-parse raw-bytes lane.
 *
 * One SchedService owns
 *
 *  - a harness::ParallelDriver — requests of a batch are sharded
 *    across its pool exactly like sweep items, one SchedContext per
 *    worker (warm scratch across batches);
 *  - two reply memos (svc/cache.hh): the schedule cache of reply
 *    payloads keyed on the canonical request form (svc/protocol.hh),
 *    and the raw lane mapping verbatim request payload bytes to the
 *    same published reply pointers — a raw hit answers without
 *    parsing, printing or touching the pool at all;
 *  - per-loop contexts keyed on the canonical loop text: the owned
 *    nest, its cme::LoopLocality (each provider bound on first use,
 *    all on the loop's one StreamCache — the same holder a Workbench
 *    entry owns), and per-machine DDGs with their SCC tables
 *    pre-warmed — a restarted sweep over the same loop pays the build
 *    cost once, like Workbench entries.
 *
 * Determinism contract: every reply payload is a pure function of its
 * request's cache key. Batching, arrival order, client count and the
 * pool's --jobs never show in the bytes — the same guarantees the
 * sweep fingerprints rely on (key-derived sampling seeds,
 * keep-the-winner publication, backends that are deterministic within
 * their budgets). A cache hit replays the stored bytes verbatim, and
 * a raw-lane hit *aliases* the canonical entry's bytes (one shared
 * pointer, not a copy), so warm replies are byte-identical to cold
 * ones by construction. Raw entries are published only for replies
 * that live in the canonical cache; parse errors quote the frame id
 * and replies whose search hit the wall-clock deadline depend on
 * load, so neither ever enters a lane (a search stopped by the
 * node-budget work cap is deterministic and is cached).
 *
 * Warm-state persistence (svc/state.cc): encodeState() snapshots the
 * schedule cache plus every loop's CME/oracle memo through their
 * export APIs into the binary v3 format (svc/state.hh); decodeState()
 * republishes them into a fresh service and rejects anything else
 * whole (a retired text v1 snapshot means a cold start). The
 * raw lane is not persisted: it repopulates on first
 * canonicalization, and raw bytes are client-specific spellings with
 * unbounded variety — the canonical cache is the durable state.
 *
 * Error containment: request payloads are user input, and the repo's
 * registries and parsers fatal on bad input. Every worker wraps the
 * scheduling call in a FatalScope (common/logging.hh), so a malformed
 * payload or unknown registry name costs its sender one error reply —
 * never the process, and never a cache entry (only replies that were
 * actually computed are published).
 */

#ifndef MVP_SVC_SERVICE_HH
#define MVP_SVC_SERVICE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cme/provider.hh"
#include "common/stats.hh"
#include "ddg/ddg.hh"
#include "harness/driver.hh"
#include "ir/loop.hh"
#include "svc/cache.hh"
#include "svc/protocol.hh"

namespace mvp::svc
{

/** A point-in-time snapshot of the service counters. */
struct ServiceStats
{
    std::int64_t requests = 0;
    std::int64_t cacheHits = 0;
    std::int64_t cacheMisses = 0;
    std::int64_t rawHits = 0;
    std::int64_t errors = 0;
    std::int64_t batches = 0;
    std::int64_t cacheEntries = 0;
    std::int64_t rawEntries = 0;
    std::int64_t loopContexts = 0;
    double latencyP50Us = 0.0;
    double latencyP99Us = 0.0;
    double latencyMeanUs = 0.0;
};

class SchedService
{
  public:
    /** @p jobs <= 0 means harness::defaultJobs(). */
    explicit SchedService(int jobs = 0);
    ~SchedService();

    SchedService(const SchedService &) = delete;
    SchedService &operator=(const SchedService &) = delete;

    int jobs() const { return driver_.jobs(); }

    /** One served request. */
    struct Reply
    {
        /** The reply bytes (shared with the cache lanes on warm
         * paths — never copied per request). */
        ReplyBytes payload;
        bool cacheHit = false;
        bool rawHit = false;

        const std::string &bytes() const { return *payload; }
    };

    /**
     * The zero-parse warm lane: answer @p rawPayload from the
     * raw-bytes cache without parsing it. Returns nullptr on a miss
     * (the caller then parses and batches as usual). A hit is counted
     * as a request + cache hit in the service stats.
     */
    ReplyBytes rawProbe(const std::string &rawPayload);

    /**
     * Serve a batch: replies land in request order, one per request.
     * Thread-safe — concurrent batches (one per connection) serialise
     * on an internal mutex because the driver runs one sweep at a
     * time; requests *within* a batch run in parallel on the pool.
     */
    std::vector<Reply> processBatch(std::vector<Request> &&requests);

    /** processBatch of size one. */
    Reply processOne(Request &&request);

    /**
     * Account one flushed reply burst (frames framed + bytes emitted
     * + wall time): feeds the svc.flush.* metrics.
     */
    void noteFlush(std::size_t frames, std::size_t bytes, double us);

    ServiceStats stats() const;

    /** The STATS payload: `FIELD VALUE` lines, stable order. */
    std::string renderStats() const;

    /** @name Warm-state persistence (implemented in svc/state.cc) */
    /// @{

    /**
     * Serialise the schedule cache and every loop context's CME /
     * oracle memos as a binary v3 snapshot (svc/state.hh).
     * Deterministic: identical service state encodes to identical
     * bytes (all sections sorted canonically), and
     * encode(decode(s)) == s.
     */
    std::string encodeState() const;

    /**
     * Republish a previous encodeState() snapshot into this service
     * (keep-the-winner everywhere, so loading into a non-empty
     * service is safe). Accepts only the binary v3 format; anything
     * else (including the retired v1 text format) is rejected whole —
     * decoding stages the entire snapshot in memory before publishing
     * a single entry. fatal() on a malformed or version-mismatched
     * snapshot — callers serving user input wrap this in FatalScope.
     */
    void decodeState(const std::string &bytes,
                     const std::string &origin = "<state>");

    /** encodeState() to @p path; returns false with @p error set. */
    bool saveStateFile(const std::string &path, std::string *error) const;

    /** decodeState() from @p path; returns false with @p error set. */
    bool loadStateFile(const std::string &path, std::string *error);

    /// @}

  private:
    /**
     * Everything the service knows about one loop (keyed by canonical
     * loop text). The nest is owned and address-stable; DDGs build
     * lazily under the context mutex, analyses inside the loop's
     * LoopLocality, and both are shared by all subsequent requests
     * for the loop.
     */
    struct LoopContext
    {
        explicit LoopContext(ir::LoopNest n);

        ir::LoopNest nest;
        cme::LoopLocality locality;

        mutable std::mutex mu;   ///< guards ddgs
        std::map<std::string, std::unique_ptr<ddg::Ddg>> ddgs;

        /** The DDG for @p machineKey, built and SCC-warmed on first
         * use. The reference stays valid for the context's lifetime. */
        const ddg::Ddg &ddgFor(const MachineConfig &machine,
                               const std::string &machineKey);
    };

    /** Find-or-create the context for the request's loop (the nest is
     * copied in on first sight — the request keeps its own). */
    LoopContext &contextFor(const std::string &loopKey,
                            const ir::LoopNest &nest);

    /** Serve one request on a worker (never throws). */
    Reply serveOne(Request &request, sched::SchedContext &ctx);

    void noteRequest(std::chrono::steady_clock::time_point start,
                     bool hit, bool error, sched::SchedContext &ctx);

    harness::ParallelDriver driver_;
    ReplyMemo cache_;   ///< canonical request key -> reply
    ReplyMemo raw_;     ///< verbatim payload bytes -> the same reply

    mutable std::mutex ctx_mu_;   ///< guards contexts_
    std::map<std::string, std::unique_ptr<LoopContext>> contexts_;

    std::mutex batch_mu_;   ///< the driver runs one batch at a time

    mutable std::mutex stats_mu_;
    std::int64_t requests_ = 0;
    std::int64_t hits_ = 0;
    std::int64_t misses_ = 0;
    std::int64_t raw_hits_ = 0;
    std::int64_t errors_ = 0;
    std::int64_t batches_ = 0;
    Histogram latency_us_;
};

} // namespace mvp::svc

#endif // MVP_SVC_SERVICE_HH
