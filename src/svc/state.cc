/**
 * @file
 * SchedService warm-state persistence (format: svc/state.hh): the
 * binary v2 writer and its staged, reject-whole reader.
 */

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cme/oracle.hh"
#include "cme/solver.hh"
#include "common/logging.hh"
#include "svc/service.hh"
#include "svc/state.hh"
#include "text/format.hh"

namespace mvp::svc
{
namespace
{

constexpr std::uint32_t TAG_CACHE = 1;
constexpr std::uint32_t TAG_LOOPS = 2;
constexpr std::uint32_t KIND_CME = 1;
constexpr std::uint32_t KIND_ORACLE = 2;

/** @name Binary v2 primitives (explicit little-endian byte order, so
 * snapshots are portable across hosts) */
/// @{

void
putU32(std::string &out, std::uint32_t v)
{
    char b[4];
    b[0] = static_cast<char>(v & 0xff);
    b[1] = static_cast<char>((v >> 8) & 0xff);
    b[2] = static_cast<char>((v >> 16) & 0xff);
    b[3] = static_cast<char>((v >> 24) & 0xff);
    out.append(b, 4);
}

void
putU64(std::string &out, std::uint64_t v)
{
    char b[8];
    for (int i = 0; i < 8; ++i)
        b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    out.append(b, 8);
}

void
putI64(std::string &out, std::int64_t v)
{
    putU64(out, static_cast<std::uint64_t>(v));
}

void
putF64(std::string &out, double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    putU64(out, bits);
}

void
putBlob(std::string &out, const std::string &s)
{
    putU64(out, s.size());
    out += s;
}

/** Bounds-checked cursor over binary snapshot bytes. Every helper
 * fatals on overrun (callers hold a FatalScope when the bytes are
 * user input), so a truncated snapshot can never publish anything. */
class BinReader
{
  public:
    BinReader(const std::string &bytes, const std::string &origin)
        : bytes_(bytes), origin_(origin)
    {
    }

    std::size_t pos() const { return pos_; }
    bool atEnd() const { return pos_ >= bytes_.size(); }

    void bytes(void *dst, std::size_t n)
    {
        need(n);
        std::memcpy(dst, bytes_.data() + pos_, n);
        pos_ += n;
    }

    std::uint32_t u32()
    {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(
                     static_cast<unsigned char>(bytes_[pos_ + i]))
                 << (8 * i);
        pos_ += 4;
        return v;
    }

    std::uint64_t u64()
    {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(bytes_[pos_ + i]))
                 << (8 * i);
        pos_ += 8;
        return v;
    }

    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

    double f64()
    {
        const std::uint64_t bits = u64();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }

    std::string blob()
    {
        const std::uint64_t n = u64();
        need(n);
        std::string out = bytes_.substr(pos_, n);
        pos_ += n;
        return out;
    }

    /** A count that will be used as a loop bound / reserve size:
     * bounded by the bytes that could plausibly back it. */
    std::uint64_t count()
    {
        const std::uint64_t n = u64();
        if (n > bytes_.size())
            mvp_fatal(origin_, ": snapshot count ", n,
                      " exceeds the snapshot size");
        return n;
    }

  private:
    void need(std::uint64_t n) const
    {
        if (n > bytes_.size() - pos_)
            mvp_fatal(origin_, ": truncated warm-state snapshot");
    }

    const std::string &bytes_;
    const std::string origin_;
    std::size_t pos_ = 0;
};

/// @}

/** @name Staging — the decoded-but-not-yet-published snapshot */
/// @{

struct StagedProvider
{
    std::string name;
    std::uint32_t kind = 0;
    std::vector<cme::CmeMemoEntry> cme;
    std::vector<cme::OracleMemoEntry> oracle;
};

struct StagedLoop
{
    std::string text;
    ir::LoopNest nest;
    std::vector<StagedProvider> providers;
};

struct StagedState
{
    std::vector<std::pair<std::string, std::string>> cache;
    std::vector<StagedLoop> loops;
};

/// @}

/** @name Binary v2 provider entry records */
/// @{

void
putCmeEntries(std::string &out,
              const std::vector<cme::CmeMemoEntry> &entries)
{
    putU64(out, entries.size());
    for (const auto &e : entries) {
        putI64(out, e.geom.capacityBytes);
        putI64(out, e.geom.lineBytes);
        putU32(out, static_cast<std::uint32_t>(e.geom.assoc));
        putU32(out, static_cast<std::uint32_t>(e.op));
        putU64(out, e.set.size());
        for (const OpId id : e.set)
            putU32(out, static_cast<std::uint32_t>(id));
        putF64(out, e.value.ratio);
        putF64(out, e.value.ciHalfWidth);
    }
}

void
putOracleEntries(std::string &out,
                 const std::vector<cme::OracleMemoEntry> &entries)
{
    putU64(out, entries.size());
    for (const auto &e : entries) {
        putI64(out, e.geom.capacityBytes);
        putI64(out, e.geom.lineBytes);
        putU32(out, static_cast<std::uint32_t>(e.geom.assoc));
        putU64(out, e.set.size());
        for (const OpId id : e.set)
            putU32(out, static_cast<std::uint32_t>(id));
        putI64(out, e.points);
        for (const std::int64_t v : e.misses)
            putI64(out, v);
        putU64(out, e.perSetMisses.size());
        for (const std::int64_t v : e.perSetMisses)
            putI64(out, v);
        putU64(out, e.tags.size());
        for (const std::int64_t v : e.tags)
            putI64(out, v);
    }
}

std::vector<cme::CmeMemoEntry>
takeCmeEntries(BinReader &in)
{
    const std::uint64_t count = in.count();
    std::vector<cme::CmeMemoEntry> out;
    out.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        cme::CmeMemoEntry e;
        e.geom.capacityBytes = in.i64();
        e.geom.lineBytes = in.i64();
        e.geom.assoc = static_cast<int>(in.u32());
        e.op = static_cast<OpId>(in.u32());
        const std::uint64_t n = in.count();
        e.set.reserve(n);
        for (std::uint64_t j = 0; j < n; ++j)
            e.set.push_back(static_cast<OpId>(in.u32()));
        e.value.ratio = in.f64();
        e.value.ciHalfWidth = in.f64();
        out.push_back(std::move(e));
    }
    return out;
}

std::vector<cme::OracleMemoEntry>
takeOracleEntries(BinReader &in)
{
    const std::uint64_t count = in.count();
    std::vector<cme::OracleMemoEntry> out;
    out.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        cme::OracleMemoEntry e;
        e.geom.capacityBytes = in.i64();
        e.geom.lineBytes = in.i64();
        e.geom.assoc = static_cast<int>(in.u32());
        const std::uint64_t n = in.count();
        e.set.reserve(n);
        for (std::uint64_t j = 0; j < n; ++j)
            e.set.push_back(static_cast<OpId>(in.u32()));
        e.points = in.i64();
        e.misses.reserve(n);
        for (std::uint64_t j = 0; j < n; ++j)
            e.misses.push_back(in.i64());
        const std::uint64_t npsm = in.count();
        e.perSetMisses.reserve(npsm);
        for (std::uint64_t j = 0; j < npsm; ++j)
            e.perSetMisses.push_back(in.i64());
        const std::uint64_t ntags = in.count();
        e.tags.reserve(ntags);
        for (std::uint64_t j = 0; j < ntags; ++j)
            e.tags.push_back(in.i64());
        out.push_back(std::move(e));
    }
    return out;
}

/// @}

} // namespace

std::string
SchedService::encodeState() const
{
    // Section bodies first; the header's table needs their sizes.
    std::string cache_body;
    {
        std::vector<std::pair<std::string, std::string>> entries;
        cache_.forEach([&](const std::string &key,
                           const std::string &payload) {
            entries.emplace_back(key, payload);
        });
        std::sort(entries.begin(), entries.end());
        std::size_t want = 8;
        for (const auto &[key, payload] : entries)
            want += 16 + key.size() + payload.size();
        cache_body.reserve(want);
        putU64(cache_body, entries.size());
        for (const auto &[key, payload] : entries) {
            putBlob(cache_body, key);
            putBlob(cache_body, payload);
        }
    }

    std::string loops_body;
    {
        std::lock_guard<std::mutex> ctx_lock(ctx_mu_);
        putU64(loops_body, contexts_.size());
        for (const auto &[loopKey, lc] : contexts_) {
            putBlob(loops_body, loopKey);
            std::lock_guard<std::mutex> lock(lc->mu);
            // Only the concrete memoising analyses persist; wrappers
            // registered through LocalityRegistry::add() rewarm from
            // scratch.
            std::vector<std::pair<std::string, std::string>> sections;
            for (const auto &[name, analysis] : lc->bound) {
                if (const auto *cme_a =
                        dynamic_cast<const cme::CmeAnalysis *>(
                            analysis.get())) {
                    std::string sec;
                    putU32(sec, KIND_CME);
                    putBlob(sec, name);
                    putCmeEntries(sec, cme_a->exportMemo());
                    sections.emplace_back(name, std::move(sec));
                } else if (const auto *oracle =
                               dynamic_cast<const cme::CacheOracle *>(
                                   analysis.get())) {
                    std::string sec;
                    putU32(sec, KIND_ORACLE);
                    putBlob(sec, name);
                    putOracleEntries(sec, oracle->exportMemo());
                    sections.emplace_back(name, std::move(sec));
                }
            }
            putU64(loops_body, sections.size());
            for (const auto &[name, sec] : sections)
                loops_body += sec;
        }
    }

    std::string out;
    out.reserve(8 + 8 + 2 * 12 + cache_body.size() +
                loops_body.size());
    out.append(WARM_STATE_MAGIC, sizeof WARM_STATE_MAGIC);
    putU32(out, WARM_STATE_VERSION_BINARY);
    putU32(out, 2);   // section count
    putU32(out, TAG_CACHE);
    putU64(out, cache_body.size());
    putU32(out, TAG_LOOPS);
    putU64(out, loops_body.size());
    out += cache_body;
    out += loops_body;
    return out;
}

void
SchedService::decodeState(const std::string &bytes,
                          const std::string &origin)
{
    StagedState staged;

    // Binary v2 only: stage the whole snapshot, publish only at the
    // end — a bad byte anywhere rejects everything.
    if (bytes.size() < sizeof WARM_STATE_MAGIC ||
        std::memcmp(bytes.data(), WARM_STATE_MAGIC,
                    sizeof WARM_STATE_MAGIC) != 0)
        mvp_fatal(origin, ": not a binary v", WARM_STATE_VERSION_BINARY,
                  " warm-state snapshot (no \"mvpwarmb\" magic); "
                  "start cold instead");
    BinReader in(bytes, origin);
    char magic[sizeof WARM_STATE_MAGIC];
    in.bytes(magic, sizeof magic);
    const std::uint32_t version = in.u32();
    if (version !=
        static_cast<std::uint32_t>(WARM_STATE_VERSION_BINARY))
        mvp_fatal(origin, ": warm-state version ", version,
                  " (this build reads ", WARM_STATE_VERSION_BINARY,
                  "); start cold instead");
    const std::uint32_t nsections = in.u32();
    std::vector<std::pair<std::uint32_t, std::uint64_t>> table;
    table.reserve(nsections);
    for (std::uint32_t s = 0; s < nsections; ++s) {
        const std::uint32_t tag = in.u32();
        const std::uint64_t len = in.u64();
        table.emplace_back(tag, len);
    }
    for (const auto &[tag, len] : table) {
        const std::size_t body_end = in.pos() + len;
        if (body_end > bytes.size())
            mvp_fatal(origin, ": section overruns the snapshot");
        if (tag == TAG_CACHE) {
            const std::uint64_t count = in.count();
            staged.cache.reserve(count);
            for (std::uint64_t i = 0; i < count; ++i) {
                std::string key = in.blob();
                std::string payload = in.blob();
                staged.cache.emplace_back(std::move(key),
                                          std::move(payload));
            }
        } else if (tag == TAG_LOOPS) {
            const std::uint64_t count = in.count();
            staged.loops.reserve(count);
            for (std::uint64_t i = 0; i < count; ++i) {
                StagedLoop loop;
                loop.text = in.blob();
                loop.nest = text::parseLoop(loop.text, origin);
                const std::uint64_t nprov = in.count();
                loop.providers.reserve(nprov);
                for (std::uint64_t p = 0; p < nprov; ++p) {
                    StagedProvider prov;
                    prov.kind = in.u32();
                    prov.name = in.blob();
                    if (prov.kind == KIND_CME)
                        prov.cme = takeCmeEntries(in);
                    else if (prov.kind == KIND_ORACLE)
                        prov.oracle = takeOracleEntries(in);
                    else
                        mvp_fatal(origin, ": unknown provider kind ",
                                  prov.kind, " (known: cme=1, oracle=2)");
                    loop.providers.push_back(std::move(prov));
                }
                staged.loops.push_back(std::move(loop));
            }
        } else {
            mvp_fatal(origin, ": unknown section tag ", tag,
                      " (known: cache=1, loops=2)");
        }
        if (in.pos() != body_end)
            mvp_fatal(origin, ": section body size mismatch ",
                      "(table says ", len, " bytes)");
    }
    if (!in.atEnd())
        mvp_fatal(origin, ": trailing bytes after the last section");

    // Publish. Everything below is keep-the-winner, so loading into a
    // non-empty service merges instead of clobbering.
    for (auto &[key, payload] : staged.cache)
        cache_.tryInsert(key, std::move(payload));
    for (StagedLoop &loop : staged.loops) {
        LoopContext &lc =
            contextFor(text::printLoop(loop.nest), loop.nest);
        for (StagedProvider &prov : loop.providers) {
            if (prov.kind == KIND_CME) {
                auto *analysis = dynamic_cast<cme::CmeAnalysis *>(
                    &lc.localityFor(prov.name));
                if (analysis == nullptr)
                    mvp_fatal(origin, ": provider '", prov.name,
                              "' no longer binds a CME analysis");
                analysis->importMemo(prov.cme);
            } else {
                auto *analysis = dynamic_cast<cme::CacheOracle *>(
                    &lc.localityFor(prov.name));
                if (analysis == nullptr)
                    mvp_fatal(origin, ": provider '", prov.name,
                              "' no longer binds a cache oracle");
                analysis->importMemo(prov.oracle);
            }
        }
    }
}

bool
SchedService::saveStateFile(const std::string &path,
                            std::string *error) const
{
    const std::string bytes = encodeState();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
        if (error != nullptr)
            *error = "cannot open '" + path + "' for writing";
        return false;
    }
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
        if (error != nullptr)
            *error = "short write to '" + path + "'";
        return false;
    }
    return true;
}

bool
SchedService::loadStateFile(const std::string &path, std::string *error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (error != nullptr)
            *error = "cannot open '" + path + "' for reading";
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string bytes = buf.str();

    FatalScope guard;
    try {
        decodeState(bytes, path);
    } catch (const FatalError &e) {
        if (error != nullptr)
            *error = e.what();
        return false;
    }
    return true;
}

} // namespace mvp::svc
