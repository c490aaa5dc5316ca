/**
 * @file
 * SchedService warm-state persistence (format: svc/state.hh): the
 * binary v4 writer, its reject-whole reader and the atomic file save.
 */

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "common/logging.hh"
#include "svc/service.hh"
#include "svc/state.hh"

namespace mvp::svc
{
namespace
{

constexpr std::uint32_t TAG_CACHE = 1;

/** @name Binary primitives (explicit little-endian byte order, so
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

} // namespace

std::string
SchedService::encodeState() const
{
    std::vector<std::pair<std::string, std::string>> entries;
    cache_.forEach([&](const std::string &key, const ReplyBytes &payload) {
        entries.emplace_back(key, *payload);
    });
    std::sort(entries.begin(), entries.end());

    std::size_t body_size = 8;
    for (const auto &[key, payload] : entries)
        body_size += 16 + key.size() + payload.size();

    std::string out;
    out.reserve(sizeof WARM_STATE_MAGIC + 8 + 12 + body_size);
    out.append(WARM_STATE_MAGIC, sizeof WARM_STATE_MAGIC);
    putU32(out, WARM_STATE_VERSION_BINARY);
    putU32(out, 1);   // section count
    putU32(out, TAG_CACHE);
    putU64(out, body_size);
    putU64(out, entries.size());
    for (const auto &[key, payload] : entries) {
        putBlob(out, key);
        putBlob(out, payload);
    }
    return out;
}

void
SchedService::decodeState(const std::string &bytes,
                          const std::string &origin)
{
    // Stage the whole snapshot, publish only at the end: a bad byte
    // anywhere rejects everything.
    std::vector<std::pair<std::string, std::string>> staged;

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
    std::vector<std::uint64_t> lengths;
    for (std::uint32_t s = 0; s < nsections; ++s) {
        const std::uint32_t tag = in.u32();
        if (tag != TAG_CACHE)
            mvp_fatal(origin, ": unknown section tag ", tag,
                      " (known: cache=1)");
        lengths.push_back(in.u64());
    }
    for (const std::uint64_t len : lengths) {
        if (len > bytes.size() - in.pos())
            mvp_fatal(origin, ": section overruns the snapshot");
        const std::size_t body_end = in.pos() + len;
        const std::uint64_t count = in.count();
        for (std::uint64_t i = 0; i < count; ++i) {
            std::string key = in.blob();
            std::string payload = in.blob();
            staged.emplace_back(std::move(key), std::move(payload));
        }
        if (in.pos() != body_end)
            mvp_fatal(origin, ": section body size mismatch ",
                      "(table says ", len, " bytes)");
    }
    if (!in.atEnd())
        mvp_fatal(origin, ": trailing bytes after the last section");

    // Publish keep-the-winner, so loading into a non-empty service
    // merges instead of clobbering.
    for (auto &[key, payload] : staged)
        cache_.tryInsert(
            key, std::make_shared<const std::string>(std::move(payload)));
}

bool
SchedService::saveStateFile(const std::string &path,
                            std::string *error) const
{
    // Write a sibling file, fsync it and rename it over the target: a
    // failed or killed save, or a crash of the host, leaves either the
    // previous snapshot or the new one, never a torn file. The pid in
    // the temporary's name keeps two processes sharing one path from
    // writing into the same temporary.
    const std::string bytes = encodeState();
    const std::string tmp =
        path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
    const int fd = ::open(tmp.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) {
        if (error != nullptr)
            *error = "cannot open '" + tmp + "' for writing";
        return false;
    }
    std::string failure;
    for (std::size_t off = 0; off < bytes.size() && failure.empty();) {
        const ssize_t n =
            ::write(fd, bytes.data() + off, bytes.size() - off);
        if (n > 0)
            off += static_cast<std::size_t>(n);
        else if (n < 0 && errno != EINTR)
            failure = "short write to '" + tmp + "'";
    }
    if (failure.empty() && ::fsync(fd) != 0)
        failure = "cannot sync '" + tmp + "'";
    if (::close(fd) != 0 && failure.empty())
        failure = "cannot close '" + tmp + "'";
    if (failure.empty() && std::rename(tmp.c_str(), path.c_str()) != 0)
        failure = "cannot rename '" + tmp + "' to '" + path + "'";
    if (failure.empty())
        return true;
    std::remove(tmp.c_str());
    if (error != nullptr)
        *error = failure;
    return false;
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
