/**
 * @file
 * Small string formatting helpers shared by reports and dumps.
 */

#ifndef MVP_COMMON_STRUTIL_HH
#define MVP_COMMON_STRUTIL_HH

#include <charconv>
#include <concepts>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace mvp
{

/**
 * FNV-1a over a string's bytes. Load-bearing in the CME solver (the
 * per-query sampling seed derives from it, so changing it changes
 * every sampled schedule) and reused wherever a stable digest of
 * rendered output is wanted (e.g. sweep_bench's table fingerprints) —
 * one definition so the two can never drift apart.
 */
inline std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

/** Append integer @p v to @p out in @p base (lower-case digits), with
 * no temporary string. */
template <std::integral T>
void
appendInt(std::string &out, T v, int base = 10)
{
    char buf[std::numeric_limits<T>::digits + 2];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v, base).ptr);
}

/**
 * Append every piece to @p out: text as it is, a char as one byte, an
 * integer in decimal (a bool does not compile). The text printers and
 * the service's renderers compose their lines this way, so a line
 * costs no temporary strings.
 */
template <class... Pieces>
void
strappend(std::string &out, const Pieces &...pieces)
{
    const auto one = [&out](const auto &piece) {
        using P = std::decay_t<decltype(piece)>;
        if constexpr (std::is_same_v<P, char>)
            out += piece;
        else if constexpr (std::is_integral_v<P>)
            appendInt(out, piece);
        else
            out += std::string_view(piece);
    };
    (one(pieces), ...);
}

/** printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Join the items with a separator. */
std::string join(const std::vector<std::string> &items,
                 const std::string &sep);

/** Left-pad or truncate to exactly @p width columns. */
std::string padLeft(const std::string &s, std::size_t width);

/** Right-pad or truncate to exactly @p width columns. */
std::string padRight(const std::string &s, std::size_t width);

/** Format a double with @p digits fractional digits. */
std::string fmtDouble(double v, int digits = 2);

/** Format a ratio as a percentage string, e.g. 0.25 -> "25.0%". */
std::string fmtPercent(double ratio, int digits = 1);

} // namespace mvp

#endif // MVP_COMMON_STRUTIL_HH
