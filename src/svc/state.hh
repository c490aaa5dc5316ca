/**
 * @file
 * Warm-state persistence format of the scheduling service.
 *
 * encodeState()/decodeState() live on SchedService (svc/service.hh);
 * this header documents the format and pins its version.
 *
 * ## Binary v3 (written by encodeState(), the only format read)
 *
 * Fixed-width little-endian throughout; doubles travel as their IEEE
 * bit pattern (lossless by construction), byte strings as a u64
 * length followed by the raw bytes (no escaping). Layout:
 *
 *     magic      8 bytes  "mvpwarmb"
 *     version    u32      3
 *     nsections  u32
 *     table      nsections x { tag u32, len u64 }
 *     bodies     the section bodies, in table order
 *
 * Section tags:
 *
 *     1  cache   u64 count, then count x { key blob, payload blob }
 *                — the schedule cache, sorted by key
 *     2  loops   u64 count, then per loop:
 *                  text blob                 canonical loop text
 *                  u64 nproviders, each:
 *                    kind u32                1 = cme ratio memo,
 *                                            2 = oracle miss totals
 *                    name blob               registry provider name
 *                    u64 nentries, then the fixed-width entry
 *                    records (svc/state.cc)
 *
 * An oracle record is the geometry (capacity i64, line i64, assoc
 * u32), the canonical set (u64 count, then one u32 op id each), the
 * point count (i64) and one i64 miss total per set member, in set
 * order. Version 2 also carried each simulation's per-cache-set miss
 * counters and final LRU tags; the oracle no longer keeps them, so a
 * v2 snapshot is refused whole like any other version mismatch. Every
 * memo entry's geometry must describe a real cache — line and
 * associativity of at least 1 and at least one set — or the snapshot
 * is refused.
 *
 * Cache entries are sorted by key, loops by canonical text, providers
 * by name, memo entries by the export APIs' canonical order — so
 * identical service states encode byte-identically and
 * encode(decode(s)) == s. Decoding stages the *entire* snapshot in
 * memory before publishing a single entry: a version mismatch, an
 * unknown section/provider tag or any truncation rejects the whole
 * snapshot and leaves the service untouched. Publication itself is
 * keep-the-winner everywhere, so LOAD into a non-empty service merges.
 *
 * SAVE and LOAD are O(bytes): no number formatting, no tokenising,
 * one length-checked memcpy per field.
 *
 * Versioning: the magic and version are checked before anything else;
 * any mismatch is a hard error rather than a guess. A snapshot in the
 * retired text v1 format (`mvp-warm-state 1`) has no magic and is
 * rejected like any other foreign file — warm state is a cache, so the
 * recovery from an unreadable snapshot is simply a cold start. Bump
 * WARM_STATE_VERSION_BINARY whenever a section's shape, order or
 * meaning changes.
 */

#ifndef MVP_SVC_STATE_HH
#define MVP_SVC_STATE_HH

namespace mvp::svc
{

/** Binary snapshot version written and accepted by this build. */
constexpr int WARM_STATE_VERSION_BINARY = 3;

/** The 8-byte magic that opens a binary snapshot. */
inline constexpr char WARM_STATE_MAGIC[8] = {'m', 'v', 'p', 'w',
                                             'a', 'r', 'm', 'b'};

} // namespace mvp::svc

#endif // MVP_SVC_STATE_HH
