/**
 * @file
 * Warm-state persistence format of the scheduling service.
 *
 * encodeState()/decodeState() live on SchedService (svc/service.hh);
 * this header documents the format and pins its version. The snapshot
 * is the schedule cache and nothing else: the locality analyses'
 * memos are a deterministic function of (loop, cache geometry, op
 * set) and are recomputed on demand after a restart, and the raw lane
 * refills from traffic.
 *
 * ## Binary v4 (written by encodeState(), the only format read)
 *
 * Fixed-width little-endian throughout; byte strings travel as a u64
 * length followed by the raw bytes (no escaping). Layout:
 *
 *     magic      8 bytes  "mvpwarmb"
 *     version    u32      4
 *     nsections  u32
 *     table      nsections x { tag u32, len u64 }
 *     bodies     the section bodies, in table order
 *
 * The one section tag:
 *
 *     1  cache   u64 count, then count x { key blob, payload blob }
 *                — the schedule cache, sorted by key
 *
 * Any other tag — including tag 2, the per-loop locality memos that
 * v3 carried — rejects the snapshot. Entries are sorted by key, so
 * identical caches encode byte-identically and encode(decode(s)) == s.
 * Decoding stages the *entire* snapshot in memory before publishing a
 * single entry: a version mismatch, an unknown section tag or any
 * truncation rejects the whole snapshot and leaves the service
 * untouched. Publication is keep-the-winner, so decoding into a
 * non-empty service merges.
 *
 * Versioning: the magic and version are checked before anything else;
 * any mismatch is a hard error rather than a guess. A v3 (or older)
 * snapshot, or one in the retired text v1 format (`mvp-warm-state 1`,
 * no magic), is refused whole like any other foreign file — warm state
 * is a cache, so the recovery from an unreadable snapshot is simply a
 * cold start. Bump WARM_STATE_VERSION_BINARY whenever a section's
 * shape, order or meaning changes.
 */

#ifndef MVP_SVC_STATE_HH
#define MVP_SVC_STATE_HH

namespace mvp::svc
{

/** Binary snapshot version written and accepted by this build. */
constexpr int WARM_STATE_VERSION_BINARY = 4;

/** The 8-byte magic that opens a binary snapshot. */
inline constexpr char WARM_STATE_MAGIC[8] = {'m', 'v', 'p', 'w',
                                             'a', 'r', 'm', 'b'};

} // namespace mvp::svc

#endif // MVP_SVC_STATE_HH
