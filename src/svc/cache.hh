/**
 * @file
 * Content-addressed schedule cache and the zero-parse raw-bytes lane.
 *
 * The scheduling service memoises whole reply payloads under the
 * canonical printed form of (options, loop, machine) — see
 * svc/protocol.hh for the key definition. Because the key is the
 * *canonical* rendering, textual variants of the same request
 * (whitespace, comments, block order, option order, redundant
 * defaults) all address one entry, and a hit returns bytes that are
 * identical to what the cold computation produced — the warm path is
 * invisible in the replies.
 *
 * Stored payloads are shared_ptr<const string>: a hit hands back a
 * reference to the published bytes instead of copying a multi-KB
 * reply per request — part of the reply-path allocation diet.
 *
 * The raw lane sits *in front* of the canonical cache: it maps the
 * verbatim request payload bytes — exactly as they arrived on the
 * wire, before any parsing — to the canonical stored reply. A raw hit
 * skips parse and canonical re-print entirely (the zero-parse warm
 * lane). Entries are published on first canonicalization and alias
 * the canonical cache's shared payload pointer, so a raw hit is
 * *structurally* byte-identical to the canonical reply: there is one
 * copy of the bytes, not two that could drift. Textual variants that
 * have not been seen verbatim fall through to the canonical key.
 * Replies whose bytes depend on anything beyond the payload (parse
 * errors quote the frame id) must never be published here.
 *
 * Both lanes are a ReplyMemo, the repo's one keep-the-winner memo
 * (common/memo.hh): when two workers race the same fresh key, the
 * first insert sticks and the loser adopts the stored bytes — both
 * computed the same deterministic payload, so which one wins is
 * unobservable.
 */

#ifndef MVP_SVC_CACHE_HH
#define MVP_SVC_CACHE_HH

#include <memory>
#include <string>

#include "common/memo.hh"

namespace mvp::svc
{

/** Shared, immutable reply bytes (one copy across all cache lanes). */
using ReplyBytes = std::shared_ptr<const std::string>;

/** Request key (canonical form or verbatim bytes) -> reply bytes. */
using ReplyMemo = ShardedMemo<std::string, ReplyBytes>;

} // namespace mvp::svc

#endif // MVP_SVC_CACHE_HH
