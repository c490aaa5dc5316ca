/**
 * @file
 * Named sentinel values shared by the scheduling subsystem. One home for
 * every "special" slot/cycle/bus marker so no scheduler file carries raw
 * -1/-2 literals whose meaning depends on context.
 */

#ifndef MVP_SCHED_SENTINELS_HH
#define MVP_SCHED_SENTINELS_HH

#include "common/types.hh"

namespace mvp::sched
{

/** Bus index used when the machine has unbounded register buses. */
constexpr int BUS_UNBOUNDED = -1;

/** Returned by findFreeBusAt when no bus can take the transfer. */
constexpr int BUS_NONE = -2;

/** Cycle marker: the operation / transfer has not been placed yet. */
constexpr Cycle TIME_UNPLACED = -1;

/** Per-op out-latency override marker: no override in effect. */
constexpr Cycle LAT_NO_OVERRIDE = -1;

} // namespace mvp::sched

#endif // MVP_SCHED_SENTINELS_HH
