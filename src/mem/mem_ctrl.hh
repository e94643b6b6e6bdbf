/**
 * @file
 * Memory-controller timing model for DRAM and NVM channels.
 *
 * Each controller models a single channel with a fixed access latency
 * plus an occupancy (service slot) so that bandwidth contention between
 * cores, writebacks and log traffic is visible. Requests reserve their
 * slot at issue time, which keeps the model deterministic and cheap
 * while still producing queueing delay under load.
 *
 * NVM write latency (94ns) is lower than read latency (175ns) because,
 * as in the paper, a write completes once the controller accepts it into
 * the ADR-protected write-pending queue.
 */

#ifndef UHTM_MEM_MEM_CTRL_HH
#define UHTM_MEM_MEM_CTRL_HH

#include <algorithm>
#include <cstdint>

#include "sim/types.hh"

namespace uhtm
{

/** Timing/occupancy model of one memory channel. */
class MemCtrl
{
  public:
    /** Per-channel statistics. */
    struct Stats
    {
        std::uint64_t reads = 0;
        std::uint64_t writes = 0;
        std::uint64_t logWrites = 0;
        Tick busyTicks = 0;
        Tick queueDelay = 0;
    };

    /**
     * @param read_lat access latency of a read in ticks.
     * @param write_lat access latency of a write in ticks.
     * @param slot per-request service time (occupancy) in ticks.
     */
    MemCtrl(Tick read_lat, Tick write_lat, Tick slot)
        : _readLat(read_lat), _writeLat(write_lat), _slot(slot)
    {
    }

    /**
     * Reserve a service slot for a request that is ready at @p earliest
     * and return its completion tick.
     *
     * @param earliest the tick the request arrives at the controller.
     * @param is_write request direction.
     * @param is_log true for log-area traffic (accounted separately).
     */
    Tick
    access(Tick earliest, bool is_write, bool is_log = false)
    {
        const Tick start = std::max(earliest, _nextFree);
        _stats.queueDelay += start - earliest;
        _nextFree = start + _slot;
        _stats.busyTicks += _slot;
        if (is_write) {
            ++_stats.writes;
            if (is_log)
                ++_stats.logWrites;
            return start + _writeLat;
        }
        ++_stats.reads;
        return start + _readLat;
    }

    const Stats &stats() const { return _stats; }

  private:
    Tick _readLat;
    Tick _writeLat;
    Tick _slot;
    Tick _nextFree = 0;
    Stats _stats;
};

} // namespace uhtm

#endif // UHTM_MEM_MEM_CTRL_HH
