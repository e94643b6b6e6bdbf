/**
 * @file
 * Byte accounting of a reserved log area, shared by the DRAM undo log
 * and the NVM redo log. The records live with their owners (a running
 * transaction, or the redo log's committed logs); an area accounts the
 * bytes they take against its reserved capacity.
 */

#ifndef UHTM_MEM_LOG_AREA_HH
#define UHTM_MEM_LOG_AREA_HH

#include <algorithm>
#include <cstdint>
#include <type_traits>

#include "sim/types.hh"

namespace uhtm
{

/** Counters every log area keeps. */
struct LogAreaStats
{
    std::uint64_t appends = 0;
    std::uint64_t reclaimed = 0;
    std::uint64_t peakBytes = 0;
};

/** A reserved log area of fixed-size records; @p Stats adds the
 *  counters of the area's own protocol to LogAreaStats. */
template <class Stats>
class LogArea
{
    static_assert(std::is_base_of_v<LogAreaStats, Stats>);

  public:
    /** Record size: 64B data + address/txid metadata line. */
    static constexpr std::uint64_t kRecordBytes = kLineBytes + 16;

    /** @param capacity_bytes size of the reserved log area. */
    explicit LogArea(std::uint64_t capacity_bytes)
        : _capacity(capacity_bytes), _trapGrowth(capacity_bytes / 4)
    {
    }

    /**
     * Take room for one record. A full area first traps the OS to grow
     * it by a quarter of its initial size (paper Section IV-E: "If the
     * log is out of free space, UHTM traps the operating system to
     * expand the log area").
     * @retval true the append took the OS trap.
     */
    bool
    reserve()
    {
        const bool trap = full();
        if (trap)
            _capacity += _trapGrowth;
        ++_stats.appends;
        _bytes += kRecordBytes;
        _stats.peakBytes = std::max(_stats.peakBytes, _bytes);
        return trap;
    }

    /** Free @p records records. */
    void
    reclaim(std::uint64_t records)
    {
        _stats.reclaimed += records;
        _bytes -= records * kRecordBytes;
    }

    /** Reserved capacity in bytes. */
    std::uint64_t capacity() const { return _capacity; }

    /** Current occupancy in bytes. */
    std::uint64_t bytesUsed() const { return _bytes; }

    /** True if one more record would exceed the reserved area. */
    bool full() const { return _bytes + kRecordBytes > _capacity; }

    const Stats &stats() const { return _stats; }

  protected:
    Stats _stats;

  private:
    std::uint64_t _capacity;
    std::uint64_t _trapGrowth;
    std::uint64_t _bytes = 0;
};

} // namespace uhtm

#endif // UHTM_MEM_LOG_AREA_HH
