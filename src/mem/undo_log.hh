/**
 * @file
 * DRAM undo-log area.
 *
 * UHTM logs the *old* value of a transactional DRAM line when it is
 * evicted from the LLC (eager version management for overflowed volatile
 * data, paper Fig. 4). Commit is then a single commit-mark write; abort
 * copies old values back in place.
 *
 * A transaction owns its undo records (TxDesc::undoRecords, in append
 * order); this area only accounts their bytes against the reserved
 * DRAM log area and counts commit marks and copy-backs. The HTM layer
 * charges controller timing for each append, commit mark and restore
 * copy.
 */

#ifndef UHTM_MEM_UNDO_LOG_HH
#define UHTM_MEM_UNDO_LOG_HH

#include <array>
#include <cstdint>

#include "mem/log_area.hh"
#include "sim/types.hh"

namespace uhtm
{

/** One undo record: the pre-transaction image of a DRAM line. */
struct UndoEntry
{
    Addr line = 0;
    std::array<std::uint8_t, kLineBytes> oldData{};
};

struct UndoLogStats : LogAreaStats
{
    std::uint64_t commitMarks = 0;
    std::uint64_t restores = 0; ///< records copied back by aborts
};

/**
 * The reserved DRAM log area. Records of committed or aborted
 * transactions are reclaimed eagerly (commit marks make them dead).
 */
class UndoLogArea : public LogArea<UndoLogStats>
{
  public:
    using Stats = UndoLogStats;
    using LogArea::LogArea;

    /** Commit: write the commit mark, after which the transaction's
     *  @p records are dead and reclaimed. */
    void
    commit(std::uint64_t records)
    {
        ++_stats.commitMarks;
        reclaim(records);
    }

    /** Abort: @p records were copied back in place; reclaim them. */
    void
    abort(std::uint64_t records)
    {
        _stats.restores += records;
        reclaim(records);
    }
};

} // namespace uhtm

#endif // UHTM_MEM_UNDO_LOG_HH
