/**
 * @file
 * DRAM undo-log area.
 *
 * UHTM logs the *old* value of a transactional DRAM line when it is
 * evicted from the LLC (eager version management for overflowed volatile
 * data, paper Fig. 4). Commit is then a single commit-mark write; abort
 * copies old values back in place.
 *
 * This class is the functional/bookkeeping half: entries hold real
 * bytes, capacity is tracked against the reserved DRAM log area, and
 * restore() produces the entries that the abort protocol must copy
 * back. The HTM layer charges controller timing for each append,
 * commit mark and restore copy.
 */

#ifndef UHTM_MEM_UNDO_LOG_HH
#define UHTM_MEM_UNDO_LOG_HH

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/line_map.hh"
#include "sim/types.hh"

namespace uhtm
{

/** One undo record: the pre-transaction image of a DRAM line. */
struct UndoEntry
{
    TxId tx = kNoTx;
    Addr line = 0;
    std::array<std::uint8_t, kLineBytes> oldData{};
};

/**
 * The reserved DRAM log area: per-transaction undo records plus commit
 * marks. Entries of committed or aborted transactions are reclaimed
 * eagerly (commit marks make them dead).
 */
class UndoLogArea
{
  public:
    struct Stats
    {
        std::uint64_t appends = 0;
        std::uint64_t commitMarks = 0;
        std::uint64_t restores = 0;
        std::uint64_t reclaimed = 0;
        std::uint64_t peakBytes = 0;
    };

    /** @param capacity_bytes size of the reserved log area. */
    explicit UndoLogArea(std::uint64_t capacity_bytes)
        : _capacity(capacity_bytes)
    {
    }

    /**
     * Append the old image of @p line for transaction @p tx.
     * Duplicate appends for the same (tx, line) are ignored: the first
     * logged image is the pre-transaction value that abort must restore.
     * @retval true appended; false if the line was already logged.
     */
    bool
    append(TxId tx, Addr line,
           const std::array<std::uint8_t, kLineBytes> &old_data)
    {
        auto &txlog = _logs[tx];
        if (txlog.lines.count(line))
            return false;
        txlog.lines.emplace(line, txlog.entries.size());
        txlog.entries.push_back(UndoEntry{tx, line, old_data});
        ++_stats.appends;
        _bytes += kEntryBytes;
        if (_bytes > _stats.peakBytes)
            _stats.peakBytes = _bytes;
        return true;
    }

    /** True if (tx, line) already has an undo record. */
    bool
    contains(TxId tx, Addr line) const
    {
        auto it = _logs.find(tx);
        return it != _logs.end() && it->second.lines.count(line) > 0;
    }

    /** Number of records held for @p tx. */
    std::size_t
    entryCount(TxId tx) const
    {
        auto it = _logs.find(tx);
        return it == _logs.end() ? 0 : it->second.entries.size();
    }

    /**
     * Commit @p tx: write the commit mark, after which the records are
     * dead and reclaimed.
     */
    void
    commit(TxId tx)
    {
        ++_stats.commitMarks;
        reclaim(tx);
    }

    /**
     * Abort @p tx: hand back the undo records so the caller can copy
     * old values to their in-place locations, then reclaim.
     */
    std::vector<UndoEntry>
    restore(TxId tx)
    {
        std::vector<UndoEntry> out;
        auto it = _logs.find(tx);
        if (it != _logs.end()) {
            out = std::move(it->second.entries);
            _stats.restores += out.size();
        }
        reclaim(tx);
        return out;
    }

    /**
     * Grow the reserved area (the OS trap of paper Section IV-E:
     * "If the log is out of free space, UHTM traps the operating
     * system to expand the log area").
     */
    void expand(std::uint64_t extra_bytes) { _capacity += extra_bytes; }

    /** Reserved capacity in bytes. */
    std::uint64_t capacity() const { return _capacity; }

    /** Current occupancy in bytes. */
    std::uint64_t bytesUsed() const { return _bytes; }

    /** True if an append would exceed the reserved area. */
    bool full() const { return _bytes + kEntryBytes > _capacity; }

    const Stats &stats() const { return _stats; }

  private:
    /** Log record size: 64B data + address/txid metadata line. */
    static constexpr std::uint64_t kEntryBytes = kLineBytes + 16;

    struct TxLog
    {
        std::vector<UndoEntry> entries;
        /** Line -> index of its latest entry (flat hot-path map). */
        LineMap<std::size_t> lines;
    };

    void
    reclaim(TxId tx)
    {
        auto it = _logs.find(tx);
        if (it == _logs.end())
            return;
        const std::uint64_t freed = it->second.entries.size() * kEntryBytes;
        _stats.reclaimed += it->second.entries.size();
        _bytes -= freed;
        _logs.erase(it);
    }

    std::uint64_t _capacity;
    std::uint64_t _bytes = 0;
    std::unordered_map<TxId, TxLog> _logs;
    Stats _stats;
};

} // namespace uhtm

#endif // UHTM_MEM_UNDO_LOG_HH
