/**
 * @file
 * NVM redo-log area with durability tracking ([28]-style hardware
 * logging).
 *
 * Every transactional NVM store writes a redo record carrying the new
 * line image. Records become *durable* when their asynchronous NVM log
 * write completes (the HTM layer stamps them from the NVM controller).
 * While the transaction runs, its write set is the record (the line's
 * image and stamp, see TxDesc::writeSet); this area only accounts the
 * bytes the records take. A transaction's commit waits until all of
 * its records are durable, then appends a commit record and hands its
 * records over as a committed log; the transaction is
 * *committed-durable* once that record's write completes. An aborted
 * transaction's records are never replayed, so they are dropped at
 * once: the area holds committed logs only.
 *
 * Crash recovery replays, in commit order, the logs whose commit
 * record was durable at the crash tick, over the durable in-place NVM
 * image (paper Section IV-C).
 */

#ifndef UHTM_MEM_REDO_LOG_HH
#define UHTM_MEM_REDO_LOG_HH

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <vector>

#include "mem/log_area.hh"
#include "mem/memory_image.hh"
#include "sim/types.hh"

namespace uhtm
{

/** One redo record: the new image of an NVM line. */
struct RedoEntry
{
    Addr line = 0;
    std::array<std::uint8_t, kLineBytes> newData{};
    /** Tick at which the async log write completes ("durable"). */
    Tick durableAt = 0;
};

struct RedoLogStats : LogAreaStats
{
    std::uint64_t coalesced = 0;
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    std::uint64_t replayedEntries = 0;
    /** Records of committed-durable transactions whose own log write
     *  had not completed at the crash (torn records). A correct commit
     *  protocol never produces these. */
    std::uint64_t tornEntries = 0;
};

/** The reserved NVM log area: its committed logs. */
class RedoLogArea : public LogArea<RedoLogStats>
{
  public:
    using Stats = RedoLogStats;
    using LogArea::LogArea;

    /** A transactional NVM store rewrote the line's existing record in
     *  place (write-combining in the log buffer); a fresh record takes
     *  a reserve() instead. */
    void noteCoalesced() { ++_stats.coalesced; }

    /**
     * Append a committed log: @p records, one per NVM line the
     * transaction wrote, sorted by line. @p commit_durable_at is the
     * completion tick of the commit-record write; recovery honours the
     * log only if the crash happens at or after this tick. The log's
     * position among the committed logs is its commit order.
     */
    void
    commit(Tick commit_durable_at, std::vector<RedoEntry> records)
    {
        assert(std::is_sorted(records.begin(), records.end(),
                              [](const RedoEntry &a, const RedoEntry &b) {
                                  return a.line < b.line;
                              }));
        // A committed log is never appended to again and lives until
        // the end of the run: no growth slack.
        records.shrink_to_fit();
        _committed.push_back({commit_durable_at, std::move(records)});
        ++_stats.commits;
    }

    /**
     * Drop the @p records of an aborted transaction (its abort flag is
     * written; recovery never reads its records).
     */
    void
    abort(std::uint64_t records)
    {
        ++_stats.aborts;
        reclaim(records);
    }

    /**
     * Crash recovery: replay onto @p durable_image every record of every
     * log whose commit record was durable by @p crash_tick, in commit
     * order.
     *
     * A record whose own async log write had not completed by the crash
     * is torn: real recovery would find a partially written (invalid)
     * record, so the entry is skipped and counted. A correct commit
     * protocol never reaches this case because the commit record waits
     * for the whole log to drain first (Section IV-C); the crash-sweep
     * oracle relies on the skip to expose broken commit-mark ordering.
     *
     * @return number of transactions replayed.
     */
    std::size_t
    replayCommitted(BackingStore &durable_image, Tick crash_tick)
    {
        std::size_t replayed = 0;
        for (const CommittedLog &log : _committed) {
            if (log.commitDurableAt > crash_tick)
                continue;
            ++replayed;
            for (const RedoEntry &e : log.records) {
                if (e.durableAt > crash_tick) {
                    ++_stats.tornEntries;
                    continue;
                }
                durable_image.writeLine(e.line, e.newData.data());
                ++_stats.replayedEntries;
            }
        }
        return replayed;
    }

    /**
     * Single-line crash recovery: the post-replay image of @p line for
     * a crash at @p crash_tick, starting from @p durable_image. Gives
     * exactly the answer of replayCommitted() but touches only one
     * line, which lets the crash-sweep oracle check hundreds of crash
     * points without copying the whole durable image each time: the
     * newest log, durable by the crash, holding an untorn record of the
     * line.
     * @retval true a committed-durable record was replayed onto @p out.
     * @retval false @p out holds the durable in-place image unchanged.
     */
    bool
    recoverLine(const MemoryImage &durable_image, Addr line,
                Tick crash_tick,
                std::array<std::uint8_t, kLineBytes> &out) const
    {
        durable_image.readLine(line, out.data());
        for (auto log = _committed.rbegin(); log != _committed.rend();
             ++log) {
            if (log->commitDurableAt > crash_tick)
                continue;
            const auto e = std::lower_bound(
                log->records.begin(), log->records.end(), line,
                [](const RedoEntry &r, Addr l) { return r.line < l; });
            if (e == log->records.end() || e->line != line ||
                e->durableAt > crash_tick) {
                continue; // no record, or a torn one replay skips
            }
            out = e->newData;
            return true;
        }
        return false;
    }

    /** Host memory behind the committed records, for the per-job
     *  ledger. */
    struct Footprint
    {
        std::uint64_t records = 0;     ///< records held
        std::uint64_t recordBytes = 0; ///< bytes those records use
    };

    Footprint
    footprint() const
    {
        Footprint f;
        for (const CommittedLog &log : _committed)
            f.records += log.records.size();
        f.recordBytes = f.records * sizeof(RedoEntry);
        return f;
    }

  private:
    /** One committed transaction's records, in an exact-size
     *  allocation, sorted by line. */
    struct CommittedLog
    {
        Tick commitDurableAt = 0;
        std::vector<RedoEntry> records;
    };

    /** Committed logs in commit order. */
    std::vector<CommittedLog> _committed;
};

} // namespace uhtm

#endif // UHTM_MEM_REDO_LOG_HH
