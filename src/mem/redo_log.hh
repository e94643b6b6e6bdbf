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

#include "mem/backing_store.hh"
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

/** The reserved NVM log area. */
class RedoLogArea
{
  public:
    struct Stats
    {
        std::uint64_t appends = 0;
        std::uint64_t coalesced = 0;
        std::uint64_t commits = 0;
        std::uint64_t aborts = 0;
        std::uint64_t reclaimed = 0;
        std::uint64_t peakBytes = 0;
        std::uint64_t replayedEntries = 0;
        /** Records of committed-durable transactions whose own log
         *  write had not completed at the crash (torn records). A
         *  correct commit protocol never produces these. */
        std::uint64_t tornEntries = 0;
    };

    explicit RedoLogArea(std::uint64_t capacity_bytes)
        : _capacity(capacity_bytes)
    {
    }

    /**
     * Account one transactional NVM store. A fresh record takes a
     * record's worth of the log area; a write @p coalesced into the
     * line's existing record (write-combining in the log buffer)
     * rewrites that record in place.
     */
    void
    noteStore(bool coalesced)
    {
        if (coalesced) {
            ++_stats.coalesced;
            return;
        }
        ++_stats.appends;
        _bytes += kEntryBytes;
        _stats.peakBytes = std::max(_stats.peakBytes, _bytes);
    }

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
        _stats.reclaimed += records;
        _bytes -= records * kEntryBytes;
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
    recoverLine(const DurableNvmView &durable_image, Addr line,
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
        std::uint64_t records = 0;       ///< records held
        std::uint64_t recordBytes = 0;   ///< bytes those records use
        std::uint64_t reservedBytes = 0; ///< entry capacity
    };

    Footprint
    footprint() const
    {
        Footprint f;
        for (const CommittedLog &log : _committed) {
            f.records += log.records.size();
            f.reservedBytes += log.records.capacity() * sizeof(RedoEntry);
        }
        f.recordBytes = f.records * sizeof(RedoEntry);
        return f;
    }

    std::uint64_t bytesUsed() const { return _bytes; }
    bool full() const { return _bytes + kEntryBytes > _capacity; }

    /** Grow the reserved area (OS trap, paper Section IV-E). */
    void expand(std::uint64_t extra_bytes) { _capacity += extra_bytes; }

    /** Reserved capacity in bytes. */
    std::uint64_t capacity() const { return _capacity; }

    const Stats &stats() const { return _stats; }

  private:
    static constexpr std::uint64_t kEntryBytes = kLineBytes + 16;

    /** One committed transaction's records, in an exact-size
     *  allocation, sorted by line. */
    struct CommittedLog
    {
        Tick commitDurableAt = 0;
        std::vector<RedoEntry> records;
    };

    std::uint64_t _capacity;
    std::uint64_t _bytes = 0;
    /** Committed logs in commit order. */
    std::vector<CommittedLog> _committed;
    Stats _stats;
};

} // namespace uhtm

#endif // UHTM_MEM_REDO_LOG_HH
