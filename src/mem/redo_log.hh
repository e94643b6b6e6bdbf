/**
 * @file
 * NVM redo-log area with durability tracking ([28]-style hardware
 * logging).
 *
 * Every transactional NVM store appends/updates a redo record carrying
 * the new line image. Records become *durable* when their asynchronous
 * NVM log write completes (the HTM layer stamps durableAt from the NVM
 * controller). A transaction's commit waits until all of its records
 * are durable, then appends a commit record; the transaction is
 * *committed-durable* once that record's write completes.
 *
 * Crash recovery replays, in commit order, the records of transactions
 * whose commit record was durable at the crash tick, over the durable
 * in-place NVM image (paper Section IV-C).
 */

#ifndef UHTM_MEM_REDO_LOG_HH
#define UHTM_MEM_REDO_LOG_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "sim/line_map.hh"
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

    /** What append() did. */
    struct Append
    {
        /** The record's durability stamp after the write. */
        Tick durableAt;
        /** The write coalesced into the line's existing record. */
        bool coalesced;
    };

    /**
     * Record the new image of @p line for @p tx.
     * A second write to an already-logged line coalesces into the
     * existing record (write-combining in the log buffer); the record
     * is durable once both writes are, so its stamp becomes the later
     * of the two. Only a fresh record is charged a log write.
     */
    Append
    append(TxId tx, Addr line,
           const std::array<std::uint8_t, kLineBytes> &new_data,
           Tick durable_at)
    {
        auto it0 = _logs.find(tx);
        if (it0 == _logs.end()) {
            it0 = _logs.emplace(tx, takeLog()).first;
            _liveHighWater = std::max(_liveHighWater, _logs.size());
        }
        TxLog &txlog = it0->second;
        auto it = txlog.lines.find(line);
        if (it != txlog.lines.end()) {
            RedoEntry &e = txlog.entries[it->second];
            e.newData = new_data;
            e.durableAt = std::max(e.durableAt, durable_at);
            ++_stats.coalesced;
            return {e.durableAt, true};
        }
        txlog.lines.emplace(line, txlog.entries.size());
        txlog.entries.push_back(RedoEntry{line, new_data, durable_at});
        ++_stats.appends;
        _bytes += kEntryBytes;
        _stats.peakBytes = std::max(_stats.peakBytes, _bytes);
        return {durable_at, false};
    }

    /** Number of records held for @p tx. */
    std::size_t
    entryCount(TxId tx) const
    {
        auto it = _logs.find(tx);
        return it == _logs.end() ? 0 : it->second.entries.size();
    }

    /** True if (tx, line) has a record. */
    bool
    contains(TxId tx, Addr line) const
    {
        auto it = _logs.find(tx);
        return it != _logs.end() && it->second.lines.count(line) > 0;
    }

    /**
     * Mark @p tx committed. @p commit_durable_at is the completion tick
     * of the commit-record write; recovery honours the transaction only
     * if the crash happens at or after this tick.
     */
    void
    commit(TxId tx, Tick commit_durable_at)
    {
        auto it = _logs.find(tx);
        if (it == _logs.end()) {
            // A durable transaction with an empty NVM write set still
            // writes a commit record; nothing to replay though.
            return;
        }
        it->second.committed = true;
        // A committed log is never appended to again and lives until
        // the end of the run: drop its vector growth slack.
        it->second.entries.shrink_to_fit();
        it->second.commitSeq = _nextCommitSeq++;
        it->second.commitDurableAt = commit_durable_at;
        ++_stats.commits;
    }

    /**
     * Mark @p tx aborted. Deletion is deferred (paper: "defers log
     * deletion to the background"); reclaimAborted() models the
     * background reclaimer.
     */
    void
    abort(TxId tx)
    {
        auto it = _logs.find(tx);
        if (it == _logs.end())
            return;
        it->second.aborted = true;
        ++_stats.aborts;
    }

    /** Background reclaim of aborted transactions' records. */
    void
    reclaimAborted()
    {
        // LineMap::erase swaps the last element into the erased
        // position, so the index is only advanced when nothing was
        // erased (the swapped-in log still needs checking).
        for (std::size_t i = 0; i < _logs.size();) {
            auto &kv = *(_logs.begin() + i);
            if (kv.second.aborted) {
                _stats.reclaimed += kv.second.entries.size();
                _bytes -= kv.second.entries.size() * kEntryBytes;
                const TxId key = kv.first;
                recycle(std::move(kv.second));
                _logs.erase(key);
            } else {
                ++i;
            }
        }
    }

    /**
     * Reclaim a committed transaction's records once its in-place
     * updates are known complete. Nothing calls this yet: committed
     * logs live until the end of the run (commit() only trims their
     * spare capacity), because reclaiming them would change bytesUsed()
     * and with it when the log area has to be expanded.
     */
    void
    reclaimCommitted(TxId tx)
    {
        auto it = _logs.find(tx);
        if (it == _logs.end() || !it->second.committed)
            return;
        _stats.reclaimed += it->second.entries.size();
        _bytes -= it->second.entries.size() * kEntryBytes;
        recycle(std::move(it->second));
        _logs.erase(tx);
    }

    /**
     * Crash recovery: replay onto @p durable_image every record of every
     * transaction whose commit record was durable by @p crash_tick, in
     * commit order. Uncommitted and aborted logs are disregarded.
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
        std::vector<const TxLog *> order;
        for (const auto &[tx, log] : _logs) {
            if (log.committed && !log.aborted &&
                log.commitDurableAt <= crash_tick) {
                order.push_back(&log);
            }
        }
        std::sort(order.begin(), order.end(),
                  [](const TxLog *a, const TxLog *b) {
                      return a->commitSeq < b->commitSeq;
                  });
        for (const TxLog *log : order) {
            for (const RedoEntry &e : log->entries) {
                if (e.durableAt > crash_tick) {
                    ++_stats.tornEntries;
                    continue;
                }
                durable_image.writeLine(e.line, e.newData.data());
                ++_stats.replayedEntries;
            }
        }
        return order.size();
    }

    /**
     * Single-line crash recovery: the post-replay image of @p line for
     * a crash at @p crash_tick, starting from @p durable_image. Follows
     * exactly the semantics of replayCommitted() but touches only one
     * line, which lets the crash-sweep oracle check hundreds of crash
     * points without copying the whole durable image each time.
     * @retval true a committed-durable record was replayed onto @p out.
     * @retval false @p out holds the durable in-place image unchanged.
     */
    bool
    recoverLine(const DurableNvmView &durable_image, Addr line,
                Tick crash_tick,
                std::array<std::uint8_t, kLineBytes> &out) const
    {
        durable_image.readLine(line, out.data());
        const TxLog *last = nullptr;
        const RedoEntry *last_entry = nullptr;
        for (const auto &[tx, log] : _logs) {
            if (!log.committed || log.aborted ||
                log.commitDurableAt > crash_tick) {
                continue;
            }
            auto it = log.lines.find(line);
            if (it == log.lines.end())
                continue;
            const RedoEntry &e = log.entries[it->second];
            if (e.durableAt > crash_tick)
                continue; // torn record, skipped by replay
            if (!last || log.commitSeq > last->commitSeq) {
                last = &log;
                last_entry = &e;
            }
        }
        if (!last_entry)
            return false;
        out = last_entry->newData;
        return true;
    }

    /** Host memory behind the records, for the per-job ledger. */
    struct Footprint
    {
        std::uint64_t records = 0;       ///< records held
        std::uint64_t recordBytes = 0;   ///< bytes those records use
        std::uint64_t reservedBytes = 0; ///< entry capacity, pool included
    };

    Footprint
    footprint() const
    {
        Footprint f;
        for (const auto &[tx, log] : _logs) {
            f.records += log.entries.size();
            f.reservedBytes += log.entries.capacity() * sizeof(RedoEntry);
        }
        for (const TxLog &log : _pool)
            f.reservedBytes += log.entries.capacity() * sizeof(RedoEntry);
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

    struct TxLog
    {
        std::vector<RedoEntry> entries;
        /** Line -> index of its latest entry (flat hot-path map). */
        LineMap<std::size_t> lines;
        bool committed = false;
        bool aborted = false;
        std::uint64_t commitSeq = 0;
        Tick commitDurableAt = 0;
    };

    /** Pop a recycled log (entry capacity retained) or a fresh one. */
    TxLog
    takeLog()
    {
        if (_pool.empty())
            return TxLog{};
        TxLog log = std::move(_pool.back());
        _pool.pop_back();
        return log;
    }

    /**
     * Return a reclaimed log to the pool: capacities stay allocated,
     * contents and flags are wiped. The pool is capped at the live-log
     * high-water mark — more recycled logs than were ever simultaneously
     * live can never be reused.
     */
    void
    recycle(TxLog &&log)
    {
        if (_pool.size() >= _liveHighWater)
            return;
        log.entries.clear();
        log.lines.clear();
        log.committed = false;
        log.aborted = false;
        log.commitSeq = 0;
        log.commitDurableAt = 0;
        _pool.push_back(std::move(log));
    }

    std::uint64_t _capacity;
    std::uint64_t _bytes = 0;
    std::uint64_t _nextCommitSeq = 1;
    LineMap<TxLog> _logs;
    std::vector<TxLog> _pool;
    std::size_t _liveHighWater = 0;
    Stats _stats;
};

} // namespace uhtm

#endif // UHTM_MEM_REDO_LOG_HH
