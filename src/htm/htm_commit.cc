/**
 * @file
 * Commit and abort protocols (paper Sections IV-B and IV-C).
 *
 * Commit runs the DRAM and NVM protocols in parallel: the NVM side
 * waits for redo-log durability, writes the commit record and flushes
 * the NVM write set to the DRAM cache; the DRAM side writes the commit
 * mark for undo-logged overflowed lines (or copies values back under
 * the redo-DRAM ablation). Abort invalidates on-chip state, restores
 * overflowed DRAM lines from the undo log, marks the NVM abort flag and
 * invalidates uncommitted DRAM-cache entries via the overflow list.
 *
 * Functionally, commit atomically publishes the write buffer to the
 * architectural store at issue time; abort simply drops it.
 */

#include <algorithm>
#include <cassert>

#include "htm/htm_system.hh"
#include "obs/tracer.hh"

namespace uhtm
{

Tick
HtmSystem::issueCommit(CoreId core)
{
    TxDesc *tx = _coreTx[core];
    assert(tx && "commit without a running transaction");
    assert(!tx->abortRequested && "doomed transaction must abort");
    tx->status = TxStatus::Committing;
    const Tick start = _eq.now();
    UHTM_OBS_EVENT(_obs, start, obs::EventKind::TxCommitStart,
                   static_cast<std::uint16_t>(core), tx->id, 0);

    // Locate the write set: write bits in the L1, then the overflow
    // list (stored in the DRAM cache) for everything L1-evicted.
    Tick t = start + _mcfg.l1Latency;
    t = chargeOverflowListWalk(tx, t);

    // ---- NVM commit (redo) ----
    std::vector<Addr> nvm_lines;
    for (const auto &[line, w] : tx->writeSet)
        if (MemLayout::kindOf(line) == MemKind::Nvm)
            nvm_lines.push_back(line);
    // Canonical address order: the DRAM-cache fills below have
    // order-dependent LRU side effects, and this walk must not inherit
    // the write set's container iteration order.
    std::sort(nvm_lines.begin(), nvm_lines.end());

    Tick t_nvm = t;
    Tick commit_durable_at = 0;
    Tick log_drain = 0; ///< commit stall waiting for redo durability
    if (!nvm_lines.empty()) {
        if (_breakCommitMarkOrdering) {
            // Deliberately broken ordering (test-only, see
            // setBreakCommitMarkOrdering): no fence — the commit
            // record is written while member records still sit in the
            // volatile log write buffer, so it becomes durable first
            // and a crash in between finds a durable commit mark
            // pointing at torn log records.
            t_nvm = _nvmCtrl.access(t_nvm, true, true);
            commit_durable_at = t_nvm;
        } else {
            // Wait until all redo records are durable, then persist
            // the commit record — the transaction's durability point.
            log_drain =
                tx->logsDurableAt > t_nvm ? tx->logsDurableAt - t_nvm : 0;
            t_nvm = std::max(t_nvm, tx->logsDurableAt);
            t_nvm = _nvmCtrl.access(t_nvm, true, true);
            commit_durable_at = t_nvm;
        }
        // Flush the NVM write set to the DRAM cache (slot-pipelined
        // DRAM writes); in-place NVM updates happen lazily on DRAM
        // cache eviction, off the critical path.
        Tick flush_end = t_nvm;
        for (std::size_t i = 0; i < nvm_lines.size(); ++i)
            flush_end = std::max(flush_end, _dramCtrl.access(t_nvm, true));
        t_nvm = flush_end;
    }

    // ---- DRAM commit (undo or redo ablation), in parallel ----
    Tick t_dram = t;
    if (!tx->undoRecords.empty()) {
        // Undo: a single commit mark finalizes everything (fast path
        // of Fig. 4c).
        t_dram = _dramCtrl.access(t_dram, true, true);
    }
    if (_policy.dramLog == DramOverflowLog::Redo &&
        !tx->redoDramLines.empty()) {
        // Redo ablation: walk the log and copy each new value to its
        // in-place location before the commit can finish. The walk is
        // a dependent chain (each copy needs the log entry located
        // first), which is exactly the slow-commit cost of Fig. 4c.
        for (std::size_t i = 0; i < tx->redoDramLines.size(); ++i) {
            const Tick r = _dramCtrl.access(t_dram, false, true);
            t_dram = _dramCtrl.access(r, true);
        }
    }

    const Tick done = std::max(t_nvm, t_dram) + _mcfg.l1Latency;

    // ---- functional commit (atomic at issue) ----
    // The hook fires per commit in publication order, before the write
    // buffer lands — the oracle's definition of the commit sequence.
    if (_commitHook)
        _commitHook(*tx);
    for (const auto &[line, w] : tx->writeSet) {
        std::array<std::uint8_t, kLineBytes> cur;
        store().readLine(line, cur.data());
        if (std::memcmp(w.preImage.data(), cur.data(), kLineBytes) != 0)
            ++_stats.lostUpdates;
        _memory.publish(line, cur, w.image);
    }
    // Report the commit before the DRAM-cache fills below: their
    // evictions can queue in-place writes of this transaction's own
    // lines, which the oracle must already know as committed data.
    if (_faultInjector && !nvm_lines.empty()) {
        FaultInjector::CommittedTx rec;
        rec.tx = tx->id;
        rec.commitDurableAt = commit_durable_at;
        rec.nvmLines.reserve(nvm_lines.size());
        for (Addr line : nvm_lines) {
            rec.nvmLines.push_back(
                FaultInjector::CommittedLine{line,
                                             tx->writeSet.at(line).image});
        }
        _faultInjector->onTxCommitted(std::move(rec));
    }

    if (!nvm_lines.empty()) {
        // The write set's NVM records become the committed log, in the
        // address order recovery searches them by.
        std::vector<RedoEntry> records;
        records.reserve(nvm_lines.size());
        for (Addr line : nvm_lines) {
            const LineWrite &w = tx->writeSet.at(line);
            records.push_back(RedoEntry{line, w.image, w.durableAt});
        }
        _redoLog.commit(commit_durable_at, std::move(records));
        notifyPersist(PersistPoint::CommitMark, 0, commit_durable_at,
                      nullptr);
        for (Addr line : nvm_lines) {
            const auto &buf = tx->writeSet.at(line).image;
            if (!_dramCache.commitEntry(line, tx->id, buf)) {
                DramCacheEntry &e = dramCacheInsert(line, kNoTx);
                e.data = buf;
                e.dirty = true;
                UHTM_OBS_EVENT(_obs, _eq.now(),
                               obs::EventKind::DramCacheFill,
                               static_cast<std::uint16_t>(core), tx->id,
                               line);
            }
        }
    }
    if (!tx->undoRecords.empty()) {
        // The commit mark charged on the DRAM side above.
        _undoLog.commit(tx->undoRecords.size());
        notifyPersist(PersistPoint::UndoCommitMark, 0, 0, nullptr);
    }

    // Clear this core's transactional cache metadata; LLC reader marks
    // are pruned lazily via the TSS.
    _l1s[core]->forEachLine([&](CacheLine &cl) {
        if (cl.txWriter == tx->id)
            cl.txWriter = kNoTx;
        cl.removeTxReader(tx->id);
    });
    for (Addr line : tx->overflowList) {
        if (CacheLine *s = _llc.peek(line); s && s->txWriter == tx->id)
            s->txWriter = kNoTx;
    }

    ++_stats.commits;
    if (tx->serialized) {
        ++_stats.serializedCommits;
        releaseDomainLock(tx, done);
    }
    _stats.commitProtocolNs.sample(nsFromTicks(done - start));
    _stats.txFootprintBytes.sample(
        static_cast<double>(tx->footprintBytes()));

    const Tick overflow_at = tx->overflowTick ? tx->overflowTick : start;
    _abortProfiler.noteCommit(overflow_at - tx->beginTick,
                              start - overflow_at, done - start,
                              log_drain);
    // Durability stall, split out so the offline analyzer can separate
    // commit protocol work from redo-log drain in the critical path.
    if (log_drain > 0) {
        UHTM_OBS_EVENT(_obs, start, obs::EventKind::TxLogDrain,
                       static_cast<std::uint16_t>(core), tx->id,
                       log_drain);
    }
    UHTM_OBS_EVENT(_obs, start, obs::EventKind::TxCommitDone,
                   static_cast<std::uint16_t>(core), tx->id,
                   done - start);

    tx->status = TxStatus::Committed;
    finishTx(tx);
    return done;
}

Tick
HtmSystem::issueAbort(CoreId core)
{
    TxDesc *tx = _coreTx[core];
    assert(tx && "abort without a running transaction");
    assert(tx->abortRequested && "abort protocol needs a doomed tx");
    const Tick start = _eq.now();
    ++_stats.aborts[static_cast<std::size_t>(tx->abortCause)];

    // Flush pipeline state, invalidate the private write set.
    Tick t = start + _mcfg.l1Latency;
    Cache &l1 = *_l1s[core];
    l1.forEachLine([&](CacheLine &cl) {
        if (cl.txWriter == tx->id) {
            l1.drop(cl);
        } else {
            cl.removeTxReader(tx->id);
        }
    });

    // Locate and invalidate LLC-resident write-set blocks through the
    // overflow list.
    t = chargeOverflowListWalk(tx, t);
    for (Addr line : tx->overflowList) {
        CacheLine *s = _llc.peek(line);
        if (s && s->txWriter == tx->id) {
            for (CoreId c = 0; c < _mcfg.cores; ++c)
                if ((s->sharers >> c) & 1)
                    _l1s[c]->invalidate(line);
            _llc.drop(*s);
        }
    }

    // DRAM: restore in-place data from the undo log, in append order.
    // The per-tx undo records are contiguous and self-contained (paper
    // Section IV-B: undo "does not require searching the logs"), so the
    // restore streams the log and scatters the writes, pipelined
    // through the controller. Still the expensive side of prioritizing
    // commits.
    const std::vector<UndoEntry> &undo = tx->undoRecords;
    for (const UndoEntry &e : undo)
        notifyPersist(PersistPoint::UndoCopyBack, e.line, 0, e.oldData.data());
    if (!undo.empty()) {
        Tick end = t;
        for (std::size_t i = 0; i < undo.size(); ++i) {
            const Tick r = _dramCtrl.access(t, false, true);
            end = std::max(end, _dramCtrl.access(r, true));
        }
        t = end;
    }
    _undoLog.abort(undo.size());

    // NVM: mark the abort flag and drop the redo records, one per NVM
    // line of the write set (the paper's background log deletion,
    // modelled as immediate). Invalidate uncommitted DRAM-cache entries
    // found through the overflow list.
    std::uint64_t redo_records = 0;
    for (const auto &[line, w] : tx->writeSet)
        redo_records += MemLayout::kindOf(line) == MemKind::Nvm;
    if (redo_records > 0) {
        t = _nvmCtrl.access(t, true, true);
        notifyPersist(PersistPoint::AbortMark, 0, t, nullptr);
        for (Addr line : tx->overflowList)
            if (MemLayout::kindOf(line) == MemKind::Nvm)
                _dramCache.invalidateEntry(line, tx->id);
        _redoLog.abort(redo_records);
    }

    if (_faultInjector) {
        FaultInjector::AbortedTx rec;
        rec.tx = tx->id;
        rec.undoEntries = std::move(tx->undoRecords);
        rec.lines.reserve(tx->writeSet.size());
        for (const auto &[line, w] : tx->writeSet) {
            rec.lines.push_back(
                FaultInjector::AbortedLine{line, w.preImage, w.image});
        }
        _faultInjector->onTxAborted(std::move(rec));
    }

    _stats.abortProtocolNs.sample(nsFromTicks(t - start));

    const Tick overflow_at = tx->overflowTick ? tx->overflowTick : start;
    _abortProfiler.noteAbort(core, tx->domain, tx->abortCause,
                             overflow_at - tx->beginTick,
                             start - overflow_at, t - start);
    UHTM_OBS_EVENT(_obs, start, obs::EventKind::TxAbort,
                   static_cast<std::uint16_t>(core), tx->id, t - start,
                   static_cast<std::uint32_t>(tx->abortCause));

    tx->status = TxStatus::Aborted;
    finishTx(tx);
    return t;
}

} // namespace uhtm
