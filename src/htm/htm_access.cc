/**
 * @file
 * The timed, conflict-checked memory access path: L1 → directory/LLC →
 * memory, with the paper's staged conflict detection and the eviction
 * (overflow) handling that drives UHTM's hybrid version management.
 */

#include <cassert>
#include <cstring>

#include "htm/htm_system.hh"
#include "obs/tracer.hh"

namespace uhtm
{

namespace
{

/** Store @p wdata into @p bytes at word offset @p off, or into every
 *  word for a whole-line store. */
void
storeInto(std::array<std::uint8_t, kLineBytes> &bytes, Addr off,
          bool whole_line, std::uint64_t wdata)
{
    if (whole_line) {
        for (unsigned i = 0; i < kLineBytes; i += 8)
            std::memcpy(bytes.data() + i, &wdata, 8);
    } else {
        std::memcpy(bytes.data() + off, &wdata, 8);
    }
}

} // namespace

HtmSystem::Resolution
HtmSystem::onChipConflictCheck(CacheLine &s, TxDesc *req, bool is_write)
{
    // Collect live conflicting transactions from the directory fields.
    TxDesc *writer =
        s.txWriter != kNoTx ? _tss.byId(s.txWriter) : nullptr;
    if (writer == req)
        writer = nullptr;

    // A read (GetS) only conflicts with a transactional writer; a write
    // (GetM) conflicts with the writer and every transactional reader.
    std::vector<TxDesc *> victims;
    if (writer)
        victims.push_back(writer);
    if (is_write) {
        for (TxId r : s.txReaders) {
            TxDesc *d = _tss.byId(r);
            if (d && d != req && d != writer)
                victims.push_back(d);
        }
    }
    if (victims.empty())
        return {};

    if (!req) {
        // Non-transactional requester: it cannot abort, so conflicting
        // transactions lose (this is the false-conflict channel the
        // signature-isolation optimization closes off chip; on chip it
        // is a true data race).
        for (TxDesc *v : victims)
            requestAbort(v, AbortCause::TrueConflictOnChip, kNoTx,
                         s.tag);
        return {};
    }

    // Committing/serialized victims are immune, so the requester
    // aborts; otherwise the policy decides the asymmetry (paper Table
    // II under the default fixed policy: if exactly one side
    // overflowed, the non-overflowed side aborts).
    for (TxDesc *v : victims) {
        const bool immune =
            v->status == TxStatus::Committing || v->serialized;
        if (immune || _conflict.onChipRequesterAborts(*req, *v)) {
            requestAbort(req, AbortCause::TrueConflictOnChip, v->id,
                         s.tag);
            return {true};
        }
    }
    // Requester-wins for the symmetric cases.
    for (TxDesc *v : victims) {
        requestAbort(v, AbortCause::TrueConflictOnChip, req->id, s.tag);
    }
    return {};
}

HtmSystem::Resolution
HtmSystem::offChipConflictCheck(Addr line, TxDesc *req,
                                DomainId req_domain, bool is_write)
{
    const bool precise = _policy.offChip == OffChipDetection::Precise;
    const auto &cands = _policy.signatureIsolation
                            ? _tss.activeInDomain(req_domain)
                            : _tss.active();

    // Hash the line at most once per run of touches: every signature on
    // this walk (summary union plus per-candidate read/write filters)
    // shares one geometry, so a single memoized probe serves them all
    // with whole-word tests.
    const SigProbe *probe = nullptr;
    if (!precise && !cands.empty())
        probe = &probeFor(line);

    // Summary-filter fast path: one probe of the union of all candidate
    // signatures. A miss proves every per-transaction probe below would
    // miss too (no false negatives), so the walk can be skipped — but
    // the per-candidate sigChecks accounting must stay exactly as the
    // slow path would have produced it (the counter is serialized in
    // the bench JSON, which is golden-compared byte for byte).
    if (!precise && _tss.summariesEnabled() && !cands.empty()) {
        ++_stats.summaryProbes;
        const bool may = _policy.signatureIsolation
                             ? _tss.summaryMayContain(req_domain, *probe)
                             : _tss.summaryMayContainAny(*probe);
        if (!may) {
            ++_stats.summarySkips;
            const std::uint64_t probes_each = is_write ? 2 : 1;
            for (const TxDesc *v : cands) {
                if (v == req || !v->active() || v->serialized)
                    continue;
                if (v->readSig.empty() && v->writeSig.empty())
                    continue;
                ++_stats.sigChecks;
                _stats.sigProbesAvoided += probes_each;
            }
            return {};
        }
    }

    for (TxDesc *v : cands) {
        if (v == req || !v->active() || v->serialized)
            continue;

        const bool truth =
            is_write ? (v->readSet.count(line) || v->writeSet.count(line))
                     : (v->writeSet.count(line) != 0);
        bool hit;
        if (precise) {
            hit = truth;
        } else {
            if (v->readSig.empty() && v->writeSig.empty())
                continue;
            ++_stats.sigChecks;
            hit = is_write ? (v->readSig.mayContain(*probe) ||
                              v->writeSig.mayContain(*probe))
                           : v->writeSig.mayContain(*probe);
            if (hit) {
                ++_stats.sigHits;
                if (!truth)
                    ++_stats.sigFalseHits;
                UHTM_OBS_EVENT(_obs, _eq.now(),
                               obs::EventKind::SigCheckHit,
                               obs::kEvNoCore, v->id, line, 0,
                               truth ? 0 : obs::kEvFlag0);
            } else {
                UHTM_OBS_EVENT(_obs, _eq.now(),
                               obs::EventKind::SigCheckMiss,
                               obs::kEvNoCore, v->id, line);
            }
        }
        if (!hit)
            continue;

        const AbortCause cause =
            truth ? AbortCause::TrueConflictOffChip
                  : (v->domain != req_domain ? AbortCause::CrossDomainFalse
                                             : AbortCause::FalsePositive);

        if (!req) {
            // Non-transactional LLC miss hitting a signature: the
            // transaction must abort for correctness.
            requestAbort(v, cause, kNoTx, line);
            continue;
        }
        if (_conflict.offChipVictimAborts(*req, *v)) {
            // Overflowed-transaction priority (paper Table II) or an
            // adaptive policy ruling in the requester's favour.
            if (requestAbort(v, cause, req->id, line))
                continue;
        }
        // Requester-loses for overflowed conflicts: no extra
        // processor-to-processor communication needed.
        requestAbort(req, cause, v->id, line);
        return {true};
    }
    return {};
}

void
HtmSystem::handleL1Eviction(CoreId core, const CacheLine &ev, Tick t)
{
    const Addr line = ev.tag;
    // An L1 line's sharers field is its directory line's LLC slot.
    CacheLine *s = _llc.atSlot(ev.sharers, line);
    assert(s == _llc.peek(line));
    if (s) {
        s->sharers &= ~(1ull << core);
        if (s->ownerCore == core)
            s->ownerCore = kNoCore;
        if (ev.dirty)
            s->dirty = true;
    }
    // Track L1-evicted write-set blocks in the overflow list so commit
    // and abort can locate them without scanning the LLC (Section IV-B).
    if (ev.txWriter != kNoTx) {
        TxDesc *tx = _tss.byId(ev.txWriter);
        if (tx && tx->active()) {
            tx->overflowList.insert(line);
            // The list lives in the DRAM cache: one async DRAM write.
            _dramCtrl.access(t, true);
        }
    }
}

void
HtmSystem::handleChipEviction(const CacheLine &ev, Tick t)
{
    const Addr line = ev.tag;

    // Inclusive hierarchy: recall every L1 copy.
    for (CoreId c = 0; c < _mcfg.cores; ++c)
        if ((ev.sharers >> c) & 1)
            _l1s[c]->invalidate(line);
    if (ev.ownerCore != kNoCore)
        _l1s[ev.ownerCore]->invalidate(line);

    TxDesc *writer =
        ev.txWriter != kNoTx ? _tss.byId(ev.txWriter) : nullptr;
    if (writer && !writer->active())
        writer = nullptr;
    std::vector<TxDesc *> readers;
    for (TxId r : ev.txReaders) {
        TxDesc *d = _tss.byId(r);
        if (d && d->active() && d != writer)
            readers.push_back(d);
    }

    if (writer || !readers.empty())
        ++_stats.llcTxEvictions;
    if (writer)
        ++_stats.llcTxWriteEvictions;
    else if (!readers.empty())
        ++_stats.llcTxReadEvictions;

    if (_policy.offChip == OffChipDetection::None) {
        // LLC-Bounded HTM: losing on-chip tracking means the
        // transaction can no longer be isolated — capacity abort.
        if (writer && !writer->serialized)
            requestAbort(writer, AbortCause::Capacity, kNoTx, line);
        for (TxDesc *d : readers)
            if (!d->serialized)
                requestAbort(d, AbortCause::Capacity, kNoTx, line);
        if (ev.dirty && !writer)
            writebackToMemory(line, t);
        return;
    }

    // Unbounded modes: move tracking to signatures (or precise sets)
    // and apply the hybrid version management.
    if (writer && !writer->serialized) {
        markOverflowed(writer, line);
        if (_policy.offChip != OffChipDetection::Precise) {
            const SigProbe &p = probeFor(line);
            writer->writeSig.insert(p);
            _tss.noteSigInsert(writer->domain, p);
        }
        writer->overflowList.insert(line);

        if (MemLayout::kindOf(line) == MemKind::Dram) {
            if (_policy.dramLog == DramOverflowLog::Undo) {
                // Eager: the line's first LLC eviction logs its old
                // value (read in-place + log write, both off the
                // critical path); the new value is written in place.
                // The line's write-set record says whether it already
                // has its undo record: the first logged image is the
                // pre-transaction value that abort must restore. (The
                // record exists: txWriter is set only by accesses
                // that reach the functional half; at() asserts it.)
                LineWrite &w = writer->writeSet.at(line);
                if (w.durableAt == 0) {
                    if (_undoLog.reserve())
                        ++_stats.logExpansions;
                    UndoEntry &e =
                        writer->undoRecords.emplace_back(UndoEntry{line});
                    store().readLine(line, e.oldData.data());
                    notifyPersist(PersistPoint::UndoLogAppend, line, 0,
                                  e.oldData.data());
                    const Tick r = _dramCtrl.access(t, false);
                    w.durableAt = _dramCtrl.access(r, true, true);
                    UHTM_OBS_EVENT(_obs, t,
                                   obs::EventKind::UndoLogAppend,
                                   obs::kEvNoCore, writer->id, line);
                }
                _dramCtrl.access(t, true); // speculative in-place write
            } else {
                // Lazy (ablation): new value to the log, in-place data
                // untouched; later reads pay the indirection.
                _dramCtrl.access(t, true, true);
                writer->redoDramLines.insert(line);
            }
        } else {
            // NVM: early eviction into the DRAM cache ([28]); the redo
            // record was already created at store time.
            std::array<std::uint8_t, kLineBytes> img;
            lineImage(writer, line, img);
            dramCacheInsert(line, writer->id).data = img;
            _dramCtrl.access(t, true);
            UHTM_OBS_EVENT(_obs, t, obs::EventKind::DramCacheFill,
                           obs::kEvNoCore, writer->id, line);
        }
    } else if (ev.dirty) {
        writebackToMemory(line, t);
    }

    for (TxDesc *d : readers) {
        if (d->serialized)
            continue;
        markOverflowed(d, line);
        if (_policy.offChip != OffChipDetection::Precise) {
            const SigProbe &p = probeFor(line);
            d->readSig.insert(p);
            _tss.noteSigInsert(d->domain, p);
        }
    }
}

AccessResult
HtmSystem::issueAccess(CoreId core, DomainId domain, Addr addr,
                       bool is_write, bool whole_line, std::uint64_t wdata)
{
    assert(core < _mcfg.cores);
    assert(MemLayout::isSoftwareVisible(addr) &&
           "software access outside DRAM/NVM regions");
    TxDesc *tx = _coreTx[core];
    const Addr line = lineAlign(addr);
    Tick t = _eq.now();

    // A doomed transaction makes no further progress; the awaiter
    // throws TxAborted when this access "completes".
    if (tx && tx->abortRequested)
        return {t + _mcfg.l1Latency, 0};

    const bool checks = !(tx && tx->serialized);
    const bool track_meta = tx && !tx->serialized;

    // Signature-Only baseline: every request is checked against every
    // signature and every accessed line is inserted (Bulk/LogTM-SE).
    if (checks && _policy.offChip == OffChipDetection::SignatureAllTraffic) {
        if (offChipConflictCheck(line, tx, domain, is_write)
                .requesterAborts)
            return {t + _mcfg.l1Latency, 0};
        if (tx) {
            const SigProbe &p = probeFor(line);
            (is_write ? tx->writeSig : tx->readSig).insert(p);
            _tss.noteSigInsert(tx->domain, p);
        }
    }

    Cache &l1 = *_l1s[core];
    CacheLine *l = l1.lookup(line);
    const bool upgrade = l && is_write && !l->exclusive;

    if (l && !upgrade) {
        // L1 hit with sufficient permission.
        t += _mcfg.l1Latency;
        if (is_write) {
            l->dirty = true;
            if (track_meta)
                l->txWriter = tx->id;
        } else if (track_meta) {
            l->addTxReader(tx->id);
        }
        // Keep the directory's Tx fields in sync (piggy-backed update,
        // no latency: the directory already points at this core).
        if (track_meta)
            registerTxAtDirectory(line, tx, is_write);
    } else {
        // L1 miss or upgrade: consult the directory at the LLC.
        t += _mcfg.l1Latency + _mcfg.llcLatency;
        CacheLine *s = _llc.lookup(line);
        if (s) {
            pruneLineMeta(*s);
            if (checks &&
                onChipConflictCheck(*s, tx, is_write).requesterAborts)
                return {t, 0};
            if (is_write) {
                for (CoreId c = 0; c < _mcfg.cores; ++c) {
                    if (c != core && ((s->sharers >> c) & 1))
                        _l1s[c]->invalidate(line);
                }
                if (s->ownerCore != kNoCore && s->ownerCore != core) {
                    _l1s[s->ownerCore]->invalidate(line);
                    t += _mcfg.l1Latency; // dirty data from owner's L1
                }
                s->sharers = 1ull << core;
                s->ownerCore = core;
                s->dirty = true;
            } else {
                if (s->ownerCore != kNoCore && s->ownerCore != core) {
                    t += _mcfg.l1Latency; // owner downgrade + data
                    if (CacheLine *ol = _l1s[s->ownerCore]->peek(line)) {
                        ol->exclusive = false;
                        ol->dirty = false;
                    }
                    s->dirty = true;
                    s->ownerCore = kNoCore;
                }
                s->sharers |= 1ull << core;
            }
        } else {
            // LLC miss: off-chip conflict detection, then memory.
            if (checks &&
                (_policy.offChip == OffChipDetection::SignatureLlcMiss ||
                 _policy.offChip == OffChipDetection::Precise)) {
                if (offChipConflictCheck(line, tx, domain, is_write)
                        .requesterAborts)
                    return {t, 0};
            }
            if (is_write && whole_line) {
                // Full-line store: no fetch from memory is needed
                // (write-combining store, no read-for-ownership data).
                // The line still allocates in the LLC and L1 below.
            } else if (MemLayout::kindOf(line) == MemKind::Dram) {
                t = _dramCtrl.access(t, false);
                if (tx && tx->redoDramLines.count(line)) {
                    // Redo-mode read indirection: locate the new value
                    // in the DRAM log before use (paper Fig. 4b).
                    t = _dramCtrl.access(t, false, true);
                }
            } else {
                if (_dramCache.lookup(line)) {
                    t = _dramCtrl.access(t, false);
                } else {
                    t = _nvmCtrl.access(t, false);
                    dramCacheInsert(line, kNoTx); // cache the NVM line
                    UHTM_OBS_EVENT(_obs, t, obs::EventKind::DramCacheFill,
                                   obs::kEvNoCore, kNoTx, line);
                }
            }
            // In-place eviction: process the victim where it sits (the
            // handler never touches the LLC), then install over it —
            // no CacheLine copy on the fill path.
            bool had = false;
            s = _llc.victimFor(line, had);
            if (had)
                handleChipEviction(*s, t);
            _llc.install(s, line);
            s->sharers = 1ull << core;
            // The filling core is the sole holder: grant E (reads) or
            // M (writes). The directory MUST record the owner either
            // way — a silently-exclusive clean copy that later remote
            // readers fail to downgrade lets the holder write through
            // the L1-hit fast path without any conflict check.
            s->ownerCore = core;
            s->dirty = is_write;
            // Our own fill may have evicted one of our own lines
            // (bounded mode: self capacity abort).
            if (tx && tx->abortRequested)
                return {t, 0};
        }
        if (track_meta) {
            if (is_write)
                s->txWriter = tx->id;
            else
                s->addTxReader(tx->id);
        }

        // Fill / upgrade the L1 copy.
        if (!l) {
            // Same in-place pattern; the handler reads the victim and
            // the LLC, never this L1.
            bool had_l1 = false;
            l = l1.victimFor(line, had_l1);
            if (had_l1)
                handleL1Eviction(core, *l, t);
            l1.install(l, line);
        }
        // Remember the directory line's slot, so the L1 eviction
        // handler finds it without searching the LLC set.
        l->sharers = _llc.slotOf(*s);
        const bool sole = s->sharers == (1ull << core);
        l->exclusive = is_write || (sole && s->ownerCore == kNoCore) ||
                       s->ownerCore == core;
        if (is_write)
            l->dirty = true;
        if (track_meta) {
            if (is_write)
                l->txWriter = tx->id;
            else
                l->addTxReader(tx->id);
        }
    }

    // ---- functional half ----
    std::uint64_t data = 0;
    const Addr word = addr & ~static_cast<Addr>(7);
    if (tx) {
        if (is_write) {
            ++tx->writes;
            auto it = tx->writeSet.find(line);
            const bool fresh = it == tx->writeSet.end();
            if (fresh) {
                // Copy-on-first-write: buffer starts from the
                // architectural (pre-transaction) image.
                it = tx->writeSet.emplace(line).first;
                store().readLine(line, it->second.image.data());
                it->second.preImage = it->second.image;
            }
            LineWrite &w = it->second;
            storeInto(w.image, word - line, whole_line, wdata);
            if (MemLayout::kindOf(line) == MemKind::Nvm) {
                // [28]-style hardware redo logging at store time: the
                // async log write consumes NVM bandwidth; commit waits
                // for the durability horizon.
                Tick dur = _nvmCtrl.access(_eq.now(), true, true);
                if (_breakCommitMarkOrdering) {
                    // Broken-fence model (test-only, see
                    // setBreakCommitMarkOrdering): the record lingers
                    // in a volatile log write buffer past the
                    // controller's completion.
                    dur += kBrokenLogFlushLag;
                }
                // The write-set record is the line's redo record. A
                // repeated write coalesces into it (write-combining in
                // the log buffer) and is durable once both writes are;
                // it is a persistence-ordering point like a fresh
                // append.
                w.durableAt = std::max(w.durableAt, dur);
                if (!fresh)
                    _redoLog.noteCoalesced();
                else if (_redoLog.reserve())
                    ++_stats.logExpansions;
                notifyPersist(PersistPoint::RedoLogAppend, line,
                              w.durableAt, w.image.data());
                if (w.durableAt > tx->logsDurableAt)
                    tx->logsDurableAt = w.durableAt;
                UHTM_OBS_EVENT(_obs, _eq.now(),
                               obs::EventKind::RedoLogAppend,
                               static_cast<std::uint16_t>(core), tx->id,
                               line, 0, fresh ? 0 : obs::kEvFlag0);
            }
        } else {
            ++tx->reads;
            tx->readSet.insert(line);
            auto it = tx->writeSet.find(line);
            if (it != tx->writeSet.end())
                std::memcpy(&data, it->second.image.data() + (word - line),
                            8);
            else
                data = store().read64(word);
        }
    } else {
        if (is_write) {
            std::array<std::uint8_t, kLineBytes> old, now;
            store().readLine(line, old.data());
            now = old;
            storeInto(now, word - line, whole_line, wdata);
            _memory.publish(line, old, now);
            if (MemLayout::kindOf(line) == MemKind::Nvm)
                enqueueDurableWrite(line, t, now);
        } else {
            data = store().read64(word);
        }
    }
    return {t, data};
}

} // namespace uhtm
