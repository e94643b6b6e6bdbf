/**
 * @file
 * HtmSystem: construction, transaction lifecycle, setup access,
 * crash recovery and shared helpers. The timed access path lives in
 * htm_access.cc; the commit/abort protocols in htm_commit.cc.
 */

#include "htm/htm_system.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "obs/tracer.hh"

namespace uhtm
{

HtmSystem::HtmSystem(EventQueue &eq, MachineConfig mcfg, HtmPolicy policy)
    : _eq(eq), _mcfg(mcfg), _policy(policy),
      _llc("LLC", mcfg.llcBytes, mcfg.llcWays, mcfg.txAwareReplacement),
      _dramCtrl(mcfg.dramReadLatency, mcfg.dramWriteLatency, mcfg.dramSlot),
      _nvmCtrl(mcfg.nvmReadLatency, mcfg.nvmWriteLatency, mcfg.nvmSlot),
      _dramCache(mcfg.dramCacheBytes, mcfg.dramCacheWays),
      _undoLog(mcfg.logAreaBytes), _redoLog(mcfg.logAreaBytes)
{
    assert(mcfg.cores >= 1 && mcfg.cores <= 64 &&
           "sharer bitmask limits the model to 64 cores");
    assert(_policy.conflict.validate() && "invalid conflict policy");
    // SigProbe has room for kMaxHashes (word, mask) pairs; more would
    // write past them.
    if (policy.signatureHashes > SigProbe::kMaxHashes)
        throw std::invalid_argument(
            "signature hashes " + std::to_string(policy.signatureHashes) +
            " exceed the supported maximum of " +
            std::to_string(SigProbe::kMaxHashes));
    _conflict = ConflictRules::of(_policy.conflict);
    // Domain summary filters share the per-transaction signature
    // geometry so unionWith() stays a straight word-wise OR.
    if (policy.offChip == OffChipDetection::SignatureLlcMiss ||
        policy.offChip == OffChipDetection::SignatureAllTraffic) {
        _tss.configureSummaries(policy.signatureBits,
                                policy.signatureHashes);
        // The probe memo shares the member-signature geometry so one
        // cached probe serves checks, inserts and summary mirrors.
        _sigBits = BloomSignature::effectiveBits(policy.signatureBits);
        _sigHashes = policy.signatureHashes ? policy.signatureHashes : 1;
        _probeCache.resize(kProbeCacheSize);
    }
    for (unsigned i = 0; i < mcfg.cores; ++i) {
        _l1s.push_back(std::make_unique<Cache>("L1." + std::to_string(i),
                                               mcfg.l1Bytes, mcfg.l1Ways));
    }
    _coreTx.resize(mcfg.cores, nullptr);
}

// The DramCacheEvict trace event records the victim kind as its reason.
static_assert(
    static_cast<std::uint32_t>(DramCache::Victim::WriteBack) ==
        obs::kEvictWriteBack &&
    static_cast<std::uint32_t>(DramCache::Victim::UncommittedDrop) ==
        obs::kEvictUncommittedDrop &&
    static_cast<std::uint32_t>(DramCache::Victim::InvalidatedDrop) ==
        obs::kEvictInvalidatedDrop &&
    static_cast<std::uint32_t>(DramCache::Victim::Clean) ==
        obs::kEvictClean);

DramCacheEntry &
HtmSystem::dramCacheInsert(Addr line, TxId tx)
{
    using Victim = DramCache::Victim;
    const DramCache::Slot slot = _dramCache.victimFor(line, tx);
    const DramCacheEntry &v = *slot.entry;
    if (slot.victim == Victim::WriteBack || slot.victim == Victim::Supersede)
        writeBackDramCacheLine(v);
    else if (slot.victim == Victim::UncommittedDrop)
        notifyPersist(PersistPoint::DramCacheDrop, v.tag, 0, nullptr);
    if (slot.evicts()) {
        UHTM_OBS_EVENT(_obs, _eq.now(), obs::EventKind::DramCacheEvict,
                       obs::kEvNoCore, kNoTx, v.tag,
                       static_cast<std::uint32_t>(slot.victim));
    }
    return _dramCache.install(slot, line, tx);
}

void
HtmSystem::writeBackDramCacheLine(const DramCacheEntry &e)
{
    notifyPersist(PersistPoint::DramCacheWriteback, e.tag, 0,
                  e.data.data());
    const Tick done = _nvmCtrl.access(_eq.now(), true);
    UHTM_OBS_EVENT(_obs, _eq.now(), obs::EventKind::NvmWriteBack,
                   obs::kEvNoCore, kNoTx, e.tag);
    enqueueDurableWrite(e.tag, done, e.data);
}

void
HtmSystem::flushDramCache()
{
    _dramCache.forEach([this](DramCacheEntry &e) {
        if (e.committedDirty()) {
            writeBackDramCacheLine(e);
            _dramCache.clean(e);
        }
    });
}

void
HtmSystem::enqueueDurableWrite(Addr line, Tick due,
                               const MemoryImage::Line &bytes)
{
    // The crash schedule records the write at issue, durable at due,
    // like every other persist point. Notify before queueing: an
    // oracle's first sighting of the line reads the pre-write image.
    notifyPersist(PersistPoint::InPlaceNvmWrite, line, due, bytes.data());
    _memory.queue(line, due, bytes, _eq.now());
}

HtmSystem::~HtmSystem() = default;

DomainId
HtmSystem::createDomain(std::string name)
{
    return _tss.createDomain(std::move(name));
}

TxDesc *
HtmSystem::makeTx(CoreId core, DomainId domain, int attempt,
                  bool serialized)
{
    assert(core < _mcfg.cores);
    assert(!_coreTx[core] && "core already runs a transaction");
    const TxId id = _nextTxId++;
    TxDesc *ptr = _tss.add(std::make_unique<TxDesc>(
        id, core, domain, _policy.signatureBits, _policy.signatureHashes));
    ptr->serialized = serialized;
    ptr->attempt = attempt;
    ptr->beginTick = _eq.now();
    _coreTx[core] = ptr;
    ++_stats.txBegins;
    UHTM_OBS_EVENT(_obs, _eq.now(), obs::EventKind::TxBegin,
                   static_cast<std::uint16_t>(core), id, domain,
                   static_cast<std::uint32_t>(attempt),
                   serialized ? obs::kEvFlag0 : 0);
    return ptr;
}

void
HtmSystem::finishTx(TxDesc *tx)
{
    if (tx->overflowed) {
        _stats.sigInsertsPerTx.sample(static_cast<double>(
            tx->readSig.inserts() + tx->writeSig.inserts()));
    }
    _coreTx[tx->core] = nullptr;
    _tss.remove(tx); // destroys the descriptor
}

TxDesc *
HtmSystem::beginTx(CoreId core, DomainId domain, int attempt)
{
    assert(!_tss.domain(domain).locked() &&
           "fast-path begin while the domain lock is held");
    return makeTx(core, domain, attempt, false);
}

TxDesc *
HtmSystem::beginSerializedTx(CoreId core, DomainId domain, int attempt)
{
    ConflictDomain &d = _tss.domain(domain);
    assert(!d.locked() && "serialized begin requires a free lock");
    TxDesc *tx = makeTx(core, domain, attempt, true);
    d.lockHolder = tx->id;
    ++_stats.lockAcquisitions;
    // Writing the fallback lock aborts every fast-path transaction in
    // the domain (they hold the lock in their read set in Algorithm 1).
    // Adaptive policies attribute these preemptions to the fallback
    // stage; the fixed policy keeps the paper's lock-preempt cause.
    const AbortCause cause = _conflict.preemptCause;
    for (TxDesc *v : _tss.activeInDomain(domain)) {
        if (v != tx)
            requestAbort(v, cause, tx->id);
    }
    return tx;
}

bool
HtmSystem::domainLocked(DomainId domain) const
{
    return const_cast<Tss &>(_tss).domain(domain).locked();
}

void
HtmSystem::waitForDomainLock(DomainId domain, std::coroutine_handle<> h)
{
    _tss.domain(domain).waiters.push_back(h);
}

void
HtmSystem::releaseDomainLock(TxDesc *tx, Tick at)
{
    const DomainId domain = tx->domain;
    const TxId id = tx->id;
    _eq.scheduleAt(at, [this, domain, id] {
        ConflictDomain &d = _tss.domain(domain);
        if (d.lockHolder != id)
            return; // already released (defensive)
        d.lockHolder = kNoTx;
        auto waiters = std::move(d.waiters);
        d.waiters.clear();
        for (auto h : waiters)
            _eq.schedule(0, [h] { h.resume(); });
    });
}

bool
HtmSystem::requestAbort(TxDesc *victim, AbortCause cause, TxId by,
                        Addr line)
{
    if (!victim || !victim->active())
        return false;
    if (victim->status == TxStatus::Committing || victim->serialized)
        return false;
    if (victim->abortRequested)
        return true;
    victim->abortRequested = true;
    victim->abortCause = cause;
    victim->abortedBy = by;
    // Causal attribution pair (trace v2): the conflicting line and the
    // killer, recorded at doom time (the abort protocol runs later,
    // when the victim notices). First doom wins, like the flag itself.
    const std::uint16_t vcore = victim->core == kNoCore
                                    ? obs::kEvNoCore
                                    : static_cast<std::uint16_t>(
                                          victim->core);
    UHTM_OBS_EVENT(_obs, _eq.now(), obs::EventKind::TxConflict, vcore,
                   victim->id, line, static_cast<std::uint32_t>(cause));
    UHTM_OBS_EVENT(_obs, _eq.now(), obs::EventKind::TxConflictBy, vcore,
                   victim->id, by, static_cast<std::uint32_t>(cause));
    return true;
}

TxDesc *
HtmSystem::currentTx(CoreId core) const
{
    assert(core < _coreTx.size());
    return _coreTx[core];
}

TxId
HtmSystem::suspendTx(CoreId core)
{
    TxDesc *tx = _coreTx[core];
    if (!tx)
        return kNoTx;
    // Flush modified private-cache lines to the LLC so the write set
    // can later be located without asking this core (paper IV-E), then
    // drop the whole private working set (the thread is leaving).
    // Address-sorted walk: the overflow-list entries recorded here feed
    // the commit/abort DRAM-cache walks, so their order must not depend
    // on cache placement.
    Cache &l1 = *_l1s[core];
    l1.forEachLineSorted([&](CacheLine &cl) {
        const Addr line = cl.tag;
        CacheLine *s = _llc.atSlot(cl.sharers, line);
        if (s) {
            s->sharers &= ~(1ull << core);
            if (s->ownerCore == core)
                s->ownerCore = kNoCore;
            if (cl.dirty)
                s->dirty = true;
        }
        if (cl.txWriter == tx->id)
            tx->overflowList.insert(line);
        l1.drop(cl);
    });
    _coreTx[core] = nullptr;
    tx->core = kNoCore;
    ++_stats.contextSwitches;
    UHTM_OBS_EVENT(_obs, _eq.now(), obs::EventKind::TxSuspend,
                   static_cast<std::uint16_t>(core), tx->id, 0);
    return tx->id;
}

void
HtmSystem::resumeTx(CoreId core, TxId id)
{
    assert(isSuspended(id) && "resume of a non-suspended tx");
    assert(!_coreTx[core] && "target core already runs a transaction");
    TxDesc *tx = _tss.byId(id);
    tx->core = core;
    _coreTx[core] = tx;
    UHTM_OBS_EVENT(_obs, _eq.now(), obs::EventKind::TxResume,
                   static_cast<std::uint16_t>(core), id, 0);
}

bool
HtmSystem::isSuspended(TxId id) const
{
    const TxDesc *tx = _tss.byId(id);
    return tx && tx->core == kNoCore;
}

bool
HtmSystem::abortPending(CoreId core) const
{
    const TxDesc *tx = currentTx(core);
    return tx && tx->abortRequested;
}

std::uint64_t
HtmSystem::setupRead64(Addr a) const
{
    return store().read64(a);
}

BackingStore
HtmSystem::recoverAfterCrash()
{
    BackingStore img = durableNvm().image();
    _redoLog.replayCommitted(img, _eq.now());
    return img;
}

HtmSystem::MemoryLedger
HtmSystem::memoryLedger() const
{
    return {_memory.storeBytes(), _memory.lagBytes(), _redoLog.footprint()};
}

void
HtmSystem::markOverflowed(TxDesc *tx, Addr line)
{
    if (!tx->overflowed) {
        tx->overflowed = true;
        tx->overflowTick = _eq.now();
        ++_stats.overflowedTxs;
        UHTM_OBS_EVENT(_obs, _eq.now(), obs::EventKind::TxOverflow,
                       tx->core == kNoCore
                           ? obs::kEvNoCore
                           : static_cast<std::uint16_t>(tx->core),
                       tx->id, line);
    }
}

void
HtmSystem::pruneLineMeta(CacheLine &line)
{
    if (line.txWriter != kNoTx && !_tss.byId(line.txWriter))
        line.txWriter = kNoTx;
    for (std::size_t i = 0; i < line.txReaders.size();) {
        if (!_tss.byId(line.txReaders[i])) {
            line.txReaders[i] = line.txReaders.back();
            line.txReaders.pop_back();
        } else {
            ++i;
        }
    }
}

void
HtmSystem::lineImage(const TxDesc *tx, Addr line,
                     std::array<std::uint8_t, kLineBytes> &out) const
{
    if (tx) {
        auto it = tx->writeSet.find(line);
        if (it != tx->writeSet.end()) {
            out = it->second.image;
            return;
        }
    }
    store().readLine(line, out.data());
}

void
HtmSystem::writebackToMemory(Addr line, Tick t)
{
    if (MemLayout::kindOf(line) == MemKind::Dram) {
        _dramCtrl.access(t, true);
    } else {
        const Tick done = _nvmCtrl.access(t, true);
        // The in-place write carries the line's architectural bytes
        // into the durable image when it completes.
        MemoryImage::Line bytes;
        store().readLine(line, bytes.data());
        enqueueDurableWrite(line, done, bytes);
    }
}

void
HtmSystem::registerTxAtDirectory(Addr line, TxDesc *tx, bool is_write)
{
    CacheLine *s = _llc.peek(line);
    if (!s) {
        ++_stats.inclusionViolations;
        return;
    }
    // The directory update refreshes the LLC's recency too, so hot
    // L1-resident transactional lines are not inclusion victims.
    _llc.touch(*s);
    if (is_write) {
        s->txWriter = tx->id;
        s->ownerCore = tx->core;
        s->dirty = true;
    } else {
        s->addTxReader(tx->id);
    }
}

Tick
HtmSystem::chargeOverflowListWalk(const TxDesc *tx, Tick t)
{
    if (tx->overflowList.empty())
        return t;
    const std::size_t accesses =
        (tx->overflowList.size() + kListEntriesPerAccess - 1) /
        kListEntriesPerAccess;
    Tick end = t;
    for (std::size_t i = 0; i < accesses; ++i)
        end = std::max(end, _dramCtrl.access(t, false));
    return end;
}

void
HtmSystem::prewarmLlc(Addr base, std::uint64_t lines)
{
    for (std::uint64_t i = 0; i < lines; ++i) {
        const Addr line = lineAlign(base) + i * kLineBytes;
        if (_llc.peek(line))
            continue;
        bool had = false;
        CacheLine *s = _llc.victimFor(line, had);
        // Pre-warm happens before any transaction exists; evicted
        // lines are clean prewarm lines, so no protocol action needed.
        _llc.install(s, line);
    }
}

} // namespace uhtm
