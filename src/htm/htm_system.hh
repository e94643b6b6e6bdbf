/**
 * @file
 * The UHTM machine: cores, cache hierarchy, hybrid DRAM/NVM memory,
 * logs, and the transactional protocol engine.
 *
 * HtmSystem composes the passive mem/ components and implements the
 * paper's protocols on top of them:
 *   - execution-driven timed memory accesses (Table III latencies);
 *   - staged conflict detection: directory (Tx-bit/Tx-Owner/Tx-Sharer)
 *     on chip, address signatures (or precise sets, or nothing) off
 *     chip, selected by HtmPolicy;
 *   - conflict resolution per paper Table II (requester-wins on chip,
 *     requester-loses off chip, overflowed-transaction priority);
 *   - hybrid version management: eager on-chip, undo logging for
 *     LLC-overflowed DRAM lines, [28]-style redo logging + DRAM cache
 *     for NVM lines;
 *   - commit/abort protocols for DRAM and NVM in parallel;
 *   - crash recovery by redo-log replay.
 *
 * Functional isolation is provided by per-transaction write buffers
 * (see DESIGN.md "Functional vs. timing split").
 */

#ifndef UHTM_HTM_HTM_SYSTEM_HH
#define UHTM_HTM_HTM_SYSTEM_HH

#include <array>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "check/fault_injector.hh"
#include "htm/config.hh"
#include "htm/conflict_policy.hh"
#include "htm/tss.hh"
#include "htm/tx_desc.hh"
#include "mem/cache.hh"
#include "mem/dram_cache.hh"
#include "mem/layout.hh"
#include "mem/mem_ctrl.hh"
#include "mem/memory_image.hh"
#include "mem/redo_log.hh"
#include "mem/undo_log.hh"
#include "obs/abort_profile.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace uhtm
{

namespace obs
{
class Tracer;
}

/** Aggregate HTM statistics for one run. */
struct HtmStats
{
    std::uint64_t txBegins = 0;
    std::uint64_t commits = 0;
    std::uint64_t serializedCommits = 0;
    std::uint64_t lockAcquisitions = 0;

    /** Aborts indexed by AbortCause. */
    std::array<std::uint64_t, kAbortCauseCount> aborts{};

    std::uint64_t overflowedTxs = 0;
    std::uint64_t llcTxEvictions = 0;
    /** Evictions of lines written by a live transaction. */
    std::uint64_t llcTxWriteEvictions = 0;
    /** Evictions of lines only read by live transactions. */
    std::uint64_t llcTxReadEvictions = 0;

    std::uint64_t sigChecks = 0;
    std::uint64_t sigHits = 0;
    std::uint64_t sigFalseHits = 0;

    /**
     * Domain summary-filter fast path (simulator-internal; not part of
     * the serialized bench JSON — the schema and values above are
     * frozen for byte-identical golden comparison).
     */
    std::uint64_t summaryProbes = 0;
    /** Summary misses: the per-transaction probe walk was skipped. */
    std::uint64_t summarySkips = 0;
    /** Individual bloom probes proven unnecessary by a summary miss. */
    std::uint64_t sigProbesAvoided = 0;

    /**
     * Commits of a line whose architectural image changed between the
     * transaction's first write and its commit: an update the conflict
     * detection let through. Always 0 on a correct protocol. Not
     * serialized into the bench JSON or the metrics sidecar.
     */
    std::uint64_t lostUpdates = 0;

    /**
     * Transactional L1 hits on a line with no LLC copy: a hole in the
     * inclusive hierarchy (the directory cannot record the access).
     * Always 0 on a correct protocol. Not serialized, like lostUpdates.
     */
    std::uint64_t inclusionViolations = 0;

    std::uint64_t contextSwitches = 0;
    /** OS traps taken to expand a full log area (Section IV-E). */
    std::uint64_t logExpansions = 0;

    Distribution commitProtocolNs;
    Distribution abortProtocolNs;
    Distribution txFootprintBytes;
    /** Lines inserted into the signatures of each overflowed tx. */
    Distribution sigInsertsPerTx;

    std::uint64_t
    abortsOf(AbortCause c) const
    {
        return aborts[static_cast<std::size_t>(c)];
    }

    std::uint64_t
    totalAborts() const
    {
        std::uint64_t s = 0;
        for (auto a : aborts)
            s += a;
        return s;
    }

    /** Fraction of transaction attempts that aborted. */
    double
    abortRate() const
    {
        const std::uint64_t attempts = commits + totalAborts();
        return attempts ? static_cast<double>(totalAborts()) / attempts
                        : 0.0;
    }
};

/** Result of issuing a timed memory access. */
struct AccessResult
{
    /** Tick at which the access completes and the core may proceed. */
    Tick completeAt = 0;
    /** Functional data returned to the core (loads). */
    std::uint64_t data = 0;
};

/**
 * The simulated machine and transactional protocol engine.
 *
 * Metadata/state transitions happen synchronously at issue time; only
 * completion is delayed through the event queue, which keeps the model
 * deterministic (see DESIGN.md). Workloads use this class through
 * TxContext rather than directly.
 */
class HtmSystem
{
  public:
    /** @throws std::invalid_argument if @p policy asks for more than
     *  SigProbe::kMaxHashes signature hashes, or on a bad cache
     *  geometry. */
    HtmSystem(EventQueue &eq, MachineConfig mcfg, HtmPolicy policy);
    ~HtmSystem();

    HtmSystem(const HtmSystem &) = delete;
    HtmSystem &operator=(const HtmSystem &) = delete;

    /** Create a conflict domain (one per simulated process). */
    DomainId createDomain(std::string name);

    /** @name Transaction lifecycle (used by TxContext)
     *  @{ */

    /** Begin a transaction on @p core. The domain lock must be free. */
    TxDesc *beginTx(CoreId core, DomainId domain, int attempt);

    /**
     * Acquire the domain lock and begin a serialized (slow-path)
     * transaction: running transactions in the domain are preempted
     * (Algorithm 1's fallback behaviour).
     */
    TxDesc *beginSerializedTx(CoreId core, DomainId domain, int attempt);

    /** True if @p domain's slow-path lock is held. */
    bool domainLocked(DomainId domain) const;

    /** Park a coroutine until @p domain's lock is released. */
    void waitForDomainLock(DomainId domain, std::coroutine_handle<> h);

    /**
     * Issue a timed, conflict-checked memory access.
     *
     * For transactional requesters, a conflict that resolves against
     * the requester (or a capacity overflow in bounded mode) sets the
     * requester's abortion flag in the TSS; the caller's awaiter throws
     * TxAborted on resume. Victim transactions on other cores get
     * their abortion flag set and notice at their next resume.
     *
     * @param core issuing core.
     * @param domain conflict domain of the issuing (possibly
     *        non-transactional) context.
     * @param addr byte address.
     * @param is_write store (true) or load.
     * @param whole_line touch the full 64B line instead of one word.
     * @param wdata store payload (replicated across the line for
     *        whole-line stores).
     */
    AccessResult issueAccess(CoreId core, DomainId domain, Addr addr,
                             bool is_write, bool whole_line,
                             std::uint64_t wdata);

    /**
     * Run the commit protocol for the transaction on @p core.
     * The transaction must not have its abortion flag set. Functional
     * publication happens atomically at issue; the returned tick is
     * when the protocol (durability wait, overflow-list walk, commit
     * marks, NVM write-set flush) completes.
     */
    Tick issueCommit(CoreId core);

    /**
     * Run the abort protocol for the (doomed) transaction on @p core:
     * on-chip invalidations, undo restore for overflowed DRAM lines,
     * NVM abort marking and DRAM-cache invalidation. Returns the
     * completion tick (backoff is the caller's concern).
     */
    Tick issueAbort(CoreId core);

    /** Transaction currently running on @p core (nullptr if none). */
    TxDesc *currentTx(CoreId core) const;

    /** @name Context-switch support (paper Section IV-E)
     *
     * Directory fields and signatures are keyed by transaction id, not
     * core id, so a transaction survives preemption: suspend flushes
     * the private cache's transactional lines to the LLC (so commit or
     * abort can later locate them without the old core), detaches the
     * descriptor from the core, and leaves it registered in the TSS —
     * conflicts arising while it is off-core set its abortion flag,
     * which it observes on its first access after resuming.
     *  @{ */

    /**
     * Preempt the transaction on @p core.
     * @return its id (pass to resumeTx), or kNoTx if none ran.
     */
    TxId suspendTx(CoreId core);

    /** Re-install suspended transaction @p id on @p core. */
    void resumeTx(CoreId core, TxId id);

    /** True if @p id is suspended: live, but on no core. */
    bool isSuspended(TxId id) const;

    /** @} */

    /** True if @p core's transaction has its abortion flag set. */
    bool abortPending(CoreId core) const;

    /** @} */

    /** @name Functional setup access (no timing; initialization)
     *  @{ */

    /** Write 64 bits functionally; NVM writes also become durable. */
    void
    setupWrite64(Addr a, std::uint64_t v)
    {
        _memory.setupWrite64(a, v);
    }

    /** Functional read (architectural state). */
    std::uint64_t setupRead64(Addr a) const;

    /** @} */

    /** @name Crash and recovery
     *  @{ */

    /**
     * Simulate a power failure at the current tick and run recovery:
     * take the durable in-place NVM image and replay the redo records
     * of every transaction whose commit record was durable.
     * @return the recovered NVM image.
     */
    BackingStore recoverAfterCrash();

    /** Durable in-place NVM image (pre-replay), for tests and the
     *  crash oracle, with the queued writes applied up to
     *  durableHorizon(). Cheap when nothing is due. */
    const MemoryImage &
    durableNvm()
    {
        _memory.apply(durableHorizon());
        return _memory;
    }

    /**
     * Attach (or with nullptr detach) a crash-point fault injector.
     * HtmSystem announces every persist point to it, and reports each
     * transaction's outcome from the commit/abort protocols. The
     * durable-write path is the same with or without an injector.
     */
    void setFaultInjector(FaultInjector *fi) { _faultInjector = fi; }

    /**
     * Write every committed dirty DRAM-cache entry back to in-place NVM
     * now, as evictions would (tests drain the cache with this).
     */
    void flushDramCache();

    /**
     * Test-only protocol mutation modelling a missing persist fence:
     * redo-log record writes linger in a volatile log write buffer
     * (their durability lags the controller by kBrokenLogFlushLag) and
     * the commit record no longer waits for them to drain. The commit
     * record can thus become durable while member records are still
     * volatile — exactly the torn-log window the paper's commit-mark
     * ordering (Section IV-C) exists to rule out, and the detection
     * target the crash-sweep oracle is validated against.
     */
    void setBreakCommitMarkOrdering(bool b)
    {
        _breakCommitMarkOrdering = b;
    }

    /** @} */

    /** @name Component and state access (tests, harness)
     *  @{ */

    EventQueue &eventQueue() { return _eq; }
    const MachineConfig &machine() const { return _mcfg; }
    const HtmPolicy &policy() const { return _policy; }
    const ConflictRules &conflictRules() const { return _conflict; }
    /** Architectural state, read-only (MemoryImage::store()). */
    const BackingStore &store() const { return _memory.store(); }
    Cache &l1(CoreId c) { return *_l1s[c]; }
    Cache &llc() { return _llc; }
    DramCache &dramCache() { return _dramCache; }
    MemCtrl &dramCtrl() { return _dramCtrl; }
    MemCtrl &nvmCtrl() { return _nvmCtrl; }
    UndoLogArea &undoLog() { return _undoLog; }
    RedoLogArea &redoLog() { return _redoLog; }
    Tss &tss() { return _tss; }
    HtmStats &stats() { return _stats; }
    const HtmStats &stats() const { return _stats; }

    /**
     * Attach (or with nullptr detach) a lifecycle-event tracer. Pure
     * observation: simulated timing and results are identical with and
     * without one (CI enforces this byte-for-byte on the bench JSON).
     */
    void setTracer(obs::Tracer *t) { _obs = t; }

    obs::Tracer *tracer() const { return _obs; }

    /** Abort-attribution/stage-accounting profile (always collected). */
    const obs::AbortProfiler &abortProfiler() const
    {
        return _abortProfiler;
    }

    /**
     * Attach (or with nullptr/empty detach) a commit observer, invoked
     * synchronously at the functional-publication point of every
     * commit, in commit order. Pure observation (no timing effect);
     * the serializability oracle uses it to record histories.
     */
    void setCommitHook(std::function<void(const TxDesc &)> hook)
    {
        _commitHook = std::move(hook);
    }

    /**
     * Test hook: request an abort of @p victim as conflict resolution
     * would. @retval false the victim is immune (committing or
     * serialized).
     */
    bool
    requestAbortForTest(TxDesc *victim)
    {
        return requestAbort(victim, AbortCause::Explicit, kNoTx);
    }

    /**
     * Functionally fill the LLC with lines from [base, base + lines*64)
     * so experiments start at steady-state cache pressure instead of a
     * cold, empty LLC (the paper measures steady state).
     */
    void prewarmLlc(Addr base, std::uint64_t lines);

    /** Host memory held by the machine's largest owners, read once at
     *  the end of a job for the TIMING sidecar's ledger. */
    struct MemoryLedger
    {
        std::uint64_t storeBytes = 0;      ///< store pages x 4 KiB
        std::uint64_t durableLagBytes = 0; ///< lag lines x 64 B
        RedoLogArea::Footprint redo;
    };

    MemoryLedger memoryLedger() const;

    /** @} */

  private:
    /** Outcome of conflict resolution for the requester. */
    struct Resolution
    {
        bool requesterAborts = false;
    };

    TxDesc *makeTx(CoreId core, DomainId domain, int attempt,
                   bool serialized);
    void finishTx(TxDesc *tx);
    void releaseDomainLock(TxDesc *tx, Tick at);

    /**
     * Set the abortion flag of @p victim (TSS) with @p cause. @p line
     * is the conflicting line base address (0 when the abort has no
     * single line, e.g. lock preemption); it feeds the causal trace
     * events only, never the timed or functional behaviour.
     * @retval true the victim is (now) doomed.
     * @retval false the victim is immune (committing or serialized).
     */
    bool requestAbort(TxDesc *victim, AbortCause cause, TxId by,
                      Addr line = 0);

    /** Announce persist point @p p to the fault injector, if any (see
     *  FaultInjector::notifyPersist); the one place points come from. */
    void
    notifyPersist(PersistPoint p, Addr line, Tick complete_at,
                  const std::uint8_t *bytes)
    {
        if (_faultInjector)
            _faultInjector->notifyPersist(p, line, complete_at, bytes);
    }

    /**
     * Insert @p line into the DRAM cache for @p tx (kNoTx: committed or
     * clean data), first writing back or dropping the entry it
     * displaces — as handleChipEviction does for an LLC victim.
     */
    DramCacheEntry &dramCacheInsert(Addr line, TxId tx);

    /** Write committed dirty DRAM-cache entry @p e to in-place NVM:
     *  charge the NVM channel, the bytes are durable when it is done. */
    void writeBackDramCacheLine(const DramCacheEntry &e);

    /**
     * Memoized signature probe for @p line under the run's (fixed)
     * filter geometry. The conflict walk, the summary filters and every
     * signature insert share one probe per line; a small direct-mapped
     * cache keyed on the line number skips the splitmix64 hash chain
     * for repeated touches of hot lines, and a miss rebuilds the slot's
     * probe in place. Pure memoization: the returned probe is
     * bit-identical to a freshly built one. Only valid when a
     * signature mode is active (_sigBits != 0).
     */
    const SigProbe &
    probeFor(Addr line)
    {
        ProbeCacheEntry &e =
            _probeCache[lineNumber(line) & (kProbeCacheSize - 1)];
        if (e.line != line) {
            e.line = line;
            e.probe.reset(line, _sigBits, _sigHashes);
        }
        return e.probe;
    }

    /** Directory-based on-chip conflict check for @p line_meta. */
    Resolution onChipConflictCheck(CacheLine &line_meta, TxDesc *req,
                                   bool is_write);

    /** Off-chip conflict check (signatures / precise / none). */
    Resolution offChipConflictCheck(Addr line, TxDesc *req,
                                    DomainId req_domain, bool is_write);

    /** Handle a line leaving the chip (LLC eviction incl. recall). */
    void handleChipEviction(const CacheLine &evicted, Tick t);

    /** Handle an L1 victim (writeback to LLC, overflow list). */
    void handleL1Eviction(CoreId core, const CacheLine &evicted, Tick t);

    /** Time + durable-image effects of writing @p line back to memory. */
    void writebackToMemory(Addr line, Tick t);

    /** Register tx read/write metadata at the directory (LLC). */
    void registerTxAtDirectory(Addr line, TxDesc *tx, bool is_write);

    /** Charge a slot-pipelined overflow-list walk; returns end tick. */
    Tick chargeOverflowListWalk(const TxDesc *tx, Tick t);

    /** Functional bytes of @p line as seen by @p tx (buffer or mem). */
    void lineImage(const TxDesc *tx, Addr line,
                   std::array<std::uint8_t, kLineBytes> &out) const;

    /**
     * Queue a durable in-place NVM image update of @p bytes at tick
     * @p due (MemoryImage::queue): the only way the durable image
     * changes after setup. An attached fault injector is notified of
     * the InPlaceNvmWrite point first, at issue, completing at @p due.
     */
    void enqueueDurableWrite(Addr line, Tick due,
                             const MemoryImage::Line &bytes);

    /**
     * Tick up to which queued durable writes are considered applied
     * when the image is observed: everything once the event queue has
     * drained normally (the writes would all have completed), only
     * writes due by now while events are pending or a stop (crash) was
     * requested — a power failure freezes in-flight NVM writes.
     */
    Tick
    durableHorizon() const
    {
        return (!_eq.empty() || _eq.stopRequested()) ? _eq.now()
                                                     : ~Tick(0);
    }

    /** Prune stale (finished) transaction ids from line metadata. */
    void pruneLineMeta(CacheLine &line);

    /** Mark @p tx overflowed (TSS overflow bit), counting it once;
     *  @p line is the evicted line recorded in the TxOverflow event. */
    void markOverflowed(TxDesc *tx, Addr line);

    EventQueue &_eq;
    MachineConfig _mcfg;
    HtmPolicy _policy;
    ConflictRules _conflict;

    /** Architectural store and durable in-place NVM image. */
    MemoryImage _memory;

    std::vector<std::unique_ptr<Cache>> _l1s;
    Cache _llc;
    MemCtrl _dramCtrl;
    MemCtrl _nvmCtrl;
    DramCache _dramCache;
    UndoLogArea _undoLog;
    RedoLogArea _redoLog;

    Tss _tss; ///< owns the live transactions' descriptors
    std::vector<TxDesc *> _coreTx; ///< running tx per core

    TxId _nextTxId = 1;
    HtmStats _stats;

    obs::Tracer *_obs = nullptr;
    obs::AbortProfiler _abortProfiler;
    std::function<void(const TxDesc &)> _commitHook;

    /** One slot of the direct-mapped SigProbe memo (see probeFor). */
    struct ProbeCacheEntry
    {
        Addr line = ~Addr(0); ///< never a line-aligned address
        SigProbe probe;
    };

    static constexpr unsigned kProbeCacheSize = 256; // power of two
    std::vector<ProbeCacheEntry> _probeCache;
    /** Effective signature geometry (0 bits = signatures off). */
    unsigned _sigBits = 0;
    unsigned _sigHashes = 0;

    FaultInjector *_faultInjector = nullptr;
    bool _breakCommitMarkOrdering = false;
    /** Extra log-record durability lag under the broken-fence model
     *  (see setBreakCommitMarkOrdering). Generously larger than any
     *  commit-protocol prefix so the torn window is always open. */
    static constexpr Tick kBrokenLogFlushLag = ticksFromNs(5000);

    /** Overflow-list entries fetched per DRAM access during walks. */
    static constexpr unsigned kListEntriesPerAccess = 8;
};

} // namespace uhtm

#endif // UHTM_HTM_HTM_SYSTEM_HH
