/**
 * @file
 * TxContext — the public, workload-facing transactional memory API.
 *
 * One TxContext per simulated hardware thread. Workloads are C++20
 * coroutines: every memory operation is co_awaited, which suspends the
 * workload until the simulated access completes. Transactional aborts
 * surface as TxAborted exceptions thrown from the awaiters and are
 * handled by run(), which implements the paper's Algorithm 1: retry
 * with randomized exponential backoff, go straight to the serialized
 * slow path on capacity overflow, and fall back to it after the
 * maximum number of retries.
 *
 * Usage sketch:
 * @code
 *   CoTask<void> worker(TxContext &ctx) {
 *       co_await ctx.run([&](TxContext &c) -> CoTask<void> {
 *           std::uint64_t v = co_await c.read64(a);
 *           co_await c.write64(b, v + 1);
 *       });
 *   }
 * @endcode
 */

#ifndef UHTM_HTM_TX_CONTEXT_HH
#define UHTM_HTM_TX_CONTEXT_HH

#include <coroutine>
#include <cstdint>

#include "htm/htm_system.hh"
#include "sim/random.hh"
#include "sim/task.hh"
#include "sim/types.hh"

namespace uhtm
{

/**
 * Exception signalling that the current transaction has been aborted
 * (conflict, capacity overflow, or lock preemption). Thrown from memory
 * operation awaiters; caught by the transaction retry loop.
 */
struct TxAborted
{
};

/** Awaitable single memory operation (load or store, word or line). */
class MemOp
{
  public:
    MemOp(HtmSystem &sys, CoreId core, DomainId domain, Addr addr,
          bool is_write, bool whole_line, std::uint64_t wdata)
        : _sys(sys), _core(core), _domain(domain), _addr(addr),
          _isWrite(is_write), _wholeLine(whole_line), _wdata(wdata)
    {
    }

    bool await_ready() const noexcept { return false; }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        const AccessResult r = _sys.issueAccess(_core, _domain, _addr,
                                                _isWrite, _wholeLine,
                                                _wdata);
        _data = r.data;
        _sys.eventQueue().scheduleAt(r.completeAt, [h] { h.resume(); });
    }

    /** @throws TxAborted if this core's transaction is doomed. */
    std::uint64_t
    await_resume() const
    {
        if (_sys.abortPending(_core))
            throw TxAborted{};
        return _data;
    }

  private:
    HtmSystem &_sys;
    CoreId _core;
    DomainId _domain;
    Addr _addr;
    bool _isWrite;
    bool _wholeLine;
    std::uint64_t _wdata;
    std::uint64_t _data = 0;
};

/**
 * Awaitable burst of line accesses issued back to back (memory-level
 * parallelism). Used by the memory-intensive background applications
 * whose LLC pressure the paper's consolidation experiments rely on.
 *
 * Nearly every burst access misses the L1 and the LLC, evicts an LLC
 * line and evicts an L1 line, so before access i the burst prefetches
 * the host memory that access i + kPrefetchAhead will read: the LLC tag
 * set and its LRU line (Cache::prefetchVictim), and the directory line
 * of the L1 set's LRU line, at the LLC slot that line remembers
 * (Cache::lruLineFor, Cache::prefetchSlot). That changes no simulated
 * state.
 */
class BurstOp
{
  public:
    /** How many accesses ahead of the issuing one to prefetch. */
    static constexpr unsigned kPrefetchAhead = 2;

    BurstOp(HtmSystem &sys, CoreId core, DomainId domain, Addr base_line,
            unsigned lines, bool is_write)
        : _sys(sys), _core(core), _domain(domain), _base(base_line),
          _lines(lines), _isWrite(is_write)
    {
    }

    bool await_ready() const noexcept { return false; }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        Tick done = _sys.eventQueue().now();
        const Cache &llc = _sys.llc();
        const Cache &l1 = _sys.l1(_core);
        for (unsigned i = 0; i < _lines; ++i) {
            if (i + kPrefetchAhead < _lines) {
                const Addr ahead = _base + (i + kPrefetchAhead) * kLineBytes;
                llc.prefetchVictim(ahead);
                if (const CacheLine *v = l1.lruLineFor(ahead))
                    llc.prefetchSlot(v->sharers);
            }
            const AccessResult r =
                _sys.issueAccess(_core, _domain, _base + i * kLineBytes,
                                 _isWrite, true, 0);
            if (r.completeAt > done)
                done = r.completeAt;
        }
        _sys.eventQueue().scheduleAt(done, [h] { h.resume(); });
    }

    void
    await_resume() const
    {
        if (_sys.abortPending(_core))
            throw TxAborted{};
    }

  private:
    HtmSystem &_sys;
    CoreId _core;
    DomainId _domain;
    Addr _base;
    unsigned _lines;
    bool _isWrite;
};

/** Awaitable wait for the domain's slow-path lock to be released. */
class LockWait
{
  public:
    LockWait(HtmSystem &sys, DomainId domain) : _sys(sys), _domain(domain)
    {
    }

    bool await_ready() const { return !_sys.domainLocked(_domain); }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        _sys.waitForDomainLock(_domain, h);
    }

    void await_resume() const noexcept {}

  private:
    HtmSystem &_sys;
    DomainId _domain;
};

/** Per-thread execution statistics. */
struct TxContextStats
{
    std::uint64_t commits = 0;
    std::uint64_t serializedCommits = 0;
    std::uint64_t aborts = 0;
    /** Most attempts (aborts + the commit) any one run() needed —
     *  the per-transaction starvation measure. */
    std::uint64_t maxAttempts = 0;
};

/**
 * Per-hardware-thread handle to the transactional memory system.
 * See the file comment for usage.
 */
class TxContext
{
  public:
    /**
     * @param sys the machine.
     * @param core hardware thread this context runs on.
     * @param domain conflict domain (simulated process) of the thread.
     * @param seed backoff-jitter RNG seed.
     */
    TxContext(HtmSystem &sys, CoreId core, DomainId domain,
              std::uint64_t seed = 1)
        : _sys(sys), _core(core), _domain(domain), _rng(seed ^ core)
    {
    }

    /** @name Memory operations (transactional inside run(), plain
     *        timed accesses outside)
     *  @{ */

    /** Load a 64-bit word. */
    MemOp
    read64(Addr a)
    {
        return MemOp(_sys, _core, _domain, a, false, false, 0);
    }

    /** Store a 64-bit word. */
    MemOp
    write64(Addr a, std::uint64_t v)
    {
        return MemOp(_sys, _core, _domain, a, true, false, v);
    }

    /** Touch a whole 64B line with a load. */
    MemOp
    readLine(Addr line_base)
    {
        return MemOp(_sys, _core, _domain, line_base, false, true, 0);
    }

    /** Store a whole 64B line (pattern replicated). */
    MemOp
    writeLine(Addr line_base, std::uint64_t pattern)
    {
        return MemOp(_sys, _core, _domain, line_base, true, true, pattern);
    }

    /** Streaming burst of line reads/writes (background apps). */
    BurstOp
    burst(Addr base_line, unsigned lines, bool is_write = false)
    {
        return BurstOp(_sys, _core, _domain, base_line, lines, is_write);
    }

    /** Spend @p d ticks of compute time. */
    auto
    compute(Tick d)
    {
        EventQueue &eq = _sys.eventQueue();
        return ResumeAfter{eq, [&eq, d] { return eq.now() + d; }};
    }

    /** @} */

    /**
     * Execute @p body as one transaction with Algorithm-1 retry
     * semantics. @p body is invoked once per attempt and must be a
     * callable (TxContext&) -> CoTask<void> whose side effects live
     * entirely in simulated memory.
     */
    template <typename Body>
    CoTask<void>
    run(Body body)
    {
        const ConflictRules &rules = _sys.conflictRules();
        int attempt = 0;
        bool serialize = false;
        for (;;) {
            bool waited = false;
            while (_sys.domainLocked(_domain)) {
                waited = true;
                co_await LockWait(_sys, _domain);
            }
            if (waited && serialize &&
                _lastAbortCause != AbortCause::Capacity &&
                rules.retryFastAfterDrain) {
                // Lemming avoidance: another thread's drain just
                // resolved the contention we were fleeing — re-try the
                // fast path with a fresh budget instead of convoying
                // on the lock. Capacity victims still serialize (the
                // overflow repeats regardless of contention).
                serialize = false;
                attempt = 0;
            }
            if (serialize) {
                _sys.beginSerializedTx(_core, _domain, attempt);
                co_await body(*this);
                co_await ResumeAfter{
                    _sys.eventQueue(),
                    [this] { return _sys.issueCommit(_core); }};
                ++_stats.commits;
                ++_stats.serializedCommits;
                noteAttempts(attempt + 1);
                co_return;
            }
            _sys.beginTx(_core, _domain, attempt);
            bool aborted = false;
            try {
                // co_await is not permitted inside a handler, so the
                // abort path only records the outcome here.
                co_await body(*this);
                if (_sys.abortPending(_core))
                    throw TxAborted{};
            } catch (const TxAborted &) {
                aborted = true;
            }
            if (!aborted) {
                co_await ResumeAfter{
                    _sys.eventQueue(),
                    [this] { return _sys.issueCommit(_core); }};
                ++_stats.commits;
                noteAttempts(attempt + 1);
                co_return;
            }
            _lastAbortCause = _sys.currentTx(_core)->abortCause;
            ++_stats.aborts;
            const Tick backoff = rules.backoffDelay(attempt, _rng);
            co_await ResumeAfter{_sys.eventQueue(), [this, backoff] {
                return _sys.issueAbort(_core) + backoff;
            }};
            ++attempt;
            if (rules.shouldSerialize(attempt, _lastAbortCause))
                serialize = true;
        }
    }

    /** Cause of the most recent abort on this context. */
    AbortCause lastAbortCause() const { return _lastAbortCause; }

    const TxContextStats &stats() const { return _stats; }

    HtmSystem &system() { return _sys; }
    CoreId core() const { return _core; }
    DomainId domain() const { return _domain; }
    Rng &rng() { return _rng; }

  private:
    void
    noteAttempts(int attempts)
    {
        const auto a = static_cast<std::uint64_t>(attempts);
        if (a > _stats.maxAttempts)
            _stats.maxAttempts = a;
    }

    HtmSystem &_sys;
    CoreId _core;
    DomainId _domain;
    Rng _rng;
    TxContextStats _stats;
    AbortCause _lastAbortCause = AbortCause::None;
};

} // namespace uhtm

#endif // UHTM_HTM_TX_CONTEXT_HH
