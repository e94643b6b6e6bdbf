/**
 * @file
 * Discrete-event queue driving the whole simulation.
 *
 * Events are arbitrary callables scheduled at an absolute tick. Events
 * scheduled for the same tick execute in scheduling order (a per-queue
 * sequence number breaks ties), which keeps the simulation deterministic.
 *
 * Internally the queue is a calendar scheduler: events within the next
 * kRingTicks of simulated time live in a ring of per-tick FIFO buckets
 * (append at the tail preserves scheduling order), and a two-level
 * occupancy bitmap finds the next non-empty bucket in a handful of word
 * scans. Events beyond the ring's horizon go to a small binary min-heap
 * ordered by (tick, seq); because time only moves forward, every
 * far-heap event at a given tick was scheduled before every ring event
 * at that tick, so draining the heap first on tick ties reproduces the
 * exact global (tick, seq) order of a single priority queue.
 */

#ifndef UHTM_SIM_EVENT_QUEUE_HH
#define UHTM_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/inline_callback.hh"
#include "sim/types.hh"

namespace uhtm
{

/**
 * A deterministic discrete-event queue.
 *
 * The queue owns simulated time: time only advances when events are
 * popped. Callbacks may schedule further events (including at the
 * current tick, which run later in the same tick).
 */
class EventQueue
{
  public:
    using Callback = InlineCallback;

    /**
     * Width of the near-future window, in ticks. One tick is 1 ps, so
     * 2^18 ticks = 262 ns covers every memory latency in the machine
     * model (NVM reads are 175 ns); only long backoffs and watchdog
     * events overflow to the far-future heap.
     */
    static constexpr Tick kRingTicks = Tick(1) << 18;

    EventQueue()
        : _buckets(kRingTicks),
          _occ(kWords, 0),
          _occSum(kSumWords, 0)
    {
    }

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Schedule a callback @p delay ticks in the future.
     * @return the absolute tick at which the event will fire.
     */
    Tick
    schedule(Tick delay, Callback cb)
    {
        return scheduleAt(_now + delay, std::move(cb));
    }

    /**
     * Schedule a callback at absolute tick @p when.
     * Scheduling in the past is a programming error and fires the
     * event at the current tick instead.
     */
    Tick
    scheduleAt(Tick when, Callback cb)
    {
        if (when < _now)
            when = _now;
        if (when - _now < kRingTicks) {
            const std::uint32_t idx =
                static_cast<std::uint32_t>(when & kRingMask);
            const std::uint32_t n = acquireNode(std::move(cb));
            Bucket &b = _buckets[idx];
            if (b.tail) {
                _nodes[b.tail - 1].next = n;
                b.tail = n;
            } else {
                b.head = b.tail = n;
                setOcc(idx);
            }
            ++_ringCount;
        } else {
            _far.push_back(FarEntry{when, _nextSeq, std::move(cb)});
            std::push_heap(_far.begin(), _far.end(), FarAfter{});
        }
        ++_nextSeq;
        return when;
    }

    /**
     * Request that the driving loop stop before executing the next
     * event (the crash "event": a simulated power failure freezes the
     * machine at the current tick). Pending events stay queued so state
     * can be inspected; clearStop() re-arms the loops.
     */
    void requestStop() { _stopRequested = true; }

    /** True if a stop has been requested and not yet cleared. */
    bool stopRequested() const { return _stopRequested; }

    /** Re-arm the run loops after a requested stop. */
    void clearStop() { _stopRequested = false; }

    /** True if no events remain. */
    bool empty() const { return _ringCount == 0 && _far.empty(); }

    /** Number of pending events. */
    std::size_t pending() const { return _ringCount + _far.size(); }

    /** Total number of events executed so far. */
    std::uint64_t executed() const { return _executed; }

    /**
     * Execute a single event, advancing time to its tick.
     * @retval true an event was executed.
     * @retval false the queue was empty.
     */
    bool
    step()
    {
        Next n;
        if (!peekNext(n))
            return false;
        execute(n);
        return true;
    }

    /** Run until the queue drains (or a stop is requested). */
    void
    run()
    {
        while (!_stopRequested && step()) {
        }
    }

    /**
     * Run until the queue drains, simulated time would exceed
     * @p limit, or a stop is requested. Events at exactly @p limit
     * still execute.
     */
    void
    runUntil(Tick limit)
    {
        Next n;
        while (!_stopRequested && peekNext(n) && n.when <= limit)
            execute(n);
        if (_now < limit && empty())
            _now = limit;
    }

    /**
     * Run until @p done returns true, the queue drains, or a stop is
     * requested. The predicate is checked after every event. Templated
     * on the predicate so the per-event check is a direct (inlinable)
     * call instead of a std::function dispatch.
     */
    template <typename KeepGoing>
    void
    runWhile(const KeepGoing &keep_going)
    {
        while (!_stopRequested && keep_going() && step()) {
        }
    }

  private:
    static constexpr Tick kRingMask = kRingTicks - 1;
    static constexpr std::uint32_t kWords =
        static_cast<std::uint32_t>(kRingTicks / 64);
    static constexpr std::uint32_t kSumWords = kWords / 64;

    /** Intrusive FIFO node; indices into _nodes are stored +1, 0=nil. */
    struct Node
    {
        Callback cb;
        std::uint32_t next = 0;
    };

    struct Bucket
    {
        std::uint32_t head = 0;
        std::uint32_t tail = 0;
    };

    struct FarEntry
    {
        Tick when;
        std::uint64_t seq;
        Callback cb;
    };

    /** Heap comparator: "fires after" — makes push/pop_heap a min-heap. */
    struct FarAfter
    {
        bool
        operator()(const FarEntry &a, const FarEntry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /** The next event to execute: either a ring bucket or the far heap. */
    struct Next
    {
        Tick when;
        std::uint32_t idx;
        bool fromFar;
    };

    std::uint32_t
    acquireNode(Callback &&cb)
    {
        std::uint32_t n;
        if (_freeHead) {
            n = _freeHead;
            _freeHead = _nodes[n - 1].next;
        } else {
            _nodes.emplace_back();
            n = static_cast<std::uint32_t>(_nodes.size());
        }
        Node &node = _nodes[n - 1];
        node.cb = std::move(cb);
        node.next = 0;
        return n;
    }

    void
    releaseNode(std::uint32_t n)
    {
        _nodes[n - 1].next = _freeHead;
        _freeHead = n;
    }

    void
    setOcc(std::uint32_t idx)
    {
        const std::uint32_t w = idx >> 6;
        _occ[w] |= std::uint64_t(1) << (idx & 63);
        _occSum[w >> 6] |= std::uint64_t(1) << (w & 63);
    }

    void
    clearOcc(std::uint32_t idx)
    {
        const std::uint32_t w = idx >> 6;
        if ((_occ[w] &= ~(std::uint64_t(1) << (idx & 63))) == 0)
            _occSum[w >> 6] &= ~(std::uint64_t(1) << (w & 63));
    }

    /**
     * Index of the first occupied bucket at or after _now, scanning the
     * window circularly. Every ring event's tick is in
     * [_now, _now + kRingTicks), so circular distance from the start
     * slot equals tick order. Precondition: _ringCount > 0.
     */
    std::uint32_t
    findNextIdx() const
    {
        const std::uint32_t start =
            static_cast<std::uint32_t>(_now & kRingMask);
        const std::uint32_t w0 = start >> 6;
        const std::uint32_t b0 = start & 63;
        if (const std::uint64_t m = _occ[w0] & (~std::uint64_t(0) << b0))
            return (w0 << 6) |
                   static_cast<std::uint32_t>(std::countr_zero(m));
        // Word w0's high bits were empty; walk the summary bitmap over
        // the remaining words in circular order. Iteration 0 covers
        // words strictly after w0 within its summary word, iterations
        // 1..kSumWords-1 whole summary words, and iteration kSumWords
        // wraps back to words up to and including w0 (whose low bits
        // are the far end of the window).
        const std::uint32_t sw0 = w0 >> 6;
        const std::uint32_t sb0 = w0 & 63;
        for (std::uint32_t i = 0; i <= kSumWords; ++i) {
            const std::uint32_t sw = (sw0 + i) & (kSumWords - 1);
            std::uint64_t sm = _occSum[sw];
            if (i == 0)
                sm &= sb0 == 63 ? 0 : ~std::uint64_t(0) << (sb0 + 1);
            else if (i == kSumWords)
                sm &= sb0 == 63 ? ~std::uint64_t(0)
                                : ~(~std::uint64_t(0) << (sb0 + 1));
            if (!sm)
                continue;
            const std::uint32_t w =
                (sw << 6) |
                static_cast<std::uint32_t>(std::countr_zero(sm));
            std::uint64_t m = _occ[w];
            if (w == w0)
                m &= ~(~std::uint64_t(0) << b0);
            return (w << 6) |
                   static_cast<std::uint32_t>(std::countr_zero(m));
        }
        __builtin_unreachable();
    }

    /** Locate the next event without popping it. */
    bool
    peekNext(Next &n) const
    {
        if (_ringCount) {
            const std::uint32_t idx = findNextIdx();
            const std::uint32_t start =
                static_cast<std::uint32_t>(_now & kRingMask);
            const Tick when = _now + ((idx - start) & kRingMask);
            // On a tick tie the far heap goes first: its entries were
            // scheduled while the tick was still beyond the window,
            // i.e. before every ring entry at the same tick.
            if (!_far.empty() && _far.front().when <= when) {
                n = Next{_far.front().when, 0, true};
            } else {
                n = Next{when, idx, false};
            }
            return true;
        }
        if (!_far.empty()) {
            n = Next{_far.front().when, 0, true};
            return true;
        }
        return false;
    }

    /** Pop and run the event located by peekNext(). */
    void
    execute(const Next &n)
    {
        Callback cb;
        if (n.fromFar) {
            std::pop_heap(_far.begin(), _far.end(), FarAfter{});
            cb = std::move(_far.back().cb);
            _far.pop_back();
        } else {
            Bucket &b = _buckets[n.idx];
            const std::uint32_t node = b.head;
            Node &nd = _nodes[node - 1];
            b.head = nd.next;
            if (!b.head) {
                b.tail = 0;
                clearOcc(n.idx);
            }
            cb = std::move(nd.cb);
            releaseNode(node);
            --_ringCount;
        }
        _now = n.when;
        ++_executed;
        cb();
    }

    std::vector<Bucket> _buckets;
    std::vector<Node> _nodes;
    std::vector<std::uint64_t> _occ;
    std::vector<std::uint64_t> _occSum;
    std::vector<FarEntry> _far;
    std::uint32_t _freeHead = 0;
    std::size_t _ringCount = 0;
    Tick _now = 0;
    std::uint64_t _nextSeq = 0;
    std::uint64_t _executed = 0;
    bool _stopRequested = false;
};

} // namespace uhtm

#endif // UHTM_SIM_EVENT_QUEUE_HH
