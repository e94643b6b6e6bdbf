/**
 * @file
 * Discrete-event queue driving the whole simulation.
 *
 * Events are callables scheduled at an absolute tick. Events scheduled
 * for the same tick execute in scheduling order (a per-queue sequence
 * number breaks ties), which keeps the simulation deterministic.
 *
 * The queue is one binary min-heap ordered by (tick, seq). It rarely
 * holds more than a couple of dozen events, so a heap over a flat
 * vector is both the simplest and a fast structure. Each event stores
 * its callable inline: a trampoline pointer plus a fixed-size capture
 * buffer, so scheduling never allocates once the vector has grown.
 */

#ifndef UHTM_SIM_EVENT_QUEUE_HH
#define UHTM_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <vector>

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
    /** Largest capture a scheduled callable may carry, in bytes. */
    static constexpr std::size_t kCaptureBytes = 32;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Schedule a callback @p delay ticks in the future.
     * @return the absolute tick at which the event will fire.
     */
    template <typename F>
    Tick
    schedule(Tick delay, const F &cb)
    {
        return scheduleAt(_now + delay, cb);
    }

    /**
     * Schedule a callback at absolute tick @p when.
     * Scheduling in the past is a programming error and fires the
     * event at the current tick instead.
     *
     * The callable is copied byte-wise into the event, so it must be
     * trivially copyable and fit in kCaptureBytes: capture pointers,
     * handles and small values, never an owning container.
     */
    template <typename F>
    Tick
    scheduleAt(Tick when, const F &cb)
    {
        static_assert(std::is_trivially_copyable_v<F>,
                      "event callbacks must be trivially copyable");
        static_assert(sizeof(F) <= kCaptureBytes,
                      "event callback capture exceeds kCaptureBytes");
        static_assert(alignof(F) <= alignof(std::uint64_t),
                      "event callback capture is over-aligned");
        if (when < _now)
            when = _now;
        Event &e = _heap.emplace_back();
        e.when = when;
        e.seq = _nextSeq++;
        e.fn = [](void *capture) {
            (*std::launder(static_cast<F *>(capture)))();
        };
        std::memcpy(e.capture, &cb, sizeof(F));
        std::push_heap(_heap.begin(), _heap.end(), FiresAfter{});
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
    bool empty() const { return _heap.empty(); }

    /** Number of pending events. */
    std::size_t pending() const { return _heap.size(); }

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
        if (_heap.empty())
            return false;
        std::pop_heap(_heap.begin(), _heap.end(), FiresAfter{});
        // Copy out before running: the callback may schedule, which can
        // reallocate the heap under a reference.
        Event e = _heap.back();
        _heap.pop_back();
        _now = e.when;
        ++_executed;
        e.fn(e.capture);
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
        while (!_stopRequested && !_heap.empty() &&
               _heap.front().when <= limit)
            step();
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
    struct Event
    {
        Tick when;
        std::uint64_t seq;
        void (*fn)(void *capture);
        alignas(std::uint64_t) unsigned char capture[kCaptureBytes];
    };

    /** Heap comparator: "fires after" makes push/pop_heap a min-heap. */
    struct FiresAfter
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    std::vector<Event> _heap;
    Tick _now = 0;
    std::uint64_t _nextSeq = 0;
    std::uint64_t _executed = 0;
    bool _stopRequested = false;
};

} // namespace uhtm

#endif // UHTM_SIM_EVENT_QUEUE_HH
