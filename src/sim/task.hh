/**
 * @file
 * Coroutine plumbing for execution-driven simulation.
 *
 * Each simulated core runs its workload as a C++20 coroutine. Memory
 * operations co_await the memory hierarchy: the coroutine suspends, the
 * hierarchy schedules timed events, and the completion event resumes the
 * coroutine. This yields cycle-interleaved multicore execution on a
 * single host thread with fully deterministic ordering.
 */

#ifndef UHTM_SIM_TASK_HH
#define UHTM_SIM_TASK_HH

#include <coroutine>
#include <cstddef>
#include <exception>
#include <optional>
#include <type_traits>
#include <utility>

#include "sim/arena.hh"
#include "sim/event_queue.hh"

namespace uhtm
{

namespace detail
{

/** Promise behaviour shared by every CoTask<T>. */
struct PromiseBase
{
    std::coroutine_handle<> continuation;
    std::exception_ptr exc;

    /** Frames come from the job arena while a scope is active. */
    static void *operator new(std::size_t n) { return arenaNew(n); }
    static void operator delete(void *p) noexcept { arenaDelete(p); }

    std::suspend_always initial_suspend() noexcept { return {}; }

    /** Resume the awaiting coroutine by symmetric transfer, or return
     *  to whoever resumed a root. Either way the frame stays alive
     *  until its CoTask is destroyed. */
    struct FinalAwaiter
    {
        bool await_ready() noexcept { return false; }

        template <typename P>
        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<P> h) noexcept
        {
            auto cont = h.promise().continuation;
            return cont ? cont : std::noop_coroutine();
        }

        void await_resume() noexcept {}
    };

    FinalAwaiter final_suspend() noexcept { return {}; }

    /**
     * An awaited task hands the exception to its awaiter. A started
     * root has nobody to hand it to: an exception escaping it is a
     * programming error and terminates the simulation (workloads catch
     * transactional aborts inside their retry loops).
     */
    void
    unhandled_exception()
    {
        if (!continuation)
            std::terminate();
        exc = std::current_exception();
    }
};

template <typename T>
struct Promise : PromiseBase
{
    std::optional<T> value;

    template <typename U>
    void
    return_value(U &&v)
    {
        value.emplace(std::forward<U>(v));
    }
};

template <>
struct Promise<void> : PromiseBase
{
    void return_void() {}
};

} // namespace detail

/**
 * Lazily started coroutine returning T, owned by its creator.
 *
 * Another coroutine co_awaits it: completion resumes the awaiter via
 * symmetric transfer, and the value or exception comes back through
 * await_resume. Transactional aborts unwind this way through
 * arbitrarily deep call chains back to the retry loop. A root is
 * driven with start() instead, and done() reports that its body ran
 * to completion.
 */
template <typename T>
class [[nodiscard]] CoTask
{
  public:
    struct promise_type : detail::Promise<T>
    {
        CoTask
        get_return_object()
        {
            return CoTask{
                std::coroutine_handle<promise_type>::from_promise(*this)};
        }
    };

    using Handle = std::coroutine_handle<promise_type>;

    CoTask() = default;
    explicit CoTask(Handle h) : _h(h) {}
    CoTask(CoTask &&o) noexcept : _h(std::exchange(o._h, {})) {}

    CoTask &
    operator=(CoTask &&o) noexcept
    {
        if (this != &o) {
            if (_h)
                _h.destroy();
            _h = std::exchange(o._h, {});
        }
        return *this;
    }

    CoTask(const CoTask &) = delete;
    CoTask &operator=(const CoTask &) = delete;

    ~CoTask()
    {
        if (_h)
            _h.destroy();
    }

    /** Begin (or resume) a root's body. */
    void
    start()
    {
        if (_h && !_h.done())
            _h.resume();
    }

    /** True once the coroutine body has run to completion. */
    bool done() const { return !_h || _h.done(); }

    bool await_ready() const noexcept { return false; }

    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<> cont) noexcept
    {
        _h.promise().continuation = cont;
        return _h;
    }

    T
    await_resume()
    {
        auto &p = _h.promise();
        if (p.exc)
            std::rethrow_exception(p.exc);
        if constexpr (!std::is_void_v<T>)
            return std::move(*p.value);
    }

  private:
    Handle _h;
};

/** A root coroutine: one per simulated thread, driven by start(). */
using Task = CoTask<void>;

/**
 * Awaitable that suspends the coroutine, calls @p issue (which starts
 * whatever the coroutine waits for and returns the tick it completes
 * at), and resumes the coroutine at that tick.
 */
template <typename F>
struct ResumeAfter
{
    EventQueue &eq;
    F issue;

    bool await_ready() const noexcept { return false; }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        eq.scheduleAt(issue(), [h] { h.resume(); });
    }

    void await_resume() const noexcept {}
};

template <typename F>
ResumeAfter(EventQueue &, F) -> ResumeAfter<F>;

} // namespace uhtm

#endif // UHTM_SIM_TASK_HH
