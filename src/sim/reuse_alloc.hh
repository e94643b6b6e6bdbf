/**
 * @file
 * Per-thread recycled storage for a job's large machine arrays.
 *
 * Every simulation job builds a fresh machine: the default geometry's
 * LLC line and DRAM-cache entry arrays plus their tag arrays are
 * ~122 MiB (16 MiB of 64-byte CacheLines, 96 MiB of 96-byte entries,
 * 10 MiB of tags). glibc serves blocks that large with mmap and returns
 * them with munmap, so each job used to fault in and zero ~27 K fresh
 * pages before it simulated anything. reuseDeallocate parks a freed
 * block of at least kReuseMinBytes on a thread-local list instead,
 * keyed by exact byte size, and the next reuseAllocate of that size on
 * the same thread takes it back with its pages already mapped.
 *
 * ReuseArray<T> is the one owner of such blocks: a fixed-size array of
 * raw, uninitialized T. It never constructs or destroys an element on
 * its own; its one owner, the caches' slot store SetArray
 * (mem/set_array.hh), constructs a slot when a line is installed and
 * destroys it when the line leaves, and keeps its own record of which
 * slots are alive (its tag array). So building a machine writes only
 * its tag arrays, not the 112 MiB of line and entry storage behind
 * them.
 *
 * Every block is kReuseAlign (64-byte) aligned, one host cache line,
 * so a CacheLine fills exactly one host line and a 16-way set of tags
 * exactly two. glibc's own alignment for large blocks (16 bytes past a
 * page boundary) would split every line over two host lines and every
 * tag set over three.
 *
 * Rules:
 *  - A thread parks at most one block per size and at most kReuseSlots
 *    blocks in all: the four arrays of one default machine. A second
 *    block of a parked size, every block under kReuseMinBytes, and a
 *    block freed while every slot is taken go straight to
 *    ::operator delete.
 *  - The list is released when its thread exits.
 *  - Parking is keyed by the freeing thread, so a block freed on another
 *    thread than the one that allocated it is still correct; it just
 *    parks on the freeing thread. Jobs run wholly on one worker thread
 *    (the rule `sim/arena.hh` relies on), so in practice it never is.
 *
 * Under ASan a parked block is poisoned and unpoisoned when it is
 * taken back, so a use-after-free of a previous job's machine traps.
 * The slots of a ReuseArray built without a fill value stay poisoned
 * until construct() and are poisoned again by destroy(), so reading a
 * slot its owner's record says is free traps too. (Recycled slots hold
 * the previous job's bytes; pages stay mapped, unlike a demand-zero
 * mapping, see DESIGN.md §11.)
 */

#ifndef UHTM_SIM_REUSE_ALLOC_HH
#define UHTM_SIM_REUSE_ALLOC_HH

#include <atomic>
#include <cstddef>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>

#include "sim/arena.hh"

namespace uhtm
{

/** Alignment of every reuseAllocate block: one host cache line. */
inline constexpr std::size_t kReuseAlign = 64;

/** Smallest block that is parked for reuse instead of freed. */
inline constexpr std::size_t kReuseMinBytes = std::size_t{1} << 20;

/**
 * Blocks a thread parks: the slots and tags of the LLC's and the DRAM
 * cache's SetArray, the only arrays of a default machine that reach
 * kReuseMinBytes.
 */
inline constexpr std::size_t kReuseSlots = 4;

namespace detail
{

/** Bytes parked across all threads (diagnostics and tests). */
inline std::atomic<std::size_t> g_reuseParkedBytes{0};

/** One thread's parked blocks, at most one per exact byte size. */
class ReuseList
{
  public:
    ReuseList() = default;
    ReuseList(const ReuseList &) = delete;
    ReuseList &operator=(const ReuseList &) = delete;

    ~ReuseList()
    {
        for (Slot &s : _slots) {
            if (s.p)
                release(s);
        }
    }

    /** Take back the parked block of exactly @p bytes, or null. */
    void *
    take(std::size_t bytes)
    {
        for (Slot &s : _slots) {
            if (s.p && s.bytes == bytes) {
                void *p = s.p;
                UHTM_ASAN_UNPOISON(p, bytes);
                g_reuseParkedBytes -= bytes;
                s = Slot{};
                return p;
            }
        }
        return nullptr;
    }

    /** Park @p p; false if its size is already parked or no slot is free. */
    bool
    park(void *p, std::size_t bytes)
    {
        Slot *free = nullptr;
        for (Slot &s : _slots) {
            if (s.p && s.bytes == bytes)
                return false;
            if (!s.p && !free)
                free = &s;
        }
        if (!free)
            return false;
        *free = Slot{p, bytes};
        UHTM_ASAN_POISON(p, bytes);
        g_reuseParkedBytes += bytes;
        return true;
    }

  private:
    struct Slot
    {
        void *p = nullptr;
        std::size_t bytes = 0;
    };

    static void
    release(Slot &s)
    {
        UHTM_ASAN_UNPOISON(s.p, s.bytes);
        g_reuseParkedBytes -= s.bytes;
        ::operator delete(s.p, s.bytes, std::align_val_t{kReuseAlign});
        s = Slot{};
    }

    Slot _slots[kReuseSlots];
};

inline thread_local ReuseList t_reuseList;

} // namespace detail

/**
 * Allocate @p bytes aligned to kReuseAlign, taking a parked block of
 * that size if any.
 */
inline void *
reuseAllocate(std::size_t bytes)
{
    if (bytes >= kReuseMinBytes) {
        if (void *p = detail::t_reuseList.take(bytes))
            return p;
    }
    return ::operator new(bytes, std::align_val_t{kReuseAlign});
}

/**
 * Free @p p (@p bytes long, from reuseAllocate), parking it for reuse
 * when it qualifies.
 */
inline void
reuseDeallocate(void *p, std::size_t bytes) noexcept
{
    if (bytes >= kReuseMinBytes && detail::t_reuseList.park(p, bytes))
        return;
    ::operator delete(p, bytes, std::align_val_t{kReuseAlign});
}

/** Bytes currently parked for reuse, summed over all threads. */
inline std::size_t
reuseParkedBytes()
{
    return detail::g_reuseParkedBytes;
}

/**
 * Fixed-size array of @p n raw T slots in recycled storage.
 *
 * Built without a fill value, no slot holds a live T: the owner calls
 * construct() and destroy() and must destroy every live slot before
 * the array goes away. Built with a fill value, every slot is a copy of
 * it; that form is for trivially destructible T only.
 */
template <typename T>
class ReuseArray
{
    static_assert(alignof(T) <= kReuseAlign);

  public:
    /** @p n unconstructed slots (poisoned under ASan). */
    explicit ReuseArray(std::size_t n) : _data(allocate(n)), _size(n)
    {
        UHTM_ASAN_POISON(_data, bytes());
    }

    /** @p n copies of @p fill. */
    ReuseArray(std::size_t n, const T &fill) : _data(allocate(n)), _size(n)
    {
        static_assert(std::is_trivially_destructible_v<T>);
        std::uninitialized_fill_n(_data, n, fill);
    }

    ReuseArray(const ReuseArray &) = delete;
    ReuseArray &operator=(const ReuseArray &) = delete;

    ~ReuseArray()
    {
        UHTM_ASAN_UNPOISON(_data, bytes());
        reuseDeallocate(_data, bytes());
    }

    /** Value-initialize slot @p i; it must not hold a live T. */
    T &
    construct(std::size_t i)
    {
        UHTM_ASAN_UNPOISON(_data + i, sizeof(T));
        return *::new (static_cast<void *>(_data + i)) T();
    }

    /** Destroy the live T in slot @p i. */
    void
    destroy(std::size_t i)
    {
        std::destroy_at(_data + i);
        UHTM_ASAN_POISON(_data + i, sizeof(T));
    }

    /** Slot access; like std::span, constness is not deep. */
    T &operator[](std::size_t i) const { return _data[i]; }
    T *data() const { return _data; }
    std::size_t size() const { return _size; }

  private:
    static T *
    allocate(std::size_t n)
    {
        if (n > std::numeric_limits<std::size_t>::max() / sizeof(T))
            throw std::bad_array_new_length();
        return static_cast<T *>(reuseAllocate(n * sizeof(T)));
    }

    std::size_t bytes() const { return _size * sizeof(T); }

    T *_data;
    std::size_t _size;
};

} // namespace uhtm

#endif // UHTM_SIM_REUSE_ALLOC_HH
