/**
 * @file
 * Per-job bump/pool allocator for simulator hot-path objects.
 *
 * Every simulated access allocates coroutine frames, and every
 * transaction allocates a TxDesc; routing those through the global
 * heap costs a lock-free-list walk per call and scatters frames across
 * the address space. An Arena instead carves chunks out of a few large
 * mapped blocks and recycles freed objects through power-of-two size
 * class free lists, so steady state allocation is "pop a node" — the
 * free lists are sized by the job's own high-water mark.
 *
 * Lifetime rules:
 *  - A job's Runner owns one Arena (declared as its first member, so
 *    it is destroyed after everything that allocated from it).
 *  - `ArenaScope` installs the arena as the thread's current arena for
 *    the duration of `Runner::run()`; anything allocated through
 *    `arenaNew` while a scope is active comes from that arena.
 *  - Each allocation carries a 16-byte header recording its owning
 *    arena (or null for a plain-heap allocation), so `arenaDelete` is
 *    correct even after the scope has exited — objects that outlive
 *    run() (frames destroyed in ~Runner, TxDescs in ~HtmSystem) free
 *    back into the still-alive arena.
 *  - Arenas are strictly single-threaded: each job runs wholly on one
 *    worker thread. No locks, no atomics; TSan stays quiet because
 *    each job's arena is created and destroyed on the thread that
 *    claimed the job.
 *  - Oversized requests (> kMaxClassBytes) bypass the arena and go to
 *    the global heap (still headered, so deletion is uniform).
 *
 * Under ASan, freed regions are poisoned while they sit on a free list
 * (the first 8 bytes stay addressable for the intrusive next pointer),
 * so use-after-free of recycled objects is still caught.
 */

#ifndef UHTM_SIM_ARENA_HH
#define UHTM_SIM_ARENA_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define UHTM_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define UHTM_ASAN 1
#endif
#endif

#ifdef UHTM_ASAN
#include <sanitizer/asan_interface.h>
#define UHTM_ASAN_POISON(p, n) __asan_poison_memory_region((p), (n))
#define UHTM_ASAN_UNPOISON(p, n) __asan_unpoison_memory_region((p), (n))
#else
#define UHTM_ASAN_POISON(p, n) ((void)(p), (void)(n))
#define UHTM_ASAN_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace uhtm
{

/** Single-threaded chunked pool allocator with size-class recycling. */
class Arena
{
  public:
    /** Smallest size class, bytes (one free-list pointer must fit). */
    static constexpr std::size_t kMinClassBytes = 16;
    /** Largest pooled size class; bigger requests hit the heap. */
    static constexpr std::size_t kMaxClassBytes = 16 * 1024;
    static constexpr std::size_t kNumClasses = 11; // 16 B .. 16 KiB
    /** Granularity of chunk requests from the heap. */
    static constexpr std::size_t kChunkBytes = 256 * 1024;

    Arena() = default;
    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    ~Arena()
    {
        for (void *c : _chunks) {
            UHTM_ASAN_UNPOISON(c, kChunkBytes);
            ::operator delete(c, std::align_val_t{alignof(std::max_align_t)});
        }
    }

    /** Class index for a payload of @p bytes; kNumClasses if oversize. */
    static std::size_t
    classFor(std::size_t bytes)
    {
        if (bytes <= kMinClassBytes)
            return 0;
        if (bytes > kMaxClassBytes)
            return kNumClasses;
        return static_cast<std::size_t>(
            std::bit_width(bytes - 1) - std::bit_width(kMinClassBytes - 1));
    }

    static std::size_t
    classBytes(std::size_t cls)
    {
        return kMinClassBytes << cls;
    }

    /** Allocate a block of at least @p cls's size. */
    void *
    allocate(std::size_t cls)
    {
        const std::size_t n = classBytes(cls);
        void *p = _free[cls];
        if (p) {
            _free[cls] = *static_cast<void **>(p);
            UHTM_ASAN_UNPOISON(p, n);
        } else {
            if (_bumpLeft < n) {
                void *c = ::operator new(
                    kChunkBytes,
                    std::align_val_t{alignof(std::max_align_t)});
                _chunks.push_back(c);
                _bump = static_cast<std::byte *>(c);
                _bumpLeft = kChunkBytes;
            }
            p = _bump;
            _bump += n;
            _bumpLeft -= n;
        }
        _liveBytes += n;
        return p;
    }

    /** Return a block to its size-class free list. */
    void
    deallocate(void *p, std::size_t cls)
    {
        const std::size_t n = classBytes(cls);
        _liveBytes -= n;
        *static_cast<void **>(p) = _free[cls];
        _free[cls] = p;
        // Keep the intrusive next pointer readable; poison the rest.
        UHTM_ASAN_POISON(static_cast<std::byte *>(p) + sizeof(void *),
                         n - sizeof(void *));
    }

    /** Bytes handed out and not yet freed (pool classes only). */
    std::size_t liveBytes() const { return _liveBytes; }

  private:
    void *_free[kNumClasses] = {};
    std::vector<void *> _chunks;
    std::byte *_bump = nullptr;
    std::size_t _bumpLeft = 0;
    std::size_t _liveBytes = 0;
};

namespace detail
{

/** The thread's active arena; null outside any ArenaScope. */
inline thread_local Arena *t_currentArena = nullptr;

/** Header stamped in front of every arenaNew allocation. */
struct ArenaHeader
{
    Arena *arena;     // null: plain ::operator new
    std::size_t cls;  // size class (unused for heap blocks)
};

static_assert(sizeof(ArenaHeader) <= 16);
constexpr std::size_t kArenaHeaderBytes = 16;

} // namespace detail

/**
 * Allocate @p bytes from the thread's current arena (or the global
 * heap when no scope is active / the request is oversize). The block
 * is self-describing: arenaDelete works regardless of which path
 * served it and whether the scope is still active.
 */
inline void *
arenaNew(std::size_t bytes)
{
    using detail::ArenaHeader;
    using detail::kArenaHeaderBytes;
    Arena *a = detail::t_currentArena;
    const std::size_t total = bytes + kArenaHeaderBytes;
    const std::size_t cls = Arena::classFor(total);
    void *raw;
    if (a && cls < Arena::kNumClasses) {
        raw = a->allocate(cls);
    } else {
        raw = ::operator new(total);
        a = nullptr;
    }
    ::new (raw) ArenaHeader{a, cls};
    return static_cast<std::byte *>(raw) + kArenaHeaderBytes;
}

/** Free a block obtained from arenaNew. */
inline void
arenaDelete(void *p) noexcept
{
    using detail::ArenaHeader;
    using detail::kArenaHeaderBytes;
    if (!p)
        return;
    void *raw = static_cast<std::byte *>(p) - kArenaHeaderBytes;
    const ArenaHeader h = *static_cast<ArenaHeader *>(raw);
    if (h.arena)
        h.arena->deallocate(raw, h.cls);
    else
        ::operator delete(raw);
}

/** RAII: make @p a the thread's current arena for this scope. */
class ArenaScope
{
  public:
    explicit ArenaScope(Arena &a) noexcept : _prev(detail::t_currentArena)
    {
        detail::t_currentArena = &a;
    }

    ~ArenaScope() { detail::t_currentArena = _prev; }

    ArenaScope(const ArenaScope &) = delete;
    ArenaScope &operator=(const ArenaScope &) = delete;

  private:
    Arena *_prev;
};

} // namespace uhtm

#endif // UHTM_SIM_ARENA_HH
