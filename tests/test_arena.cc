/**
 * @file
 * Arena allocator unit tests: size classes, recycling, live-byte
 * accounting, the self-describing arenaNew/arenaDelete header and
 * ArenaScope; and the per-thread recycling of large machine arrays
 * (reuseAllocate and ReuseArray).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "mem/cache.hh"
#include "mem/dram_cache.hh"
#include "mem/layout.hh"
#include "sim/arena.hh"
#include "sim/reuse_alloc.hh"

namespace uhtm
{
namespace
{

TEST(Arena, ClassForRoundsToPowerOfTwoClasses)
{
    EXPECT_EQ(Arena::classFor(1), 0u);
    EXPECT_EQ(Arena::classFor(16), 0u);
    EXPECT_EQ(Arena::classFor(17), 1u);
    EXPECT_EQ(Arena::classFor(32), 1u);
    EXPECT_EQ(Arena::classFor(33), 2u);
    EXPECT_EQ(Arena::classFor(Arena::kMaxClassBytes), Arena::kNumClasses - 1);
    // Oversize requests report the out-of-range class (heap fallback).
    EXPECT_EQ(Arena::classFor(Arena::kMaxClassBytes + 1), Arena::kNumClasses);
    for (std::size_t c = 0; c < Arena::kNumClasses; ++c)
        EXPECT_EQ(Arena::classFor(Arena::classBytes(c)), c);
}

TEST(Arena, FreedBlocksAreRecycledLifo)
{
    Arena a;
    const std::size_t cls = Arena::classFor(64);
    void *p1 = a.allocate(cls);
    void *p2 = a.allocate(cls);
    EXPECT_NE(p1, p2);
    a.deallocate(p1, cls);
    a.deallocate(p2, cls);
    // LIFO free list: the most recently freed block comes back first.
    EXPECT_EQ(a.allocate(cls), p2);
    EXPECT_EQ(a.allocate(cls), p1);
}

TEST(Arena, LiveAndHighWaterTrackClassBytes)
{
    Arena a;
    const std::size_t cls = Arena::classFor(100); // -> 128-byte class
    const std::size_t n = Arena::classBytes(cls);
    void *p1 = a.allocate(cls);
    void *p2 = a.allocate(cls);
    EXPECT_EQ(a.liveBytes(), 2 * n);
    a.deallocate(p1, cls);
    EXPECT_EQ(a.liveBytes(), n);
    void *p3 = a.allocate(cls); // recycles p1
    EXPECT_EQ(p3, p1);
    EXPECT_EQ(a.liveBytes(), 2 * n);
    a.deallocate(p2, cls);
    a.deallocate(p3, cls);
    EXPECT_EQ(a.liveBytes(), 0u);
}

TEST(Arena, ArenaNewRoutesThroughCurrentScope)
{
    Arena a;
    void *p;
    {
        ArenaScope scope(a);
        p = arenaNew(24);
        EXPECT_GT(a.liveBytes(), 0u);
        std::memset(p, 0xab, 24);
    }
    // The header records the owning arena: deletion after the scope
    // has exited still returns the block to the arena.
    arenaDelete(p);
    EXPECT_EQ(a.liveBytes(), 0u);
}

TEST(Arena, ArenaNewFallsBackToHeapWithoutScope)
{
    // No ArenaScope active: the block is plain-heap backed but still
    // carries a header, so arenaDelete stays uniform.
    void *p = arenaNew(48);
    std::memset(p, 0xcd, 48);
    arenaDelete(p);
}

TEST(Arena, OversizeRequestsBypassThePool)
{
    Arena a;
    ArenaScope scope(a);
    const std::size_t big = Arena::kMaxClassBytes + 1;
    void *p = arenaNew(big);
    // Oversize blocks never come from (or count against) the arena.
    EXPECT_EQ(a.liveBytes(), 0u);
    std::memset(p, 0x5a, big);
    arenaDelete(p);
    EXPECT_EQ(a.liveBytes(), 0u);
}

TEST(Arena, ScopesNestAndRestore)
{
    Arena outer, inner;
    ArenaScope s1(outer);
    void *po = arenaNew(24);
    {
        ArenaScope s2(inner);
        void *pi = arenaNew(24);
        EXPECT_GT(inner.liveBytes(), 0u);
        arenaDelete(pi);
    }
    // Back to the outer arena after the inner scope unwinds.
    void *po2 = arenaNew(24);
    EXPECT_EQ(inner.liveBytes(), 0u);
    arenaDelete(po);
    arenaDelete(po2);
    EXPECT_EQ(outer.liveBytes(), 0u);
}

#ifdef UHTM_ASAN
TEST(Arena, FreeListBlocksArePoisonedUnderAsan)
{
    Arena a;
    const std::size_t cls = Arena::classFor(256);
    void *p = a.allocate(cls);
    a.deallocate(p, cls);
    // Past the intrusive next pointer the freed block must be poisoned;
    // allocation unpoisons it again.
    EXPECT_TRUE(__asan_address_is_poisoned(
        static_cast<std::byte *>(p) + sizeof(void *)));
    void *q = a.allocate(cls);
    EXPECT_EQ(q, p);
    EXPECT_FALSE(__asan_address_is_poisoned(
        static_cast<std::byte *>(q) + sizeof(void *)));
    a.deallocate(q, cls);
}
#endif

/**
 * Run @p body on a new thread. A new thread starts with nothing parked,
 * so blocks that earlier tests left in the main thread's few slots
 * cannot change the outcome, and the thread's exit releases what the
 * body parks.
 */
template <typename F>
void
onFreshThread(F body)
{
    std::thread t(body);
    t.join();
}

TEST(ReuseAlloc, SameSizeBlockIsReused)
{
    onFreshThread([] {
        const std::size_t before = reuseParkedBytes();
        const std::size_t n = kReuseMinBytes;
        void *p = reuseAllocate(n);
        std::memset(p, 0x11, n);
        reuseDeallocate(p, n);
        EXPECT_EQ(reuseParkedBytes(), before + n);
        void *q = reuseAllocate(n);
        EXPECT_EQ(q, p) << "a parked block of the same size comes back";
        EXPECT_EQ(reuseParkedBytes(), before);
        // A different size never takes it.
        reuseDeallocate(q, n);
        void *r = reuseAllocate(n + 64);
        EXPECT_NE(r, q);
        EXPECT_EQ(reuseParkedBytes(), before + n);
        reuseDeallocate(r, n + 64);
        EXPECT_EQ(reuseAllocate(n), q);
        EXPECT_EQ(reuseAllocate(n + 64), r);
        reuseDeallocate(q, n);
        reuseDeallocate(r, n + 64);
    });
}

TEST(ReuseAlloc, AtMostOneBlockPerSizeIsParked)
{
    onFreshThread([] {
        const std::size_t n = 2 * kReuseMinBytes;
        void *a = reuseAllocate(n);
        void *b = reuseAllocate(n);
        const std::size_t before = reuseParkedBytes();
        reuseDeallocate(a, n);
        reuseDeallocate(b, n); // size already parked: freed
        EXPECT_EQ(reuseParkedBytes(), before + n);
        EXPECT_EQ(reuseAllocate(n), a);
        EXPECT_EQ(reuseParkedBytes(), before);
        reuseDeallocate(a, n);
    });
}

TEST(ReuseAlloc, AtMostKReuseSlotsBlocksAreParked)
{
    onFreshThread([] {
        const std::size_t before = reuseParkedBytes();
        std::vector<std::size_t> sizes;
        std::vector<void *> blocks;
        for (std::size_t i = 1; i <= kReuseSlots + 1; ++i) {
            sizes.push_back(i * kReuseMinBytes);
            blocks.push_back(reuseAllocate(sizes.back()));
        }
        std::size_t kept = 0;
        for (std::size_t i = 0; i < blocks.size(); ++i) {
            reuseDeallocate(blocks[i], sizes[i]);
            if (i < kReuseSlots)
                kept += sizes[i];
        }
        EXPECT_EQ(reuseParkedBytes(), before + kept)
            << "the last size finds every slot taken and is freed";
    });
}

TEST(ReuseAlloc, SmallBlocksAreNeverParked)
{
    onFreshThread([] {
        const std::size_t before = reuseParkedBytes();
        for (std::size_t n : {std::size_t{64}, std::size_t{64 * 1024},
                              kReuseMinBytes - 1}) {
            void *p = reuseAllocate(n);
            std::memset(p, 0x22, n);
            reuseDeallocate(p, n);
            EXPECT_EQ(reuseParkedBytes(), before) << n << " bytes";
        }
    });
}

TEST(ReuseAlloc, TwoLiveSameSizeArraysStayValid)
{
    onFreshThread([] {
        using Array = ReuseArray<std::uint64_t>;
        const std::size_t n = kReuseMinBytes / sizeof(std::uint64_t);
        {
            // Park one block of the size first, so the pair below is one
            // recycled and one fresh block.
            Array warm(n, 0);
        }
        Array a(n, 0xaaaa), b(n, 0xbbbb);
        ASSERT_NE(a.data(), b.data());
        for (std::size_t i = 0; i < n; i += 4096) {
            a[i] = i;
            EXPECT_EQ(b[i], 0xbbbbu)
                << "writes to one must not reach the other";
        }
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(a[i], i % 4096 == 0 ? i : 0xaaaau);
    });
}

TEST(ReuseAlloc, BlocksParkedInAThreadAreReleasedAtExit)
{
    const std::size_t before = reuseParkedBytes();
    const std::size_t n = 3 * kReuseMinBytes;
    std::size_t inside = 0;
    std::thread t([&] {
        {
            ReuseArray<char> v(n, 'x');
        }
        inside = reuseParkedBytes();
    });
    t.join();
    EXPECT_EQ(inside, before + n) << "the thread parked its block";
    EXPECT_EQ(reuseParkedBytes(), before)
        << "thread exit must release what it parked";
}

TEST(ReuseArray, FreshAndRecycledBlocksAreCacheLineAligned)
{
    onFreshThread([] {
        auto aligned = [](const void *p) {
            return reinterpret_cast<std::uintptr_t>(p) % 64 == 0;
        };
        static_assert(alignof(CacheLine) == 64);
        const std::size_t lines = kReuseMinBytes / sizeof(CacheLine);
        // Two sizes, as one size parks only one block.
        const std::size_t tags = 2 * kReuseMinBytes / sizeof(Addr);
        const void *freshLines = nullptr;
        const void *freshTags = nullptr;
        {
            ReuseArray<CacheLine> l(lines);
            ReuseArray<Addr> t(tags, 0);
            EXPECT_TRUE(aligned(l.data()));
            EXPECT_TRUE(aligned(t.data()));
            freshLines = l.data();
            freshTags = t.data();
            // Blocks too small to park are aligned too.
            ReuseArray<CacheLine> l1(1);
            ReuseArray<Addr> t3(3, 0);
            EXPECT_TRUE(aligned(l1.data()));
            EXPECT_TRUE(aligned(t3.data()));
        }
        ReuseArray<CacheLine> l(lines);
        ReuseArray<Addr> t(tags, 0);
        ASSERT_EQ(l.data(), freshLines) << "the line block was recycled";
        ASSERT_EQ(t.data(), freshTags) << "the tag block was recycled";
        EXPECT_TRUE(aligned(l.data()));
        EXPECT_TRUE(aligned(t.data()));
    });
}

#ifdef UHTM_ASAN
TEST(ReuseAlloc, ParkedBlocksArePoisonedUnderAsan)
{
    onFreshThread([] {
        const std::size_t n = kReuseMinBytes;
        auto *p = static_cast<std::byte *>(reuseAllocate(n));
        reuseDeallocate(p, n);
        EXPECT_TRUE(__asan_address_is_poisoned(p));
        EXPECT_TRUE(__asan_address_is_poisoned(p + n - 1));
        auto *q = static_cast<std::byte *>(reuseAllocate(n));
        ASSERT_EQ(q, p);
        EXPECT_FALSE(__asan_address_is_poisoned(q));
        EXPECT_FALSE(__asan_address_is_poisoned(q + n - 1));
        reuseDeallocate(q, n);
    });
}

TEST(ReuseArray, FreeSlotsArePoisonedUnderAsan)
{
    onFreshThread([] {
        auto poisoned = [](const void *p, std::size_t n) {
            const auto *b = static_cast<const std::byte *>(p);
            return __asan_address_is_poisoned(b) &&
                   __asan_address_is_poisoned(b + n - 1);
        };
        auto clear = [](const void *p, std::size_t n) {
            return __asan_region_is_poisoned(const_cast<void *>(p), n) ==
                   nullptr;
        };

        // A cache: a fresh slot is poisoned, an installed line is not,
        // and an invalidated line is poisoned again.
        Cache llc("LLC", kReuseMinBytes, 16);
        const Addr line = MemLayout::kNvmBase;
        bool had = true;
        CacheLine *slot = llc.victimFor(line, had);
        ASSERT_FALSE(had);
        EXPECT_TRUE(poisoned(slot, sizeof(CacheLine)));
        llc.install(slot, line);
        EXPECT_TRUE(clear(slot, sizeof(CacheLine)));
        EXPECT_TRUE(poisoned(slot + 1, sizeof(CacheLine)))
            << "the next way of the set is still free";
        llc.invalidate(line);
        EXPECT_TRUE(poisoned(slot, sizeof(CacheLine)));

        // The DRAM cache: an inserted entry is not poisoned, the free
        // way next to it is.
        DramCache dc(kReuseMinBytes, 16);
        DramCacheEntry *e = &dc.install(dc.victimFor(line, 1), line, 1);
        EXPECT_TRUE(clear(e, sizeof(DramCacheEntry)));
        EXPECT_TRUE(poisoned(e + 1, sizeof(DramCacheEntry)));
    });
}

TEST(ReuseArray, PrefetchingAPoisonedSlotDoesNotTrap)
{
    onFreshThread([] {
        // The LRU way of an empty set is a free, poisoned slot;
        // prefetchVictim touches it only with __builtin_prefetch.
        Cache llc("LLC", kReuseMinBytes, 16);
        const Addr line = MemLayout::kNvmBase;
        bool had = true;
        CacheLine *slot = llc.victimFor(line, had);
        ASSERT_FALSE(had);
        ASSERT_TRUE(__asan_address_is_poisoned(slot + 15));
        llc.prefetchVictim(line);
        llc.install(slot, line);
        llc.prefetchVictim(line + llc.numSets() * kLineBytes);
        EXPECT_TRUE(__asan_address_is_poisoned(slot + 15))
            << "prefetching left the free slot poisoned";
    });
}
#endif

} // namespace
} // namespace uhtm
