/**
 * @file
 * The packed per-set LRU order (mem/lru_order.hh) and the caches that
 * use it: geometry checks, and differential tests that drive Cache and
 * DramCache next to a reference model keeping a timestamp per way, the
 * scheme the order word replaced, and require the same victim every
 * time.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "mem/cache.hh"
#include "mem/dram_cache.hh"
#include "mem/layout.hh"
#include "mem/lru_order.hh"

namespace uhtm
{
namespace
{

TEST(LruOrder, TouchMovesAWayToTheFrontAndShiftsTheMoreRecentRanks)
{
    std::uint64_t o = kLruIdentity;
    for (unsigned r = 0; r < kLruMaxWays; ++r)
        EXPECT_EQ(lruWayAt(o, r), r);
    o = lruTouch(o, 3);
    EXPECT_EQ(lruWayAt(o, 0), 3u);
    EXPECT_EQ(lruWayAt(o, 1), 0u);
    EXPECT_EQ(lruWayAt(o, 3), 2u);
    EXPECT_EQ(lruWayAt(o, 4), 4u) << "less recent ranks do not move";
    EXPECT_EQ(lruTouch(o, 3), o) << "touching the MRU way is a no-op";
    o = lruTouch(o, 15);
    EXPECT_EQ(lruWayAt(o, 0), 15u) << "the rank-15 nibble moves too";
    EXPECT_EQ(lruWayAt(o, 15), 14u);
    static_assert(lruWayAt(lruTouch(kLruIdentity, 0), 0) == 0);
}

TEST(LruOrder, RanksStayAPermutationUnderRandomTouches)
{
    std::mt19937_64 rng(7);
    for (unsigned ways : {1u, 2u, 3u, 8u, 16u}) {
        std::uint64_t o = kLruIdentity;
        std::vector<unsigned> ref; // ref[r] = way at rank r
        for (unsigned w = 0; w < ways; ++w)
            ref.push_back(w);
        for (int step = 0; step < 2000; ++step) {
            const unsigned w = static_cast<unsigned>(rng() % ways);
            o = lruTouch(o, w);
            std::erase(ref, w);
            ref.insert(ref.begin(), w);
            for (unsigned r = 0; r < ways; ++r)
                ASSERT_EQ(lruWayAt(o, r), ref[r]) << ways << " ways";
            for (unsigned r = ways; r < kLruMaxWays; ++r)
                ASSERT_EQ(lruWayAt(o, r), r) << "unused ranks keep identity";
        }
    }
}

/** Expect @p build to throw std::invalid_argument mentioning @p words. */
template <typename F>
void
expectRejected(F build, const std::vector<std::string> &words)
{
    try {
        build();
        ADD_FAILURE() << "geometry accepted";
    } catch (const std::invalid_argument &e) {
        const std::string what = e.what();
        for (const std::string &w : words)
            EXPECT_NE(what.find(w), std::string::npos) << what;
    }
}

TEST(CacheGeometry, BadWaysAndUndersizedCachesAreRejected)
{
    for (unsigned ways : {0u, 17u, 32u}) {
        const std::string got = "got " + std::to_string(ways);
        expectRejected([&] { Cache c("L9", KiB(64), ways); },
                       {"L9", "[1, 16]", got});
        expectRejected([&] { DramCache d(KiB(64), ways); },
                       {"DRAM cache", "[1, 16]", got});
    }
    // Three lines hold less than one 4-way set.
    expectRejected([] { Cache c("L9", 3 * kLineBytes, 4); },
                   {"L9", "fewer than one set"});
    expectRejected([] { DramCache d(3 * kLineBytes, 4); },
                   {"DRAM cache", "fewer than one set"});
    expectRejected([] { Cache c("L9", 0, 1); }, {"L9"});

    // The limits themselves are accepted.
    EXPECT_EQ(Cache("c", 16 * kLineBytes, 16).numSets(), 1u);
    EXPECT_EQ(Cache("c", kLineBytes, 1).capacityLines(), 1u);
    EXPECT_EQ(DramCache(16 * kLineBytes, 16).capacityLines(), 16u);
}

/** Line @p i of set @p set in a cache with @p sets sets. */
Addr
lineIn(std::uint64_t sets, std::uint64_t set, std::uint64_t i)
{
    return MemLayout::kNvmBase + (i * sets + set) * kLineBytes;
}

/** One reference way: a timestamp per way, the pre-packed scheme. */
struct RefWay
{
    bool valid = false;
    Addr tag = 0;
    std::uint64_t stamp = 0;
    bool tx = false;          // Cache: the Tx-bit. DramCache: tx != kNoTx.
    bool invalidated = false; // DramCache only.
    TxId owner = kNoTx;       // DramCache only.
};

struct RefSet
{
    std::vector<RefWay> ways;
    std::uint64_t clock = 0;

    int
    find(Addr tag) const
    {
        for (std::size_t w = 0; w < ways.size(); ++w)
            if (ways[w].valid && ways[w].tag == tag)
                return static_cast<int>(w);
        return -1;
    }

    void touch(int w) { ways[w].stamp = ++clock; }

    /** Least recently used valid way among those @p ok accepts, or -1. */
    template <typename Ok>
    int
    leastRecent(Ok ok) const
    {
        int best = -1;
        for (std::size_t w = 0; w < ways.size(); ++w) {
            if (ways[w].valid && ok(ways[w]) &&
                (best < 0 || ways[w].stamp < ways[best].stamp))
                best = static_cast<int>(w);
        }
        return best;
    }

    int
    firstFree() const
    {
        for (std::size_t w = 0; w < ways.size(); ++w)
            if (!ways[w].valid)
                return static_cast<int>(w);
        return -1;
    }
};

/** Cache victim by the timestamp rule. */
int
refCacheVictim(const RefSet &s, bool tx_aware)
{
    if (int w = s.firstFree(); w >= 0)
        return w;
    if (tx_aware) {
        const int w = s.leastRecent([](const RefWay &x) { return !x.tx; });
        if (w >= 0)
            return w;
    }
    return s.leastRecent([](const RefWay &) { return true; });
}

/**
 * Random install / lookup hit and miss / touch / drop / invalidate /
 * tx-mark / tx-clear on a two-set Cache and its reference. @p tx_rate
 * is the chance in 100 that a mark step marks rather than clears; at
 * 100 every line ends up transactional.
 */
void
cacheDifferential(unsigned ways, bool tx_aware, unsigned tx_rate,
                  std::uint64_t seed)
{
    constexpr std::uint64_t kSets = 2;
    Cache cache("diff", kSets * ways * kLineBytes, ways, tx_aware);
    ASSERT_EQ(cache.numSets(), kSets);
    RefSet ref[kSets];
    CacheLine *base[kSets] = {};
    for (RefSet &s : ref)
        s.ways.resize(ways);
    std::uint64_t evictions = 0, txEvictions = 0;
    std::mt19937_64 rng(seed);
    const std::uint64_t pool = 3 * ways; // distinct lines per set

    for (int step = 0; step < 4000; ++step) {
        const std::uint64_t set = rng() % kSets;
        RefSet &s = ref[set];
        const Addr tag = lineIn(kSets, set, rng() % pool);
        const int at = s.find(tag);
        const unsigned op = static_cast<unsigned>(rng() % 100);
        SCOPED_TRACE(testing::Message() << "step " << step << " op " << op);

        if (at < 0 && op < 50) {
            // Install through victimFor/install.
            const int want = refCacheVictim(s, tx_aware);
            const bool wantVictim = s.ways[want].valid;
            if (!base[set]) {
                ASSERT_EQ(want, 0) << "a fresh set fills way 0 first";
            }
            bool had = false;
            CacheLine *slot = cache.victimFor(tag, had);
            if (had) {
                EXPECT_EQ(slot->tag, s.ways[want].tag);
            }
            cache.install(slot, tag);
            if (!base[set])
                base[set] = slot;
            ASSERT_EQ(had, wantVictim);
            ASSERT_EQ(slot - base[set], want) << "victim way";
            if (wantVictim) {
                ++evictions;
                txEvictions += s.ways[want].tx;
            }
            s.ways[want] = RefWay{true, tag, 0, false};
            s.touch(want);
        } else if (at < 0) {
            EXPECT_EQ(cache.lookup(tag), nullptr);
        } else if (op < 65) {
            CacheLine *line = cache.lookup(tag);
            ASSERT_EQ(line, base[set] + at);
            s.touch(at);
        } else if (op < 72) {
            cache.touch(*cache.peek(tag));
            s.touch(at);
        } else if (op < 78) {
            if (op % 2)
                cache.drop(*cache.peek(tag));
            else
                cache.invalidate(tag);
            s.ways[at].valid = false;
        } else {
            CacheLine &line = *cache.peek(tag);
            const bool mark = rng() % 100 < tx_rate;
            if (mark && op % 2)
                line.txWriter = 1 + rng() % 5;
            else if (mark)
                line.addTxReader(1 + rng() % 5);
            else
                line.clearTxMeta();
            s.ways[at].tx = line.txBit();
        }
    }
    EXPECT_EQ(cache.stats().evictions, evictions);
    EXPECT_EQ(cache.stats().txEvictions, txEvictions);
    EXPECT_GT(evictions, 100u) << "the sequence must exercise eviction";
}

TEST(LruDifferential, CacheVictimsMatchTheTimestampScan)
{
    std::uint64_t seed = 1;
    for (unsigned ways : {2u, 4u, 8u, 16u}) {
        for (bool aware : {false, true}) {
            for (unsigned rate : {0u, 40u, 100u}) {
                SCOPED_TRACE(testing::Message()
                             << ways << " ways, tx-aware " << aware
                             << ", tx rate " << rate);
                cacheDifferential(ways, aware, rate, seed++);
            }
        }
    }
}

TEST(LruDifferential, TxAwareCacheFallsBackToLruWhenEveryWayIsTransactional)
{
    for (unsigned ways : {2u, 4u, 8u, 16u}) {
        Cache cache("t", ways * kLineBytes, ways, true);
        bool had;
        for (unsigned w = 0; w < ways; ++w) {
            CacheLine *slot = cache.victimFor(lineIn(1, 0, w), had);
            cache.install(slot, lineIn(1, 0, w));
            slot->txWriter = 9;
        }
        // Most recent first: the odd lines, then the even ones; line 0
        // is the least recently used.
        for (unsigned w = 1; w < ways; w += 2)
            cache.lookup(lineIn(1, 0, w));
        CacheLine *slot = cache.victimFor(lineIn(1, 0, ways), had);
        ASSERT_TRUE(had);
        EXPECT_EQ(slot->tag, lineIn(1, 0, 0)) << ways << " ways";
        cache.install(slot, lineIn(1, 0, ways));
        EXPECT_EQ(cache.stats().txEvictions, 1u);
        // The new line is the only non-transactional one until the most
        // recent old line is cleared; that one is the victim next.
        CacheLine *recent = cache.peek(lineIn(1, 0, ways - 1));
        ASSERT_NE(recent, nullptr);
        recent->clearTxMeta();
        slot = cache.victimFor(lineIn(1, 0, ways + 1), had);
        EXPECT_EQ(slot->tag, lineIn(1, 0, ways - 1)) << ways << " ways";
        cache.install(slot, lineIn(1, 0, ways + 1));
        EXPECT_EQ(cache.stats().txEvictions, 1u);
    }
}

/** DramCache victim by the timestamp rule. */
int
refDramVictim(const RefSet &s)
{
    if (int w = s.firstFree(); w >= 0)
        return w;
    for (std::size_t w = 0; w < s.ways.size(); ++w)
        if (s.ways[w].invalidated)
            return static_cast<int>(w);
    const int w =
        s.leastRecent([](const RefWay &x) { return x.owner == kNoTx; });
    if (w >= 0)
        return w;
    return s.leastRecent([](const RefWay &) { return true; });
}

/**
 * Random lookup / refresh insert / new insert / invalidateEntry /
 * commitEntry on a two-set DramCache and its reference; the evicted
 * tag is read from victimFor's slot before install.
 */
void
dramDifferential(unsigned ways, std::uint64_t seed)
{
    constexpr std::uint64_t kSets = 2;
    DramCache dc(kSets * ways * kLineBytes, ways);
    ASSERT_EQ(dc.capacityLines(), kSets * ways);
    RefSet ref[kSets];
    DramCacheEntry *base[kSets] = {};
    for (RefSet &s : ref)
        s.ways.resize(ways);
    std::mt19937_64 rng(seed);
    const std::uint64_t pool = 3 * ways;
    const std::array<std::uint8_t, kLineBytes> data{};
    std::uint64_t evictions = 0;

    for (int step = 0; step < 4000; ++step) {
        const std::uint64_t set = rng() % kSets;
        RefSet &s = ref[set];
        const Addr tag = lineIn(kSets, set, rng() % pool);
        const int at = s.find(tag);
        const TxId tx = rng() % 4; // 0 is kNoTx
        const unsigned op = static_cast<unsigned>(rng() % 100);
        SCOPED_TRACE(testing::Message() << "step " << step << " op " << op);

        if (op < 40) {
            const int want = at >= 0 ? at : refDramVictim(s);
            const bool wantVictim = at < 0 && s.ways[want].valid;
            const Addr victimTag = s.ways[want].tag;
            const DramCache::Slot slot = dc.victimFor(tag, tx);
            const bool evicts = slot.evicts();
            const Addr evictedTag = evicts ? slot.entry->tag : 0;
            DramCacheEntry *e = &dc.install(slot, tag, tx);
            if (!base[set]) {
                ASSERT_EQ(want, 0) << "a fresh set fills way 0 first";
                base[set] = e;
            }
            ASSERT_EQ(e - base[set], want) << "insert way";
            ASSERT_EQ(evicts, wantVictim);
            if (wantVictim) {
                EXPECT_EQ(evictedTag, victimTag);
                ++evictions;
            }
            if (at < 0)
                s.ways[want] = RefWay{true, tag, 0, false};
            s.ways[want].owner = tx;
            s.ways[want].invalidated = false;
            s.touch(want);
        } else if (op < 70) {
            DramCacheEntry *e = dc.lookup(tag);
            if (at >= 0 && !s.ways[at].invalidated) {
                ASSERT_EQ(e, base[set] + at);
                s.touch(at);
            } else {
                EXPECT_EQ(e, nullptr);
            }
        } else if (op < 85) {
            dc.invalidateEntry(tag, tx);
            if (at >= 0 && s.ways[at].owner == tx)
                s.ways[at].invalidated = true;
        } else {
            const bool ok = dc.commitEntry(tag, tx, data);
            const bool want = at >= 0 && s.ways[at].owner == tx &&
                              !s.ways[at].invalidated;
            ASSERT_EQ(ok, want);
            if (want)
                s.ways[at].owner = kNoTx;
        }
    }
    EXPECT_EQ(dc.stats().evictions, evictions);
    EXPECT_GT(evictions, 100u) << "the sequence must exercise eviction";
}

TEST(LruDifferential, DramCacheVictimsMatchTheTimestampScan)
{
    std::uint64_t seed = 100;
    for (unsigned ways : {2u, 4u, 8u, 16u}) {
        SCOPED_TRACE(testing::Message() << ways << " ways");
        dramDifferential(ways, seed++);
        dramDifferential(ways, seed++);
    }
}

TEST(Cache, PrefetchVictimChangesNoLookupVictimOrStat)
{
    // Twin caches run one sequence; only one prefetches before every
    // step, on an empty, a partly filled and a full set.
    for (bool aware : {false, true}) {
        Cache plain("p", 2 * 16 * kLineBytes, 16, aware);
        Cache pre("p", 2 * 16 * kLineBytes, 16, aware);
        bool had1, had2;
        for (std::uint64_t i = 0; i < 40; ++i) {
            const Addr line = lineIn(2, 0, i);
            for (std::uint64_t j = 0; j < 4; ++j)
                pre.prefetchVictim(lineIn(2, j % 2, i + j));
            ASSERT_EQ(pre.lookup(line) != nullptr,
                      plain.lookup(line) != nullptr);
            CacheLine *a = plain.victimFor(line, had1);
            CacheLine *b = pre.victimFor(line, had2);
            ASSERT_EQ(had1, had2) << i;
            if (had1) {
                ASSERT_EQ(a->tag, b->tag) << i;
            }
            plain.install(a, line);
            pre.install(b, line);
            if (i % 3 == 0) {
                a->txWriter = 5;
                b->txWriter = 5;
            }
            if (i % 5 == 0) {
                ASSERT_EQ(plain.lookup(lineIn(2, 0, i / 2)) != nullptr,
                          pre.lookup(lineIn(2, 0, i / 2)) != nullptr);
            }
        }
        for (std::uint64_t i = 0; i < 40; ++i)
            EXPECT_EQ(plain.peek(lineIn(2, 0, i)) != nullptr,
                      pre.peek(lineIn(2, 0, i)) != nullptr);
        const Cache::Stats &s1 = plain.stats(), &s2 = pre.stats();
        EXPECT_EQ(s1.hits, s2.hits);
        EXPECT_EQ(s1.misses, s2.misses);
        EXPECT_EQ(s1.evictions, s2.evictions);
        EXPECT_EQ(s1.txEvictions, s2.txEvictions);
        EXPECT_EQ(s1.evictionsNvm, s2.evictionsNvm);
        EXPECT_GT(s1.evictions, 0u);
    }
}

} // namespace
} // namespace uhtm
