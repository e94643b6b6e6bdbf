/**
 * @file
 * Unit tests for the passive memory components: backing store, memory
 * controller, cache tag array and DRAM cache, including rebuilding the
 * cache arrays from a previous machine's recycled storage.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <optional>
#include <thread>
#include <vector>

#include "check/fault_injector.hh"
#include "htm/tx_context.hh"
#include "mem/backing_store.hh"
#include "mem/cache.hh"
#include "mem/dram_cache.hh"
#include "mem/mem_ctrl.hh"
#include "sim/reuse_alloc.hh"

#ifdef __SANITIZE_THREAD__
#define UHTM_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define UHTM_TSAN 1
#endif
#endif

namespace uhtm
{
namespace
{

TEST(BackingStore, ZeroFilledByDefault)
{
    BackingStore store;
    EXPECT_EQ(store.read64(0x1234560), 0u);
    EXPECT_EQ(store.pageCount(), 0u) << "reads must not materialise pages";
}

TEST(BackingStore, ReadBackWhatWasWritten)
{
    BackingStore store;
    store.write64(0x1000, 0xdeadbeefcafef00d);
    EXPECT_EQ(store.read64(0x1000), 0xdeadbeefcafef00d);
    EXPECT_EQ(store.pageCount(), 1u);
}

TEST(BackingStore, CrossPageAccess)
{
    BackingStore store;
    const Addr a = 4096 - 4; // straddles a page boundary
    const std::uint64_t v = 0x1122334455667788;
    store.write(a, &v, 8);
    std::uint64_t out = 0;
    store.read(a, &out, 8);
    EXPECT_EQ(out, v);
    EXPECT_EQ(store.pageCount(), 2u);
}

TEST(BackingStore, LineReadWrite)
{
    BackingStore store;
    std::uint8_t in[kLineBytes], out[kLineBytes];
    for (unsigned i = 0; i < kLineBytes; ++i)
        in[i] = static_cast<std::uint8_t>(i * 3);
    store.writeLine(0x4000, in);
    store.readLine(0x4000, out);
    EXPECT_EQ(std::memcmp(in, out, kLineBytes), 0);
}

TEST(BackingStore, CopyFromSnapshotsDeeply)
{
    BackingStore a;
    a.write64(0x100, 7);
    BackingStore b;
    b.copyFrom(a);
    a.write64(0x100, 9);
    EXPECT_EQ(b.read64(0x100), 7u) << "snapshot must not alias";
}

TEST(MemCtrl, LatencyAndOccupancy)
{
    MemCtrl ctrl(ticksFromNs(82), ticksFromNs(82), ticksFromNs(4));
    const Tick t1 = ctrl.access(0, false);
    EXPECT_EQ(t1, ticksFromNs(82));
    // Second request issued at the same instant waits for the slot.
    const Tick t2 = ctrl.access(0, false);
    EXPECT_EQ(t2, ticksFromNs(4) + ticksFromNs(82));
    EXPECT_EQ(ctrl.stats().reads, 2u);
    EXPECT_GT(ctrl.stats().queueDelay, 0u);
}

TEST(MemCtrl, ReadWriteLatenciesDiffer)
{
    // NVM: read 175ns, write 94ns (ADR queue accept). Each request goes
    // to an idle controller, so neither waits for the other's slot.
    MemCtrl reader(ticksFromNs(175), ticksFromNs(94), ticksFromNs(8));
    MemCtrl writer(ticksFromNs(175), ticksFromNs(94), ticksFromNs(8));
    EXPECT_EQ(reader.access(0, false), ticksFromNs(175));
    EXPECT_EQ(writer.access(0, true), ticksFromNs(94));
    EXPECT_EQ(writer.stats().writes, 1u);
}

TEST(MemCtrl, LogTrafficCountedSeparately)
{
    MemCtrl ctrl(10, 10, 1);
    ctrl.access(0, true, true);
    ctrl.access(0, true, false);
    EXPECT_EQ(ctrl.stats().writes, 2u);
    EXPECT_EQ(ctrl.stats().logWrites, 1u);
}

TEST(Cache, HitAfterFill)
{
    Cache cache("t", KiB(4), 4);
    bool had = false;
    cache.install(cache.victimFor(0x1000, had), 0x1000);
    EXPECT_FALSE(had);
    EXPECT_NE(cache.lookup(0x1000), nullptr);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.lookup(0x2000), nullptr);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(Cache, LruVictimSelection)
{
    // Direct-mapped-ish: 2 ways, small cache; same-set addresses.
    Cache cache("t", 2 * kLineBytes, 2);
    ASSERT_EQ(cache.numSets(), 1u);
    bool had;
    cache.install(cache.victimFor(0x0, had), 0x0);
    cache.install(cache.victimFor(0x40, had), 0x40);
    // Touch 0x0 so 0x40 becomes LRU.
    cache.lookup(0x0);
    CacheLine *slot = cache.victimFor(0x80, had);
    ASSERT_TRUE(had);
    EXPECT_EQ(slot->tag, 0x40u);
    cache.install(slot, 0x80);
    EXPECT_NE(cache.peek(0x0), nullptr);
    EXPECT_EQ(cache.peek(0x40), nullptr);
}

TEST(Cache, TxAwareReplacementPrefersNonTxVictims)
{
    Cache cache("t", 2 * kLineBytes, 2, true);
    bool had;
    CacheLine *a = cache.victimFor(0x0, had);
    cache.install(a, 0x0);
    a->txWriter = 42; // transactional
    cache.install(cache.victimFor(0x40, had), 0x40);
    cache.lookup(0x0); // 0x40 is LRU, but it is non-tx anyway
    // Touch order makes 0x40 MRU now; the tx line is LRU but protected.
    cache.lookup(0x40);
    CacheLine *slot = cache.victimFor(0x80, had);
    ASSERT_TRUE(had);
    EXPECT_EQ(slot->tag, 0x40u) << "non-transactional victim preferred";
    cache.install(slot, 0x80);
}

TEST(Cache, InvalidateRemovesLine)
{
    Cache cache("t", KiB(4), 4);
    bool had;
    cache.install(cache.victimFor(0x1000, had), 0x1000);
    cache.invalidate(0x1000);
    EXPECT_EQ(cache.peek(0x1000), nullptr);
}

TEST(Cache, TxReaderListOperations)
{
    CacheLine line;
    line.addTxReader(1);
    line.addTxReader(2);
    line.addTxReader(1); // idempotent
    EXPECT_EQ(line.txReaders.size(), 2u);
    EXPECT_TRUE(line.hasTxReader(1));
    line.removeTxReader(1);
    EXPECT_FALSE(line.hasTxReader(1));
    EXPECT_TRUE(line.txBit());
    line.clearTxMeta();
    EXPECT_FALSE(line.txBit());
}

/** Insert @p line for @p tx into a bare DRAM cache, ignoring the
 *  victim; returns the entry. */
DramCacheEntry &
insert(DramCache &dc, Addr line, TxId tx)
{
    return dc.install(dc.victimFor(line, tx), line, tx);
}

std::array<std::uint8_t, kLineBytes>
filled(std::uint8_t b)
{
    std::array<std::uint8_t, kLineBytes> d;
    d.fill(b);
    return d;
}

/**
 * A tiny machine whose DRAM cache has 2 sets x 2 ways, recording every
 * persist point HtmSystem announces with the first byte it carries.
 */
struct DramCacheMachine
{
    struct Rec
    {
        PersistPoint point;
        Addr line;
        bool hadBytes;
        std::uint8_t firstByte;
    };

    static MachineConfig
    config()
    {
        MachineConfig c = MachineConfig::tiny();
        c.dramCacheBytes = 4 * kLineBytes;
        c.dramCacheWays = 2;
        return c;
    }

    EventQueue eq;
    HtmSystem sys{eq, config(), HtmPolicy::uhtmOpt(512)};
    FaultInjector fi{eq};
    DomainId dom = sys.createDomain("p0");
    std::vector<Rec> recs;

    DramCacheMachine()
    {
        sys.setFaultInjector(&fi);
        fi.setOnPoint([this](const PersistEvent &ev, const std::uint8_t *b) {
            recs.push_back({ev.point, ev.line, b != nullptr,
                            b ? b[0] : std::uint8_t{0}});
        });
    }

    /** DRAM-cache set 0 holds NVM lines 2 * k. */
    static Addr
    nvmLine(unsigned k)
    {
        return MemLayout::kNvmBase + MiB(4) + 2 * k * kLineBytes;
    }

    /** Non-transactional load of @p line from core 1: an LLC miss
     *  that, for an NVM line, fills the DRAM cache. */
    void load(Addr line) { sys.issueAccess(1, dom, line, false, false, 0); }
};

TEST(DramCache, InsertLookupCommitFlow)
{
    DramCacheMachine m;
    DramCache &dc = m.sys.dramCache();
    const Addr line = DramCacheMachine::nvmLine(0);
    DramCacheEntry &e = insert(dc, line, /*tx=*/5);
    EXPECT_EQ(e.tx, 5u);
    EXPECT_FALSE(e.committedDirty());

    EXPECT_TRUE(dc.commitEntry(line, 5, filled(0xaa)));
    ASSERT_EQ(dc.lookup(line), &e);
    EXPECT_TRUE(e.committedDirty());

    // Draining the cache writes the committed bytes in place.
    m.sys.flushDramCache();
    ASSERT_EQ(m.recs.size(), 2u);
    EXPECT_EQ(m.recs[0].point, PersistPoint::DramCacheWriteback);
    EXPECT_EQ(m.recs[1].point, PersistPoint::InPlaceNvmWrite);
    for (const auto &r : m.recs) {
        EXPECT_EQ(r.line, line);
        EXPECT_EQ(r.firstByte, 0xaa);
    }
    EXPECT_FALSE(e.dirty);
    EXPECT_EQ(dc.stats().writeBacks, 1u);
    m.eq.run();
    EXPECT_EQ(m.sys.durableNvm().read64(line), 0xaaaaaaaaaaaaaaaaull);
    m.sys.setFaultInjector(nullptr);
}

TEST(DramCache, AbortInvalidatesUncommitted)
{
    DramCache dc(KiB(64), 4);
    const Addr line = 0x400000000000ull;
    insert(dc, line, 7);
    dc.invalidateEntry(line, 7);
    EXPECT_EQ(dc.lookup(line), nullptr)
        << "invalidated entries must not hit";
    EXPECT_EQ(dc.stats().invalidations, 1u);
    // Committing after the abort must fail.
    std::array<std::uint8_t, kLineBytes> data{};
    EXPECT_FALSE(dc.commitEntry(line, 7, data));
}

TEST(DramCache, EvictionWritesBackOnlyCommittedDirty)
{
    using Victim = DramCache::Victim;
    DramCache dc(4 * kLineBytes, 2); // 2 sets x 2 ways
    // Fill one set (stride = numSets * 64).
    const Addr base = 0x400000000000ull;
    const Addr stride = 2 * kLineBytes;
    insert(dc, base, 1);
    dc.commitEntry(base, 1, filled(0xaa));
    insert(dc, base + stride, 2); // uncommitted
    // Overflowing the set evicts the LRU committed-dirty entry for a
    // write-back of its bytes; the uncommitted entry is protected while
    // any other victim exists.
    DramCache::Slot slot = dc.victimFor(base + 2 * stride, kNoTx);
    ASSERT_EQ(slot.victim, Victim::WriteBack);
    EXPECT_EQ(slot.entry->tag, base);
    EXPECT_EQ(slot.entry->data[0], 0xaa);
    dc.install(slot, base + 2 * stride, kNoTx);
    EXPECT_EQ(dc.stats().writeBacks, 1u);
    EXPECT_EQ(dc.stats().uncommittedDrops, 0u);
    EXPECT_NE(dc.peek(base + stride), nullptr);

    // The clean kNoTx entry goes next, with nothing to write.
    slot = dc.victimFor(base + 3 * stride, 3);
    EXPECT_EQ(slot.victim, Victim::Clean);
    EXPECT_EQ(slot.entry->tag, base + 2 * stride);
    dc.install(slot, base + 3 * stride, 3);
    // Force the drop: every way is uncommitted now.
    slot = dc.victimFor(base + 4 * stride, 4);
    EXPECT_EQ(slot.victim, Victim::UncommittedDrop)
        << "a set full of uncommitted entries must still make room";
    EXPECT_EQ(slot.entry->tag, base + stride) << "the LRU entry";
    dc.install(slot, base + 4 * stride, 4);
    EXPECT_EQ(dc.stats().uncommittedDrops, 1u);
    EXPECT_EQ(dc.stats().writeBacks, 1u)
        << "dropped entries write nothing in place";
    EXPECT_EQ(dc.stats().evictions, 3u);
}

TEST(DramCache, EvictingDirtyTxLineMidTransactionDropsWithNotify)
{
    // A set full of *uncommitted* transactional entries forced to make
    // room must drop an entry (its bytes stay recoverable from the redo
    // log) and announce the drop -- with no bytes and no in-place
    // write-back, which would leak speculative data to NVM.
    DramCacheMachine m;
    DramCache &dc = m.sys.dramCache();
    const Addr l0 = DramCacheMachine::nvmLine(0);
    const Addr l1 = DramCacheMachine::nvmLine(1);
    insert(dc, l0, 1);
    insert(dc, l1, 2);
    m.load(DramCacheMachine::nvmLine(2)); // overflow: must drop the LRU
    EXPECT_EQ(dc.stats().uncommittedDrops, 1u);
    ASSERT_EQ(m.recs.size(), 1u)
        << "speculative bytes must never be written back in place";
    EXPECT_EQ(m.recs[0].point, PersistPoint::DramCacheDrop);
    EXPECT_EQ(m.recs[0].line, l0) << "LRU uncommitted entry";
    EXPECT_FALSE(m.recs[0].hadBytes) << "drops carry no data towards NVM";

    // Aborted (invalidated) entries are reclaimed silently: no persist
    // point, no write-back, no drop accounting.
    dc.invalidateEntry(l1, 2);
    m.recs.clear();
    m.load(DramCacheMachine::nvmLine(3));
    EXPECT_EQ(dc.peek(l1), nullptr) << "the invalidated entry was the victim";
    EXPECT_TRUE(m.recs.empty())
        << "invalidated victims vanish without a persistence event";
    EXPECT_EQ(dc.stats().uncommittedDrops, 1u);
    EXPECT_EQ(dc.stats().writeBacks, 0u);
    m.sys.setFaultInjector(nullptr);
}

TEST(DramCache, SupersedingCommittedEntryWritesBackOldDataFirst)
{
    // A new speculative write landing on a committed-dirty entry for
    // the same line must push the committed bytes to in-place NVM
    // before the entry is reused, or an abort of the new transaction
    // would lose them. Here the write reaches the DRAM cache as an LLC
    // overflow of the writing transaction.
    DramCacheMachine m;
    DramCache &dc = m.sys.dramCache();
    const Addr line = DramCacheMachine::nvmLine(0);
    insert(dc, line, 5);
    ASSERT_TRUE(dc.commitEntry(line, 5, filled(0xaa)));

    const TxDesc *tx = m.sys.beginTx(0, m.dom, 0);
    m.sys.issueAccess(0, m.dom, line, true, true, 0x5555555555555555ull);
    m.recs.clear();
    // Load DRAM lines of the same LLC set until the written line is
    // the LRU victim and overflows into the DRAM cache.
    const std::uint64_t llcSetBytes =
        m.sys.llc().capacityLines() / DramCacheMachine::config().llcWays *
        kLineBytes;
    for (unsigned k = 1; k <= DramCacheMachine::config().llcWays; ++k)
        m.load(MemLayout::kDramBase + (line - MemLayout::kNvmBase) +
               k * llcSetBytes);
    ASSERT_TRUE(tx->overflowed);

    ASSERT_EQ(m.recs.size(), 2u);
    EXPECT_EQ(m.recs[0].point, PersistPoint::DramCacheWriteback);
    EXPECT_EQ(m.recs[1].point, PersistPoint::InPlaceNvmWrite);
    for (const auto &r : m.recs) {
        EXPECT_EQ(r.line, line);
        EXPECT_EQ(r.firstByte, 0xaa)
            << "the write-back must carry the *old* committed image";
    }
    const DramCacheEntry *e = dc.peek(line);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->tx, tx->id);
    EXPECT_FALSE(e->dirty);
    EXPECT_EQ(e->data[0], 0x55) << "then the entry takes the new image";
    EXPECT_EQ(dc.stats().writeBacks, 1u);
    m.sys.setFaultInjector(nullptr);
}

TEST(DramCache, LazyInPlaceNvmUpdateOrdersAfterCommitMark)
{
    // End-to-end ordering property of the lazy update scheme (paper
    // Section IV-C): a committed transaction's NVM lines stay in the
    // DRAM cache past commit, and when they are finally written in
    // place every such write completes strictly after the transaction's
    // redo-log commit record became durable.
    EventQueue eq;
    HtmSystem sys(eq, MachineConfig::tiny(), HtmPolicy::uhtmOpt(512));
    FaultInjector fi(eq);
    sys.setFaultInjector(&fi);
    const DomainId dom = sys.createDomain("p0");

    const Addr base = MemLayout::kNvmBase + MiB(4);
    constexpr int kLines = 4;
    TxContext ctx(sys, 0, dom, 1);
    auto driver = [&]() -> Task {
        co_await ctx.run([&](TxContext &c) -> CoTask<void> {
            for (int i = 0; i < kLines; ++i)
                co_await c.write64(base + i * kLineBytes,
                                   0xc0ffee00u + i);
        });
    };
    Task t = driver();
    t.start();
    eq.run();

    Tick commit_at = 0;
    for (const auto &ev : fi.events())
        if (ev.point == PersistPoint::CommitMark)
            commit_at = std::max(commit_at, ev.completeAt);
    ASSERT_GT(commit_at, 0u) << "transaction must have committed";

    // Every redo-log record was durable no later than the commit mark.
    EXPECT_GE(fi.countOf(PersistPoint::RedoLogAppend),
              static_cast<std::uint64_t>(kLines));
    for (const auto &ev : fi.events()) {
        if (ev.point == PersistPoint::RedoLogAppend) {
            EXPECT_LE(ev.completeAt, commit_at);
        }
    }

    // Laziness: commit alone performs no in-place NVM update; the
    // committed image lives in the DRAM cache, the durable image is
    // still stale, and the architectural store already has the data.
    EXPECT_EQ(fi.countOf(PersistPoint::InPlaceNvmWrite), 0u);
    EXPECT_EQ(sys.durableNvm().read64(base), 0u);
    EXPECT_EQ(sys.store().read64(base), 0xc0ffee00u);
    EXPECT_NE(sys.dramCache().peek(base), nullptr);

    // Drain the cache: the write-backs become in-place NVM writes and
    // each one completes strictly after the commit record.
    sys.flushDramCache();
    eq.run();
    EXPECT_GE(fi.countOf(PersistPoint::DramCacheWriteback),
              static_cast<std::uint64_t>(kLines));
    ASSERT_GE(fi.countOf(PersistPoint::InPlaceNvmWrite),
              static_cast<std::uint64_t>(kLines));
    for (const auto &ev : fi.events()) {
        if (ev.point == PersistPoint::InPlaceNvmWrite) {
            EXPECT_GT(ev.completeAt, commit_at)
                << "in-place update may never pass the commit mark";
        }
    }
    for (int i = 0; i < kLines; ++i)
        EXPECT_EQ(sys.durableNvm().read64(base + i * kLineBytes),
                  0xc0ffee00u + i);

    sys.setFaultInjector(nullptr);
}

/** NVM line @p i: consecutive lines fill every way of every set. */
Addr
lineAt(std::uint64_t i)
{
    return MemLayout::kNvmBase + i * kLineBytes;
}

/**
 * Install a line in every slot of @p llc and @p dc, with transactional
 * and directory state, and look each up once: every byte of both
 * caches' storage is written.
 */
void
fillEverySet(Cache &llc, DramCache &dc)
{
    for (std::uint64_t i = 0; i < llc.capacityLines(); ++i) {
        bool had = true;
        CacheLine *cl = llc.victimFor(lineAt(i), had);
        ASSERT_FALSE(had);
        llc.install(cl, lineAt(i));
        cl->dirty = true;
        cl->txWriter = 1 + i % 7;
        cl->addTxReader(3);
        cl->sharers = 0xff;
        cl->ownerCore = 2;
        llc.lookup(lineAt(i));
    }
    std::array<std::uint8_t, kLineBytes> data;
    data.fill(0x5a);
    for (std::uint64_t i = 0; i < dc.capacityLines(); ++i) {
        const TxId tx = 1 + i % 7;
        dc.install(dc.victimFor(lineAt(i), tx), lineAt(i), tx);
        if (i % 2)
            dc.commitEntry(lineAt(i), tx, data);
        dc.lookup(lineAt(i));
    }
}

/** Minor page faults this thread took while running @p body. */
template <typename F>
long
threadMinorFaults(F body)
{
    rusage before{}, after{};
    getrusage(RUSAGE_THREAD, &before);
    body();
    getrusage(RUSAGE_THREAD, &after);
    return after.ru_minflt - before.ru_minflt;
}

TEST(MachineReuse, RecycledCachesCarryNoState)
{
    // A fresh thread starts with nothing parked, so the rebuilt caches
    // are guaranteed to take the first pair's arrays back.
    std::thread t([] {
        const MachineConfig m;
        const std::size_t parked = reuseParkedBytes();
        std::uint64_t llcLines = 0, dcLines = 0;
        {
            Cache llc("LLC", m.llcBytes, m.llcWays);
            DramCache dc(m.dramCacheBytes, m.dramCacheWays);
            llcLines = llc.capacityLines();
            dcLines = dc.capacityLines();
            fillEverySet(llc, dc);
            ASSERT_EQ(llc.stats().hits, llcLines);
            ASSERT_EQ(dc.stats().hits, dcLines);
            ASSERT_EQ(dc.stats().evictions, 0u) << "every entry resident";
        }
        const std::size_t arrays =
            llcLines * (sizeof(CacheLine) + sizeof(Addr)) +
            dcLines * (sizeof(DramCacheEntry) + sizeof(Addr));
        EXPECT_EQ(reuseParkedBytes(), parked + arrays)
            << "all four arrays are parked";

        Cache llc("LLC", m.llcBytes, m.llcWays);
        DramCache dc(m.dramCacheBytes, m.dramCacheWays);
        EXPECT_EQ(reuseParkedBytes(), parked)
            << "the rebuilt caches took every parked array back";

        EXPECT_EQ(llc.stats().hits + llc.stats().misses +
                      llc.stats().evictions + llc.stats().txEvictions +
                      llc.stats().evictionsNvm,
                  0u);
        EXPECT_EQ(dc.stats().hits + dc.stats().misses +
                      dc.stats().evictions + dc.stats().uncommittedDrops +
                      dc.stats().writeBacks + dc.stats().invalidations,
                  0u);
        std::uint64_t visited = 0;
        llc.forEachLine([&](CacheLine &) { ++visited; });
        dc.forEach([&](DramCacheEntry &) { ++visited; });
        EXPECT_EQ(visited, 0u) << "no line survives into the new machine";

        std::uint64_t victims = 0;
        for (std::uint64_t i = 0; i < llcLines; ++i) {
            bool had = true;
            llc.victimFor(lineAt(i), had);
            victims += had;
            EXPECT_EQ(llc.lookup(lineAt(i)), nullptr);
        }
        for (std::uint64_t i = 0; i < dcLines; ++i)
            EXPECT_EQ(dc.lookup(lineAt(i)), nullptr);
        EXPECT_EQ(victims, 0u) << "every way of every set is free";
        EXPECT_EQ(llc.stats().misses, llcLines);
        EXPECT_EQ(dc.stats().misses, dcLines);
        EXPECT_EQ(llc.stats().hits + dc.stats().hits, 0u);
    });
    t.join();
}

TEST(MachineReuse, SecondMachineOnAThreadTakesFewPageFaults)
{
    // Build, fill and destroy two default-config machines on one fresh
    // thread. Filling every LLC and DRAM-cache set writes all ~126 MiB
    // of their arrays, so the first machine faults them in; the second
    // must reuse them instead of mapping fresh zero pages.
    long first = 0, second = 0;
    std::thread t([&] {
        auto buildAndFill = [] {
            EventQueue eq;
            HtmSystem sys(eq, MachineConfig{}, HtmPolicy::uhtmOpt(2048));
            fillEverySet(sys.llc(), sys.dramCache());
        };
        first = threadMinorFaults(buildAndFill);
        second = threadMinorFaults(buildAndFill);
    });
    t.join();
    if (first < 4096)
        GTEST_SKIP() << "the first machine took only " << first
                     << " minor faults (huge pages?); nothing to compare";
    EXPECT_LT(second * 10, first)
        << "first machine " << first << " faults, second " << second;
}

// ASan and TSan fault in shadow pages for the memory a build touches or
// poisons, so under them page faults measure the sanitizer, not the
// build; ReuseArray.FreeSlotsArePoisonedUnderAsan covers laziness there.
#if !defined(UHTM_ASAN) && !defined(UHTM_TSAN)
TEST(MachineReuse, BuildingAMachineWritesOnlyItsTagArrays)
{
    // On a fresh thread nothing is parked, so every array is new memory.
    // Building a default machine writes its caches' tag arrays, but not
    // the ~124 MiB of line and entry storage behind them: a slot is
    // constructed only when a line is installed in it.
    long faults = 0;
    std::uint64_t tagPages = 0;
    std::thread t([&] {
        const long page = sysconf(_SC_PAGESIZE);
        {
            // Fault in the code and this thread's heap first; a tiny
            // machine's arrays are too small to be parked.
            EventQueue eq;
            HtmSystem sys(eq, MachineConfig::tiny(),
                          HtmPolicy::uhtmOpt(2048));
        }
        std::optional<EventQueue> eq;
        std::optional<HtmSystem> sys;
        faults = threadMinorFaults([&] {
            eq.emplace();
            sys.emplace(*eq, MachineConfig{}, HtmPolicy::uhtmOpt(2048));
        });
        tagPages = (sys->llc().capacityLines() +
                    sys->dramCache().capacityLines()) *
                   sizeof(Addr) / page;
    });
    t.join();
    EXPECT_LT(faults, static_cast<long>(tagPages) + 1024)
        << "a default machine's tag arrays span " << tagPages << " pages";
}
#endif

} // namespace
} // namespace uhtm
