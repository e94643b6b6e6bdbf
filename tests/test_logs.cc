/**
 * @file
 * Undo and redo log-area tests: append/dedup/coalesce semantics,
 * commit/abort/reclaim, and crash-replay with durability cutoffs. A
 * running transaction's log records live with it (undo records in its
 * descriptor, redo records in its write set), so their deduplication,
 * order, stamps and accounting are checked through the machine; the
 * shared capacity accounting and committed logs are checked on the
 * log areas themselves.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "check/fault_injector.hh"
#include "htm/htm_system.hh"
#include "mem/redo_log.hh"
#include "mem/undo_log.hh"

namespace uhtm
{
namespace
{

std::array<std::uint8_t, kLineBytes>
lineOf(std::uint8_t fill)
{
    std::array<std::uint8_t, kLineBytes> d;
    d.fill(fill);
    return d;
}

/** A machine whose persist points are recorded with the line images
 *  they carry, for the log records that live with their transaction
 *  while it runs. */
struct Machine
{
    /** One persist point and the line image it carried, if any. */
    struct Point
    {
        PersistPoint point;
        Addr line;
        std::array<std::uint8_t, kLineBytes> bytes;
    };

    EventQueue eq;
    HtmSystem sys{eq, MachineConfig::tiny(), HtmPolicy::uhtmOpt(2048)};
    DomainId dom = sys.createDomain("p0");
    FaultInjector fi{eq};
    std::vector<Point> points;

    Machine()
    {
        sys.setFaultInjector(&fi);
        fi.setOnPoint([this](const PersistEvent &ev, const std::uint8_t *b) {
            Point p{ev.point, ev.line, {}};
            if (b)
                std::memcpy(p.bytes.data(), b, kLineBytes);
            points.push_back(p);
        });
    }
    ~Machine() { sys.setFaultInjector(nullptr); }

    void
    store(CoreId core, Addr a, std::uint64_t v)
    {
        storeIn(dom, core, a, v);
    }

    void
    storeIn(DomainId d, CoreId core, Addr a, std::uint64_t v)
    {
        sys.issueAccess(core, d, a, true, false, v);
        eq.run();
    }

    /** The recorded points of kind @p k, in notification order. */
    std::vector<Point>
    pointsOf(PersistPoint k) const
    {
        std::vector<Point> out;
        for (const Point &p : points)
            if (p.point == k)
                out.push_back(p);
        return out;
    }

    /** The @p k-th line of the LLC set that holds @p line (k = 0 is
     *  @p line itself). */
    Addr
    sameSet(Addr line, unsigned k)
    {
        const std::uint64_t sets = sys.llc().capacityLines() /
                                   sys.llc().ways();
        return line + k * sets * kLineBytes;
    }

    /** Write one LLC set's worth of fresh lines of @p line's set,
     *  starting at its @p first-th line, so that @p line (the least
     *  recently used) leaves the LLC. */
    void
    evictFromLlc(CoreId core, Addr line, unsigned first)
    {
        for (unsigned k = first; k < first + sys.llc().ways(); ++k)
            store(core, sameSet(line, k), 0xe0 + k);
    }

    /** Durability stamps of the redo-log writes, in issue order. */
    std::vector<Tick>
    appendStamps() const
    {
        std::vector<Tick> stamps;
        for (const PersistEvent &ev : fi.events())
            if (ev.point == PersistPoint::RedoLogAppend)
                stamps.push_back(ev.completeAt);
        return stamps;
    }

    /** The line recovery finds for a crash at @p crash_tick. */
    std::array<std::uint8_t, kLineBytes>
    recovered(Addr line, Tick crash_tick, bool *from_log)
    {
        std::array<std::uint8_t, kLineBytes> out;
        *from_log = sys.redoLog().recoverLine(sys.durableNvm(), line,
                                              crash_tick, out);
        return out;
    }
};

constexpr Addr kNvmA = MemLayout::kNvmBase + 0x30000;
constexpr Addr kNvmB = MemLayout::kNvmBase + 0x30040;

RedoEntry
record(Addr line, std::uint8_t fill, Tick durable_at)
{
    return RedoEntry{line, lineOf(fill), durable_at};
}

constexpr Addr kDramA = MemLayout::kDramBase + 0x40000;
constexpr std::uint64_t kRecordBytes = UndoLogArea::kRecordBytes;

std::uint64_t
firstWord(const std::array<std::uint8_t, kLineBytes> &line)
{
    std::uint64_t v = 0;
    std::memcpy(&v, line.data(), 8);
    return v;
}

TEST(UndoLog, FirstImageWinsOnDuplicateAppend)
{
    // A line that leaves the LLC twice keeps the record of its first
    // eviction: that image is the pre-transaction value abort must
    // restore. A write behind the transaction changes the in-place
    // line in between, so a second append would log different bytes.
    Machine m;
    m.sys.setupWrite64(kDramA, 0xaa);
    TxDesc *tx = m.sys.beginTx(0, m.dom, 0);
    m.store(0, kDramA, 1);
    m.evictFromLlc(0, kDramA, 1);
    ASSERT_EQ(m.sys.llc().peek(kDramA), nullptr);
    ASSERT_EQ(m.pointsOf(PersistPoint::UndoLogAppend).size(), 1u);
    const std::uint64_t records = tx->undoRecords.size();

    m.sys.setupWrite64(kDramA, 0xbb);
    m.store(0, kDramA, 2); // back into the LLC
    m.evictFromLlc(0, kDramA, 1 + m.sys.llc().ways());
    ASSERT_EQ(m.sys.llc().peek(kDramA), nullptr);

    std::size_t appends_of_a = 0;
    for (const auto &p : m.pointsOf(PersistPoint::UndoLogAppend)) {
        if (p.line == kDramA) {
            ++appends_of_a;
            EXPECT_EQ(firstWord(p.bytes), 0xaau);
        }
    }
    EXPECT_EQ(appends_of_a, 1u) << "a second eviction appends nothing";
    EXPECT_GT(tx->undoRecords.size(), records)
        << "the set's other lines were logged meanwhile";
    ASSERT_EQ(tx->undoRecords.front().line, kDramA);
    EXPECT_EQ(firstWord(tx->undoRecords.front().oldData), 0xaau);
    for (std::size_t i = 1; i < tx->undoRecords.size(); ++i)
        EXPECT_NE(tx->undoRecords[i].line, kDramA);
    EXPECT_EQ(m.sys.undoLog().bytesUsed(),
              tx->undoRecords.size() * kRecordBytes);
}

TEST(UndoLog, CopyBackFollowsAppendOrder)
{
    // Lines of one LLC set, written in descending address order, each
    // with its own pre-transaction image: the set evicts them in write
    // order, so append order is not address order.
    Machine m;
    const unsigned n = m.sys.llc().ways() + 6;
    for (unsigned k = 0; k < n; ++k)
        m.sys.setupWrite64(m.sameSet(kDramA, k), 0x100 + k);
    TxDesc *tx = m.sys.beginTx(0, m.dom, 0);
    for (unsigned k = n; k-- > 0;)
        m.store(0, m.sameSet(kDramA, k), 7);

    const auto appends = m.pointsOf(PersistPoint::UndoLogAppend);
    ASSERT_EQ(appends.size(), 6u);
    ASSERT_EQ(tx->undoRecords.size(), appends.size());
    for (std::size_t i = 0; i < appends.size(); ++i) {
        const unsigned k = n - 1 - static_cast<unsigned>(i);
        EXPECT_EQ(appends[i].line, m.sameSet(kDramA, k)) << i;
        EXPECT_EQ(firstWord(appends[i].bytes), 0x100u + k) << i;
        EXPECT_EQ(tx->undoRecords[i].line, appends[i].line) << i;
    }

    ASSERT_TRUE(m.sys.requestAbortForTest(tx));
    m.sys.issueAbort(0);
    m.eq.run();
    const auto copies = m.pointsOf(PersistPoint::UndoCopyBack);
    ASSERT_EQ(copies.size(), appends.size());
    for (std::size_t i = 0; i < copies.size(); ++i) {
        EXPECT_EQ(copies[i].line, appends[i].line) << i;
        EXPECT_EQ(copies[i].bytes, appends[i].bytes)
            << "copy-back " << i << " carries the appended image";
    }
}

TEST(UndoLog, CommitReclaimsRecords)
{
    Machine m;
    TxDesc *tx = m.sys.beginTx(0, m.dom, 0);
    m.store(0, kDramA, 1);
    m.evictFromLlc(0, kDramA, 1);
    const std::uint64_t records = tx->undoRecords.size();
    ASSERT_GT(records, 0u);
    EXPECT_EQ(m.sys.undoLog().bytesUsed(), records * kRecordBytes);
    m.sys.issueCommit(0);
    m.eq.run();
    const UndoLogArea::Stats &st = m.sys.undoLog().stats();
    EXPECT_EQ(m.sys.undoLog().bytesUsed(), 0u);
    EXPECT_EQ(st.appends, records);
    EXPECT_EQ(st.reclaimed, records);
    EXPECT_EQ(st.restores, 0u);
    EXPECT_EQ(st.peakBytes, records * kRecordBytes);
    EXPECT_EQ(st.commitMarks, 1u);
    EXPECT_EQ(m.pointsOf(PersistPoint::UndoCommitMark).size(), 1u);
}

TEST(UndoLog, CommitMarkOnlyWithRecords)
{
    // The commit mark is the write the timing model charges only when
    // the transaction has undo records; without any there is no mark
    // to count or to crash at.
    Machine m;
    TxDesc *tx = m.sys.beginTx(0, m.dom, 0);
    m.store(0, kDramA, 1);
    ASSERT_TRUE(tx->undoRecords.empty());
    m.sys.issueCommit(0);
    m.eq.run();
    EXPECT_EQ(m.sys.undoLog().stats().commitMarks, 0u);
    EXPECT_TRUE(m.pointsOf(PersistPoint::UndoCommitMark).empty());
}

TEST(UndoLog, AbortReclaimsRecords)
{
    Machine m;
    TxDesc *tx = m.sys.beginTx(0, m.dom, 0);
    m.store(0, kDramA, 1);
    m.evictFromLlc(0, kDramA, 1);
    const std::uint64_t records = tx->undoRecords.size();
    ASSERT_GT(records, 0u);
    ASSERT_TRUE(m.sys.requestAbortForTest(tx));
    m.sys.issueAbort(0);
    m.eq.run();
    const UndoLogArea::Stats &st = m.sys.undoLog().stats();
    EXPECT_EQ(m.sys.undoLog().bytesUsed(), 0u);
    EXPECT_EQ(st.reclaimed, records);
    EXPECT_EQ(st.restores, records);
    EXPECT_EQ(st.commitMarks, 0u);
}

TEST(UndoLog, TransactionsAreIndependent)
{
    // Two transactions in two conflict domains overflow two LLC sets:
    // each owns its records, and one's commit leaves the other's.
    Machine m;
    const DomainId dom1 = m.sys.createDomain("p1");
    const Addr b = kDramA + kLineBytes; // the next LLC set
    TxDesc *t0 = m.sys.beginTx(0, m.dom, 0);
    TxDesc *t1 = m.sys.beginTx(1, dom1, 0);
    m.store(0, kDramA, 1);
    m.storeIn(dom1, 1, b, 2);
    m.evictFromLlc(0, kDramA, 1);
    for (unsigned k = 1; k <= m.sys.llc().ways(); ++k)
        m.storeIn(dom1, 1, m.sameSet(b, k), 3);
    ASSERT_FALSE(t0->abortRequested);
    ASSERT_FALSE(t1->abortRequested);
    ASSERT_EQ(t0->undoRecords.size(), 1u);
    ASSERT_EQ(t1->undoRecords.size(), 1u);
    EXPECT_EQ(t0->undoRecords.front().line, kDramA);
    EXPECT_EQ(t1->undoRecords.front().line, b);

    m.sys.issueCommit(0);
    m.eq.run();
    EXPECT_EQ(m.sys.undoLog().bytesUsed(), kRecordBytes)
        << "the other transaction's record stays";
    ASSERT_TRUE(m.sys.requestAbortForTest(t1));
    m.sys.issueAbort(1);
    m.eq.run();
    const auto copies = m.pointsOf(PersistPoint::UndoCopyBack);
    ASSERT_EQ(copies.size(), 1u);
    EXPECT_EQ(copies[0].line, b);
    EXPECT_EQ(m.sys.undoLog().bytesUsed(), 0u);
}

TEST(UndoLog, CapacityAccounting)
{
    UndoLogArea log(200); // tiny: fits two 80B records
    EXPECT_FALSE(log.reserve());
    EXPECT_FALSE(log.reserve());
    EXPECT_TRUE(log.full());
    EXPECT_EQ(log.capacity(), 200u);
    EXPECT_TRUE(log.reserve()) << "a full area traps the OS";
    EXPECT_EQ(log.capacity(), 250u) << "grown by a quarter";
    EXPECT_EQ(log.bytesUsed(), 3 * kRecordBytes);
    EXPECT_EQ(log.stats().peakBytes, 3 * kRecordBytes);
    log.commit(3);
    EXPECT_EQ(log.bytesUsed(), 0u);
    EXPECT_EQ(log.stats().appends, 3u);
    EXPECT_EQ(log.stats().reclaimed, 3u);
    EXPECT_EQ(log.stats().commitMarks, 1u);
}

TEST(RedoLog, CoalescesRepeatedWrites)
{
    Machine m;
    m.sys.beginTx(0, m.dom, 0);
    m.store(0, kNvmA, 0x11);
    const std::uint64_t one_record = m.sys.redoLog().bytesUsed();
    EXPECT_GT(one_record, 0u);
    m.store(0, kNvmA + 8, 0x22);
    EXPECT_EQ(m.sys.redoLog().bytesUsed(), one_record)
        << "same line coalesces in the log buffer";
    m.store(0, kNvmB, 0x33);
    EXPECT_EQ(m.sys.redoLog().bytesUsed(), 2 * one_record);

    const RedoLogArea::Stats &st = m.sys.redoLog().stats();
    EXPECT_EQ(st.appends, 2u);
    EXPECT_EQ(st.coalesced, 1u);
    EXPECT_EQ(m.appendStamps().size(), 3u)
        << "a coalesced write is still a persist point";

    const Tick done = m.sys.issueCommit(0);
    m.eq.run();
    EXPECT_EQ(st.commits, 1u);
    bool from_log = false;
    const auto a = m.recovered(kNvmA, done, &from_log);
    ASSERT_TRUE(from_log);
    std::uint64_t w0 = 0, w1 = 0;
    std::memcpy(&w0, a.data(), 8);
    std::memcpy(&w1, a.data() + 8, 8);
    EXPECT_EQ(w0, 0x11u);
    EXPECT_EQ(w1, 0x22u) << "the one record holds both writes";
}

TEST(RedoLog, DurabilityHorizonIsMaxOverEntries)
{
    // A write coalesced into a record is durable only once both writes
    // are, so the record keeps the later stamp even when the new write
    // would be durable sooner. The broken-fence model delays the first
    // write's log flush past the controller's completion.
    Machine m;
    TxDesc *tx = m.sys.beginTx(0, m.dom, 0);
    m.sys.setBreakCommitMarkOrdering(true);
    m.store(0, kNvmA, 1);
    m.sys.setBreakCommitMarkOrdering(false);
    m.store(0, kNvmA, 2);
    m.store(0, kNvmB, 3);
    const std::vector<Tick> stamps = m.appendStamps();
    ASSERT_EQ(stamps.size(), 3u);
    EXPECT_LT(stamps[2], stamps[0])
        << "the later log write completes before the delayed one";
    EXPECT_EQ(stamps[1], stamps[0]) << "coalescing keeps the later stamp";
    EXPECT_EQ(tx->logsDurableAt, stamps[0]);
    EXPECT_EQ(tx->writeSet.at(kNvmA).durableAt, stamps[0]);
    EXPECT_EQ(tx->writeSet.at(kNvmB).durableAt, stamps[2]);
}

TEST(RedoLog, AbortedLogsAreDisregardedAndReclaimed)
{
    Machine m;
    TxDesc *tx = m.sys.beginTx(0, m.dom, 0);
    m.store(0, kNvmA, 0x55);
    m.store(0, kNvmB, 0x66);
    m.store(0, kNvmA + 8, 0x77);
    EXPECT_GT(m.sys.redoLog().bytesUsed(), 0u);
    ASSERT_TRUE(m.sys.requestAbortForTest(tx));
    const Tick done = m.sys.issueAbort(0);
    m.eq.run();

    const RedoLogArea::Stats &st = m.sys.redoLog().stats();
    EXPECT_EQ(st.aborts, 1u);
    EXPECT_EQ(st.reclaimed, 2u) << "one record per NVM line";
    EXPECT_EQ(st.commits, 0u);
    EXPECT_EQ(m.sys.redoLog().bytesUsed(), 0u);
    BackingStore img;
    EXPECT_EQ(m.sys.redoLog().replayCommitted(img, done), 0u);
    bool from_log = true;
    m.recovered(kNvmA, done, &from_log);
    EXPECT_FALSE(from_log) << "aborted records are never replayed";
}

TEST(RedoLog, ReplayAppliesOnlyCommittedBeforeCrash)
{
    RedoLogArea log(MiB(1));
    // tx1's commit record is durable at t=500, tx2's at t=2000.
    log.commit(500, {record(0x1000, 0x01, 100)});
    log.commit(2000, {record(0x1040, 0x02, 900)});

    BackingStore img;
    EXPECT_EQ(log.replayCommitted(img, 1000), 1u)
        << "crash at t=1000: only tx1's commit record was durable";
    EXPECT_EQ(img.read64(0x1000) & 0xff, 0x01u);
    EXPECT_EQ(img.read64(0x1040), 0u);

    BackingStore img2;
    EXPECT_EQ(log.replayCommitted(img2, 5000), 2u);
    EXPECT_EQ(img2.read64(0x1040) & 0xff, 0x02u);
    EXPECT_EQ(log.stats().replayedEntries, 3u);
    EXPECT_EQ(log.stats().tornEntries, 0u);
}

TEST(RedoLog, ReplayRespectsCommitOrderOnSameLine)
{
    RedoLogArea log(MiB(1));
    // tx2 commits AFTER tx1, though its commit record happens to be
    // durable first: commit order decides, on replay and per line.
    log.commit(200, {record(kNvmA, 0xaa, 10)});
    log.commit(100, {record(kNvmA, 0xbb, 20)});
    BackingStore img;
    EXPECT_EQ(log.replayCommitted(img, 1000), 2u);
    EXPECT_EQ(img.read64(kNvmA) & 0xff, 0xbbu);

    const MemoryImage empty;
    std::array<std::uint8_t, kLineBytes> out;
    ASSERT_TRUE(log.recoverLine(empty, kNvmA, 1000, out));
    EXPECT_EQ(out[0], 0xbb);
}

TEST(RedoLog, RecoverLineFallsBackToOlderDurableCommit)
{
    // Two committed logs hold the line; the newer one's commit record
    // is not durable at the crash (or its record is torn), so recovery
    // takes the older log's record.
    RedoLogArea log(MiB(1));
    log.commit(100, {record(kNvmA, 0xaa, 10), record(kNvmB, 0xcc, 10)});
    log.commit(500, {record(kNvmA, 0xbb, 20)});
    log.commit(700, {record(kNvmB, 0xdd, 800)}); // torn until t=800

    const MemoryImage durable;
    std::array<std::uint8_t, kLineBytes> out;
    ASSERT_TRUE(log.recoverLine(durable, kNvmA, 300, out));
    EXPECT_EQ(out[0], 0xaa) << "newer commit record not durable yet";
    ASSERT_TRUE(log.recoverLine(durable, kNvmA, 600, out));
    EXPECT_EQ(out[0], 0xbb) << "the newest durable log wins";
    ASSERT_TRUE(log.recoverLine(durable, kNvmB, 750, out));
    EXPECT_EQ(out[0], 0xcc) << "a torn record is skipped";
    ASSERT_TRUE(log.recoverLine(durable, kNvmB, 900, out));
    EXPECT_EQ(out[0], 0xdd);
    EXPECT_FALSE(log.recoverLine(durable, kNvmA, 50, out))
        << "no commit record durable: the in-place image stands";
    EXPECT_EQ(out[0], 0);

    BackingStore img;
    log.replayCommitted(img, 750);
    EXPECT_EQ(log.stats().tornEntries, 1u);
    EXPECT_EQ(img.read64(kNvmB) & 0xff, 0xccu)
        << "replay and recoverLine agree";
}

TEST(RedoLog, CommittedLogFindsEveryLine)
{
    // Stores in descending address order: the committed log is still
    // searchable for every line the transaction wrote.
    Machine m;
    m.sys.beginTx(0, m.dom, 0);
    constexpr int kLines = 24;
    for (int i = kLines - 1; i >= 0; --i)
        m.store(0, kNvmA + i * 0x1000, 0x100 + i);
    const Tick done = m.sys.issueCommit(0);
    m.eq.run();
    for (int i = 0; i < kLines; ++i) {
        bool from_log = false;
        const auto got = m.recovered(kNvmA + i * 0x1000, done, &from_log);
        ASSERT_TRUE(from_log) << "line " << i;
        std::uint64_t v = 0;
        std::memcpy(&v, got.data(), 8);
        EXPECT_EQ(v, static_cast<std::uint64_t>(0x100 + i)) << "line " << i;
    }
    EXPECT_EQ(m.sys.redoLog().footprint().records,
              static_cast<std::uint64_t>(kLines));
}

} // namespace
} // namespace uhtm
