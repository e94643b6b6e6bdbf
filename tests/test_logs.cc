/**
 * @file
 * Undo and redo log-area tests: append/dedup/coalesce semantics,
 * commit/abort/reclaim, and crash-replay with durability cutoffs. The
 * redo records of a running transaction live in its write set, so
 * their coalescing, stamps and abort accounting are checked through
 * the machine; committed logs are checked on the log area itself.
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

TEST(UndoLog, FirstImageWinsOnDuplicateAppend)
{
    UndoLogArea log(MiB(1));
    EXPECT_TRUE(log.append(1, 0x1000, lineOf(0xaa)));
    EXPECT_FALSE(log.append(1, 0x1000, lineOf(0xbb)))
        << "second append of the same line must be ignored";
    auto entries = log.restore(1);
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].oldData[0], 0xaa)
        << "abort must restore the pre-transaction image";
}

TEST(UndoLog, CommitReclaimsRecords)
{
    UndoLogArea log(MiB(1));
    log.append(1, 0x1000, lineOf(1));
    log.append(1, 0x1040, lineOf(2));
    EXPECT_EQ(log.entryCount(1), 2u);
    EXPECT_GT(log.bytesUsed(), 0u);
    log.commit(1);
    EXPECT_EQ(log.entryCount(1), 0u);
    EXPECT_EQ(log.bytesUsed(), 0u);
    EXPECT_EQ(log.stats().commitMarks, 1u);
    EXPECT_EQ(log.stats().reclaimed, 2u);
}

TEST(UndoLog, TransactionsAreIndependent)
{
    UndoLogArea log(MiB(1));
    log.append(1, 0x1000, lineOf(1));
    log.append(2, 0x1000, lineOf(2));
    log.commit(1);
    EXPECT_TRUE(log.contains(2, 0x1000));
    auto entries = log.restore(2);
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].oldData[0], 2);
}

TEST(UndoLog, CapacityAccounting)
{
    UndoLogArea log(200); // tiny: fits two 80B records
    EXPECT_FALSE(log.full());
    log.append(1, 0x0, lineOf(0));
    log.append(1, 0x40, lineOf(0));
    EXPECT_TRUE(log.full());
    EXPECT_GE(log.stats().peakBytes, log.bytesUsed());
}

/** A machine whose persist points are recorded, for the redo records
 *  that live in the write set while their transaction runs. */
struct Machine
{
    EventQueue eq;
    HtmSystem sys{eq, MachineConfig::tiny(), HtmPolicy::uhtmOpt(2048)};
    DomainId dom = sys.createDomain("p0");
    FaultInjector fi{eq};

    Machine() { sys.setFaultInjector(&fi); }
    ~Machine() { sys.setFaultInjector(nullptr); }

    void
    store(CoreId core, Addr a, std::uint64_t v)
    {
        sys.issueAccess(core, dom, a, true, false, v);
        eq.run();
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

    const BackingStore empty;
    const DurableNvmView::Lag no_lag;
    std::array<std::uint8_t, kLineBytes> out;
    ASSERT_TRUE(log.recoverLine(DurableNvmView(empty, no_lag), kNvmA,
                                1000, out));
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

    const BackingStore empty;
    const DurableNvmView::Lag no_lag;
    const DurableNvmView durable(empty, no_lag);
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
