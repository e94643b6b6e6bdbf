/**
 * @file
 * Undo and redo log-area tests: append/dedup/coalesce semantics,
 * commit/abort/reclaim, and crash-replay with durability cutoffs.
 */

#include <gtest/gtest.h>

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

TEST(RedoLog, CoalescesRepeatedWrites)
{
    RedoLogArea log(MiB(1));
    EXPECT_FALSE(log.append(1, 0x1000, lineOf(0x11), 100).coalesced);
    const RedoLogArea::Append again =
        log.append(1, 0x1000, lineOf(0x22), 250);
    EXPECT_TRUE(again.coalesced) << "same line coalesces in the log buffer";
    EXPECT_EQ(log.entryCount(1), 1u);
    EXPECT_EQ(again.durableAt, 250u)
        << "coalescing refreshes the durability stamp";
    EXPECT_EQ(log.stats().coalesced, 1u);
}

TEST(RedoLog, ReplayAppliesOnlyCommittedBeforeCrash)
{
    RedoLogArea log(MiB(1));
    // tx1 committed durable at t=500, tx2 at t=2000, tx3 never.
    log.append(1, 0x1000, lineOf(0x01), 100);
    log.commit(1, 500);
    log.append(2, 0x1040, lineOf(0x02), 900);
    log.commit(2, 2000);
    log.append(3, 0x1080, lineOf(0x03), 1500);

    BackingStore img;
    EXPECT_EQ(log.replayCommitted(img, 1000), 1u)
        << "crash at t=1000: only tx1's commit record was durable";
    EXPECT_EQ(img.read64(0x1000) & 0xff, 0x01u);
    EXPECT_EQ(img.read64(0x1040), 0u);
    EXPECT_EQ(img.read64(0x1080), 0u);

    BackingStore img2;
    EXPECT_EQ(log.replayCommitted(img2, 5000), 2u);
    EXPECT_EQ(img2.read64(0x1040) & 0xff, 0x02u);
    EXPECT_EQ(img2.read64(0x1080), 0u) << "uncommitted logs disregarded";
}

TEST(RedoLog, ReplayRespectsCommitOrderOnSameLine)
{
    RedoLogArea log(MiB(1));
    log.append(1, 0x1000, lineOf(0xaa), 10);
    log.append(2, 0x1000, lineOf(0xbb), 20);
    // tx2 commits AFTER tx1: its value must win on replay regardless
    // of map iteration order.
    log.commit(1, 100);
    log.commit(2, 200);
    BackingStore img;
    log.replayCommitted(img, 1000);
    EXPECT_EQ(img.read64(0x1000) & 0xff, 0xbbu);
}

TEST(RedoLog, AbortedLogsAreDisregardedAndReclaimed)
{
    RedoLogArea log(MiB(1));
    log.append(1, 0x1000, lineOf(0x55), 10);
    log.abort(1);
    BackingStore img;
    EXPECT_EQ(log.replayCommitted(img, 1000), 0u);
    const auto used = log.bytesUsed();
    log.reclaimAborted();
    EXPECT_LT(log.bytesUsed(), used);
    EXPECT_EQ(log.entryCount(1), 0u);
}

TEST(RedoLog, DurabilityHorizonIsMaxOverEntries)
{
    // Each record reports its own stamp; a write coalesced into a
    // record is durable only once both writes are, so the record keeps
    // the later stamp even when the new write would be durable sooner.
    RedoLogArea log(MiB(1));
    EXPECT_EQ(log.append(1, 0x1000, lineOf(1), 300).durableAt, 300u);
    EXPECT_EQ(log.append(1, 0x1040, lineOf(2), 700).durableAt, 700u);
    EXPECT_EQ(log.append(1, 0x1080, lineOf(3), 500).durableAt, 500u);
    EXPECT_EQ(log.append(1, 0x1040, lineOf(4), 400).durableAt, 700u);
    EXPECT_EQ(log.append(1, 0x1080, lineOf(5), 600).durableAt, 600u);
}

TEST(RedoLog, ReclaimCommittedFreesSpace)
{
    RedoLogArea log(MiB(1));
    log.append(1, 0x1000, lineOf(1), 10);
    log.commit(1, 20);
    EXPECT_GT(log.bytesUsed(), 0u);
    log.reclaimCommitted(1);
    EXPECT_EQ(log.bytesUsed(), 0u);
}

} // namespace
} // namespace uhtm
