/**
 * @file
 * Conflict detection and resolution tests against the paper's rules:
 * RAW/WAW/WAR detection through the directory, requester-wins on chip,
 * requester-loses off chip, overflowed-transaction priority (Table II),
 * non-transactional requesters, and signature isolation.
 */

#include <gtest/gtest.h>

#include "htm/tx_context.hh"

namespace uhtm
{
namespace
{

struct Fixture
{
    EventQueue eq;
    HtmSystem sys;
    DomainId dom0, dom1;

    explicit Fixture(HtmPolicy pol = HtmPolicy::uhtmOpt(2048))
        : sys(eq, MachineConfig::tiny(), pol)
    {
        dom0 = sys.createDomain("p0");
        dom1 = sys.createDomain("p1");
    }

    /** Issue one access and drain the queue (synchronous helper). */
    AccessResult
    access(CoreId core, DomainId dom, Addr a, bool write)
    {
        auto r = sys.issueAccess(core, dom, a, write, false,
                                 write ? 0x99 : 0);
        eq.run();
        return r;
    }
};

constexpr Addr kLine = MemLayout::kDramBase + 0x10000;

TEST(ConflictMatrix, WriteAfterReadAbortsReader)
{
    Fixture f;
    TxDesc *reader = f.sys.beginTx(0, f.dom0, 0);
    f.access(0, f.dom0, kLine, false);
    TxDesc *writer = f.sys.beginTx(1, f.dom0, 0);
    f.access(1, f.dom0, kLine, true);
    // Requester-wins: the reader loses.
    EXPECT_TRUE(reader->abortRequested);
    EXPECT_FALSE(writer->abortRequested);
    EXPECT_EQ(reader->abortCause, AbortCause::TrueConflictOnChip);
    EXPECT_EQ(reader->abortedBy, writer->id);
}

TEST(ConflictMatrix, ReadAfterWriteAbortsWriter)
{
    Fixture f;
    TxDesc *writer = f.sys.beginTx(0, f.dom0, 0);
    f.access(0, f.dom0, kLine, true);
    TxDesc *reader = f.sys.beginTx(1, f.dom0, 0);
    f.access(1, f.dom0, kLine, false);
    EXPECT_TRUE(writer->abortRequested);
    EXPECT_FALSE(reader->abortRequested);
}

TEST(ConflictMatrix, WriteAfterWriteAbortsFirstWriter)
{
    Fixture f;
    TxDesc *w1 = f.sys.beginTx(0, f.dom0, 0);
    f.access(0, f.dom0, kLine, true);
    TxDesc *w2 = f.sys.beginTx(1, f.dom0, 0);
    f.access(1, f.dom0, kLine, true);
    EXPECT_TRUE(w1->abortRequested);
    EXPECT_FALSE(w2->abortRequested);
}

TEST(ConflictMatrix, ConcurrentReadersDoNotConflict)
{
    Fixture f;
    TxDesc *r1 = f.sys.beginTx(0, f.dom0, 0);
    f.access(0, f.dom0, kLine, false);
    TxDesc *r2 = f.sys.beginTx(1, f.dom0, 0);
    f.access(1, f.dom0, kLine, false);
    EXPECT_FALSE(r1->abortRequested);
    EXPECT_FALSE(r2->abortRequested);
}

TEST(ConflictMatrix, NonTxWriterAbortsTransactionalReader)
{
    Fixture f;
    TxDesc *reader = f.sys.beginTx(0, f.dom0, 0);
    f.access(0, f.dom0, kLine, false);
    // Non-transactional write from another core (no tx begun).
    f.access(1, f.dom0, kLine, true);
    EXPECT_TRUE(reader->abortRequested);
}

TEST(ConflictMatrix, OverflowedTxHasPriorityOnChip)
{
    Fixture f;
    TxDesc *victim = f.sys.beginTx(0, f.dom0, 0);
    f.access(0, f.dom0, kLine, true);
    victim->overflowed = true; // paper Table II: one side overflowed
    TxDesc *req = f.sys.beginTx(1, f.dom0, 0);
    f.access(1, f.dom0, kLine, true);
    // The non-overflowed requester aborts instead of the victim.
    EXPECT_FALSE(victim->abortRequested);
    EXPECT_TRUE(req->abortRequested);
}

TEST(OffChip, RequesterLosesAgainstSignatureHit)
{
    Fixture f;
    TxDesc *victim = f.sys.beginTx(0, f.dom0, 0);
    f.access(0, f.dom0, kLine, true);
    // Force the line off-chip into the victim's signature.
    victim->overflowed = true;
    victim->writeSig.insert(kLine);
    f.sys.l1(0).invalidate(lineAlign(kLine));
    f.sys.llc().invalidate(lineAlign(kLine));

    TxDesc *req = f.sys.beginTx(1, f.dom0, 0);
    f.access(1, f.dom0, kLine, false); // LLC miss -> signature check
    EXPECT_TRUE(req->abortRequested) << "requester-loses off chip";
    EXPECT_FALSE(victim->abortRequested);
    EXPECT_EQ(req->abortCause, AbortCause::TrueConflictOffChip)
        << "the line really is in the victim's write set";
}

TEST(OffChip, FalsePositiveClassifiedAgainstPreciseSets)
{
    Fixture f;
    TxDesc *victim = f.sys.beginTx(0, f.dom0, 0);
    victim->overflowed = true;
    // Saturate the victim's signature without the line being real.
    Rng rng(5);
    for (int i = 0; i < 4000; ++i)
        victim->writeSig.insert(lineAlign(rng.next()));

    TxDesc *req = f.sys.beginTx(1, f.dom0, 0);
    f.access(1, f.dom0, kLine + 0x4000, false);
    ASSERT_TRUE(req->abortRequested);
    EXPECT_EQ(req->abortCause, AbortCause::FalsePositive);
}

TEST(OffChip, IsolationFiltersOtherDomains)
{
    Fixture f(HtmPolicy::uhtmOpt(512));
    TxDesc *victim = f.sys.beginTx(0, f.dom0, 0);
    victim->overflowed = true;
    Rng rng(5);
    for (int i = 0; i < 4000; ++i)
        victim->writeSig.insert(lineAlign(rng.next())); // saturated

    // Requester from ANOTHER domain: with isolation its misses are
    // never checked against dom0's signatures.
    TxDesc *req = f.sys.beginTx(1, f.dom1, 0);
    for (int i = 0; i < 50; ++i)
        f.access(1, f.dom1, kLine + 0x100000 + i * kLineBytes, false);
    EXPECT_FALSE(req->abortRequested);
    EXPECT_FALSE(victim->abortRequested);
}

TEST(OffChip, WithoutIsolationCrossDomainFalseAborts)
{
    Fixture f(HtmPolicy::uhtmSig(512));
    TxDesc *victim = f.sys.beginTx(0, f.dom0, 0);
    victim->overflowed = true;
    Rng rng(5);
    for (int i = 0; i < 4000; ++i)
        victim->writeSig.insert(lineAlign(rng.next()));

    // Non-transactional LLC misses from another domain (the paper's
    // background-process case) abort the transaction.
    for (int i = 0; i < 50 && !victim->abortRequested; ++i)
        f.access(1, f.dom1, kLine + 0x100000 + i * kLineBytes, false);
    EXPECT_TRUE(victim->abortRequested);
    EXPECT_EQ(victim->abortCause, AbortCause::CrossDomainFalse);
}

TEST(ConflictMatrix, SilentExclusiveCopyCannotDodgeDetection)
{
    // Regression: a read fill grants the L1 an exclusive (E) copy; the
    // directory must record that owner, or a remote reader never
    // downgrades it and the holder's later write slips through the
    // L1-hit fast path without a conflict check (lost update).
    Fixture f;
    TxDesc *holder = f.sys.beginTx(0, f.dom0, 0);
    f.access(0, f.dom0, kLine, false); // sole reader -> E in L1
    TxDesc *reader = f.sys.beginTx(1, f.dom0, 0);
    f.access(1, f.dom0, kLine, false); // must downgrade core 0
    ASSERT_FALSE(reader->abortRequested);
    f.access(0, f.dom0, kLine, true); // upgrade -> directory check
    EXPECT_TRUE(reader->abortRequested)
        << "the writer's upgrade must see the second reader";
    EXPECT_FALSE(holder->abortRequested);
}

TEST(ConflictMatrix, PolicyResolutionTable)
{
    // Every conflict-policy kind against every resolution input: on
    // and off chip, equal and unequal attempt counts, neither, one or
    // both sides overflowed. The expectation is written out
    // independently of the policy code: Table II (on chip the requester
    // wins, off chip it loses, and an overflowed side beats a
    // non-overflowed one), except that karma first lets the side with
    // more attempts win.
    struct Side
    {
        int attempt;
        bool overflowed;
    };
    const std::pair<Side, Side> cases[] = {
        // {requester, victim}
        {{0, false}, {0, false}}, {{0, true}, {0, false}},
        {{0, false}, {0, true}},  {{3, false}, {0, false}},
        {{0, false}, {3, false}}, {{3, true}, {0, false}},
        {{0, false}, {3, true}},  {{3, false}, {0, true}},
        {{0, true}, {3, false}},  {{0, true}, {0, true}},
        {{3, true}, {0, true}},
    };
    for (const char *kind : {"fixed", "bounded-retry", "karma", "hytm"}) {
        HtmPolicy pol = HtmPolicy::uhtmOpt(2048);
        std::string err;
        ASSERT_TRUE(PolicyDescriptor::parse(kind, &pol.conflict, &err))
            << err;
        const bool karma = std::string(kind) == "karma";
        for (const bool on_chip : {true, false}) {
            for (const auto &[rs, vs] : cases) {
                Fixture f(pol);
                TxDesc *victim = f.sys.beginTx(0, f.dom0, vs.attempt);
                f.access(0, f.dom0, kLine, true);
                victim->overflowed = vs.overflowed;
                if (!on_chip) {
                    victim->writeSig.insert(kLine);
                    f.sys.l1(0).invalidate(lineAlign(kLine));
                    f.sys.llc().invalidate(lineAlign(kLine));
                }
                TxDesc *req = f.sys.beginTx(1, f.dom0, rs.attempt);
                req->overflowed = rs.overflowed;
                // On chip: a write hits the victim's directory entry.
                // Off chip: a read misses the LLC and hits its signature.
                f.access(1, f.dom0, kLine, on_chip);

                bool req_loses;
                if (karma && rs.attempt != vs.attempt)
                    req_loses = vs.attempt > rs.attempt;
                else if (rs.overflowed != vs.overflowed)
                    req_loses = vs.overflowed;
                else
                    req_loses = !on_chip;
                TxDesc *loser = req_loses ? req : victim;
                TxDesc *winner = req_loses ? victim : req;
                SCOPED_TRACE(std::string(kind) +
                             (on_chip ? " on chip" : " off chip") +
                             ": requester attempt " +
                             std::to_string(rs.attempt) +
                             (rs.overflowed ? " overflowed" : "") +
                             ", victim attempt " +
                             std::to_string(vs.attempt) +
                             (vs.overflowed ? " overflowed" : ""));
                EXPECT_TRUE(loser->abortRequested);
                EXPECT_FALSE(winner->abortRequested);
                EXPECT_EQ(loser->abortCause,
                          on_chip ? AbortCause::TrueConflictOnChip
                                  : AbortCause::TrueConflictOffChip);
                EXPECT_EQ(loser->abortedBy, winner->id);
            }
        }

        // Taking the fallback lock preempts the domain's fast path.
        Fixture f(pol);
        TxDesc *fast = f.sys.beginTx(0, f.dom0, 0);
        TxDesc *other = f.sys.beginTx(2, f.dom1, 0);
        TxDesc *slow = f.sys.beginSerializedTx(1, f.dom0, 0);
        EXPECT_TRUE(fast->abortRequested) << kind;
        EXPECT_EQ(fast->abortCause, std::string(kind) == "fixed"
                                        ? AbortCause::LockPreempt
                                        : AbortCause::Fallback)
            << kind;
        EXPECT_EQ(fast->abortedBy, slow->id) << kind;
        EXPECT_FALSE(other->abortRequested) << kind;
    }
}

TEST(Bounded, ChipEvictionCausesCapacityAbort)
{
    Fixture f(HtmPolicy::llcBounded());
    TxDesc *tx = f.sys.beginTx(0, f.dom0, 0);
    // Write enough distinct lines to overflow the tiny LLC (64KB).
    const std::uint64_t lines =
        f.sys.llc().capacityLines() + f.sys.llc().ways();
    for (std::uint64_t i = 0; i < lines && !tx->abortRequested; ++i)
        f.access(0, f.dom0, kLine + i * kLineBytes, true);
    EXPECT_TRUE(tx->abortRequested);
    EXPECT_EQ(tx->abortCause, AbortCause::Capacity);
}

TEST(Unbounded, ChipEvictionPopulatesSignaturesInstead)
{
    Fixture f(HtmPolicy::uhtmOpt(2048));
    TxDesc *tx = f.sys.beginTx(0, f.dom0, 0);
    const std::uint64_t lines =
        f.sys.llc().capacityLines() + f.sys.llc().ways();
    for (std::uint64_t i = 0; i < lines; ++i)
        f.access(0, f.dom0, kLine + i * kLineBytes, true);
    EXPECT_FALSE(tx->abortRequested);
    EXPECT_TRUE(tx->overflowed);
    EXPECT_FALSE(tx->writeSig.empty());
    EXPECT_GT(tx->undoRecords.size(), 0u)
        << "overflowed DRAM lines must be undo-logged";
    // And the whole thing still commits.
    const Tick done = f.sys.issueCommit(0);
    EXPECT_GT(done, 0u);
    EXPECT_EQ(f.sys.stats().commits, 1u);
}

TEST(Unbounded, NvmOverflowGoesToDramCache)
{
    Fixture f(HtmPolicy::uhtmOpt(2048));
    TxDesc *tx = f.sys.beginTx(0, f.dom0, 0);
    const Addr base = MemLayout::kNvmBase + 0x10000;
    const std::uint64_t lines =
        f.sys.llc().capacityLines() + f.sys.llc().ways();
    for (std::uint64_t i = 0; i < lines; ++i)
        f.access(0, f.dom0, base + i * kLineBytes, true);
    EXPECT_TRUE(tx->overflowed);
    // Early-evicted NVM lines are buffered uncommitted in the DRAM
    // cache; none may have reached the durable in-place image.
    bool found_uncommitted = false;
    f.sys.dramCache().forEach([&](DramCacheEntry &e) {
        if (e.tx == tx->id)
            found_uncommitted = true;
    });
    EXPECT_TRUE(found_uncommitted);
    BackingStore recovered = f.sys.recoverAfterCrash();
    EXPECT_EQ(recovered.read64(base), 0u)
        << "uncommitted overflow must not be durable";
}

} // namespace
} // namespace uhtm
