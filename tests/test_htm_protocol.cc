/**
 * @file
 * Protocol-detail tests: commit-protocol timing structure (durability
 * waits, overflow-list walks, commit marks), abort-protocol costs,
 * DRAM-cache interaction at commit, stale-metadata pruning, the
 * write-buffer read-your-own-writes semantics, the lost-update audit
 * at commit, the inclusion audit at transactional L1 hits, the L1
 * lines' LLC-slot hints and the signature-geometry limit.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "htm/tx_context.hh"

namespace uhtm
{
namespace
{

struct Fixture
{
    EventQueue eq;
    HtmSystem sys{eq, MachineConfig::tiny(), HtmPolicy::uhtmOpt(2048)};
    DomainId dom = sys.createDomain("p0");

    void
    access(CoreId core, Addr a, bool write, std::uint64_t v = 1)
    {
        sys.issueAccess(core, dom, a, write, false, v);
        eq.run();
    }
};

constexpr Addr kDram = MemLayout::kDramBase + 0x30000;
constexpr Addr kNvm = MemLayout::kNvmBase + 0x30000;

TEST(Protocol, ReadYourOwnWrites)
{
    Fixture f;
    f.sys.setupWrite64(kDram, 5);
    f.sys.beginTx(0, f.dom, 0);
    auto r1 = f.sys.issueAccess(0, f.dom, kDram, false, false, 0);
    f.eq.run();
    EXPECT_EQ(r1.data, 5u);
    f.access(0, kDram, true, 42);
    auto r2 = f.sys.issueAccess(0, f.dom, kDram, false, false, 0);
    f.eq.run();
    EXPECT_EQ(r2.data, 42u) << "reads must see the tx's own writes";
    EXPECT_EQ(f.sys.setupRead64(kDram), 5u)
        << "architectural state unchanged until commit";
    f.sys.issueCommit(0);
    f.eq.run();
    EXPECT_EQ(f.sys.setupRead64(kDram), 42u);
}

TEST(Protocol, LostUpdateAuditCountsAWriteBehindTheTransaction)
{
    Fixture f;
    f.sys.beginTx(0, f.dom, 0);
    f.access(0, kDram, true, 1);
    f.sys.issueCommit(0);
    f.eq.run();
    EXPECT_EQ(f.sys.stats().lostUpdates, 0u);

    // A store that bypasses conflict detection changes the line the
    // running transaction has written; its commit then overwrites an
    // update it never saw.
    f.sys.beginTx(0, f.dom, 0);
    f.access(0, kDram, true, 2);
    f.sys.setupWrite64(kDram, 3);
    f.sys.issueCommit(0);
    f.eq.run();
    EXPECT_EQ(f.sys.stats().lostUpdates, 1u);
    EXPECT_EQ(f.sys.setupRead64(kDram), 2u);
}

TEST(Protocol, InclusionAuditCountsAnL1HitWithNoLlcCopy)
{
    Fixture f;
    f.access(0, kDram, false, 0); // fills the L1 and the LLC
    f.sys.beginTx(0, f.dom, 0);
    f.access(0, kDram, false, 0);
    EXPECT_EQ(f.sys.stats().inclusionViolations, 0u);

    // Drop the LLC copy behind the L1's back: the next transactional
    // L1 hit finds no directory entry to record itself in.
    f.sys.llc().invalidate(lineAlign(kDram));
    f.access(0, kDram, false, 0);
    EXPECT_EQ(f.sys.stats().inclusionViolations, 1u);
}

TEST(Protocol, IsolationAcrossCores)
{
    Fixture f;
    f.sys.setupWrite64(kDram, 7);
    f.sys.beginTx(0, f.dom, 0);
    f.access(0, kDram, true, 99);
    // A tx on another DOMAIN (no conflict possible) reading a
    // different line sees no speculative state anywhere.
    const DomainId other = f.sys.createDomain("p1");
    auto r = f.sys.issueAccess(1, other, kDram + 0x1000, false, false, 0);
    f.eq.run();
    EXPECT_EQ(r.data, 0u);
    EXPECT_EQ(f.sys.setupRead64(kDram), 7u);
}

TEST(Protocol, DurableCommitWaitsForLogDurability)
{
    Fixture f;
    f.sys.beginTx(0, f.dom, 0);
    f.access(0, kNvm, true, 1);
    TxDesc *tx = f.sys.currentTx(0);
    const Tick horizon = tx->logsDurableAt;
    EXPECT_GT(horizon, 0u) << "the redo-log write must be in flight";
    const Tick done = f.sys.issueCommit(0);
    EXPECT_GT(done, horizon)
        << "commit completes only after all redo records are durable";
}

TEST(Protocol, VolatileCommitSkipsNvmWork)
{
    Fixture f;
    f.sys.beginTx(0, f.dom, 0);
    f.access(0, kDram, true, 1);
    const auto nvm_writes_before = f.sys.nvmCtrl().stats().writes;
    f.sys.issueCommit(0);
    f.eq.run();
    EXPECT_EQ(f.sys.nvmCtrl().stats().writes, nvm_writes_before)
        << "a DRAM-only transaction must not touch the NVM channel";
    EXPECT_EQ(f.sys.redoLog().stats().appends, 0u);
    EXPECT_EQ(f.sys.redoLog().stats().commits, 0u);
    EXPECT_EQ(f.sys.redoLog().bytesUsed(), 0u);
}

TEST(Protocol, CommitPublishesNvmWriteSetToDramCache)
{
    Fixture f;
    f.sys.beginTx(0, f.dom, 0);
    TxDesc *tx = f.sys.currentTx(0);
    f.access(0, kNvm, true, 0xbeef);
    const TxId id = tx->id;
    f.sys.issueCommit(0);
    f.eq.run();
    // The committed line sits in the DRAM cache as committed-dirty and
    // reaches the durable in-place image on eviction/flush.
    DramCacheEntry *e = f.sys.dramCache().peek(lineAlign(kNvm));
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->tx, kNoTx);
    EXPECT_TRUE(e->dirty);
    f.sys.flushDramCache();
    f.eq.run();
    EXPECT_EQ(f.sys.durableNvm().read64(kNvm), 0xbeefu);
    (void)id;
}

TEST(Protocol, AbortCostScalesWithUndoRecords)
{
    Fixture f;
    // Overflow many DRAM lines, then measure the abort duration.
    f.sys.beginTx(0, f.dom, 0);
    const std::uint64_t lines =
        f.sys.llc().capacityLines() * 3 / 2;
    for (std::uint64_t i = 0; i < lines; ++i)
        f.access(0, kDram + i * kLineBytes, true, 7);
    TxDesc *tx = f.sys.currentTx(0);
    const std::uint64_t records = tx->undoRecords.size();
    ASSERT_GT(records, 10u);
    f.sys.requestAbortForTest(tx);
    const Tick t0 = f.eq.now();
    const Tick done = f.sys.issueAbort(0);
    // Restore reads + writes per record through the DRAM controller.
    EXPECT_GT(done - t0, records * f.sys.machine().dramSlot)
        << "abort must pay for the undo restore";
    EXPECT_EQ(f.sys.undoLog().stats().restores, records);
    EXPECT_EQ(f.sys.undoLog().bytesUsed(), 0u);
}

TEST(Protocol, StaleDirectoryMarksArePrunedNotTrusted)
{
    Fixture f;
    f.sys.beginTx(0, f.dom, 0);
    f.access(0, kDram, true, 3);
    f.sys.issueCommit(0);
    f.eq.run();
    // The LLC line may retain the finished tx's mark; a new conflicting
    // access must prune it rather than abort anyone.
    f.sys.beginTx(1, f.dom, 0);
    f.access(1, kDram, true, 4);
    TxDesc *tx2 = f.sys.currentTx(1);
    EXPECT_FALSE(tx2->abortRequested)
        << "marks of finished transactions must be ignored";
    f.sys.issueCommit(1);
    f.eq.run();
    EXPECT_EQ(f.sys.setupRead64(kDram), 4u);
}

TEST(Protocol, FootprintAccountingCountsUnionOfSets)
{
    Fixture f;
    f.sys.beginTx(0, f.dom, 0);
    f.access(0, kDram, false);                  // read-only line
    f.access(0, kDram + kLineBytes, true, 1);   // write-only line
    f.access(0, kDram + kLineBytes, false);     // read a written line
    TxDesc *tx = f.sys.currentTx(0);
    EXPECT_EQ(tx->footprintBytes(), 2 * kLineBytes)
        << "read+write of one line counts once";
    EXPECT_EQ(tx->reads, 2u);
    EXPECT_EQ(tx->writes, 1u);
}

/**
 * First L1 line on any core whose directory line is missing or sits in
 * another LLC slot than the line's hint says, described; "" if none.
 */
std::string
staleSlotHint(HtmSystem &sys)
{
    Cache &llc = sys.llc();
    std::ostringstream bad;
    for (CoreId c = 0; c < sys.machine().cores && bad.tellp() == 0; ++c) {
        sys.l1(c).forEachLine([&](CacheLine &cl) {
            if (bad.tellp() != 0)
                return;
            const CacheLine *dir = llc.peek(cl.tag);
            if (!dir || cl.sharers != llc.slotOf(*dir) ||
                llc.atSlot(cl.sharers, cl.tag) != dir)
                bad << "core " << c << " line 0x" << std::hex << cl.tag
                    << std::dec << ": hint " << cl.sharers << ", LLC slot "
                    << (dir ? std::to_string(llc.slotOf(*dir)) : "none");
        });
    }
    return bad.str();
}

TEST(L1SlotHint, MatchesDirectoryUnderRandomTraffic)
{
    // Each L1 line remembers the LLC slot of its directory line, and
    // the L1-eviction and suspend paths look there first. Random
    // concurrent transactions (commits, aborts, a suspend/resume flush,
    // non-transactional traffic, tx-aware LLC replacement) must never
    // leave a hint that misses its line.
    MachineConfig cfg = MachineConfig::tiny();
    cfg.txAwareReplacement = true;
    EventQueue eq;
    HtmSystem sys(eq, cfg, HtmPolicy::uhtmOpt(2048));
    const DomainId dom = sys.createDomain("p0");
    // Twice the LLC's lines in each region: both caches keep evicting.
    const std::uint64_t span = 2 * sys.llc().capacityLines();
    Rng rng(17);
    TxId parked = kNoTx;

    for (int step = 0; step < 12000; ++step) {
        const CoreId core = static_cast<CoreId>(rng.below(cfg.cores));
        const std::uint64_t r = rng.below(1000);
        if (sys.abortPending(core)) {
            sys.issueAbort(core);
        } else if (!sys.currentTx(core) && parked != kNoTx && r < 20) {
            sys.resumeTx(core, parked);
            parked = kNoTx;
        } else if (!sys.currentTx(core) && r < 700) {
            sys.beginTx(core, dom, 0);
        } else if (sys.currentTx(core) && parked == kNoTx && r < 4) {
            parked = sys.suspendTx(core);
        } else if (sys.currentTx(core) && r < (core == 0 ? 6 : 60)) {
            sys.issueCommit(core); // core 0 runs long, overflowing txs
        } else {
            const Addr region = rng.below(2) ? MemLayout::kDramBase
                                             : MemLayout::kNvmBase;
            sys.issueAccess(core, dom,
                            region + 0x40000 + rng.below(span) * kLineBytes,
                            rng.below(3) == 0, false, rng.next());
        }
        eq.run();
        ASSERT_EQ(staleSlotHint(sys), "") << "after step " << step;
    }

    // The traffic reached every path the hint has to survive.
    const HtmStats &st = sys.stats();
    EXPECT_GT(st.commits, 0u);
    EXPECT_GT(st.totalAborts(), 0u);
    EXPECT_GT(st.contextSwitches, 0u);
    EXPECT_GT(st.llcTxEvictions, 0u);
    EXPECT_GT(sys.llc().stats().evictions, 0u);
    for (CoreId c = 0; c < cfg.cores; ++c)
        EXPECT_GT(sys.l1(c).stats().evictions, 0u) << "core " << c;
}

TEST(SignatureGeometry, MoreHashesThanAProbeHoldsAreRejected)
{
    // A SigProbe holds kMaxHashes (word, mask) pairs; the machine must
    // refuse a policy that would overrun them, in every build type.
    for (HtmPolicy pol :
         {HtmPolicy::uhtmOpt(2048), HtmPolicy::signatureOnly(2048),
          HtmPolicy::ideal()}) {
        EventQueue eq;
        pol.signatureHashes = SigProbe::kMaxHashes + 1;
        try {
            HtmSystem sys(eq, MachineConfig::tiny(), pol);
            ADD_FAILURE() << "accepted " << pol.signatureHashes << " hashes";
        } catch (const std::invalid_argument &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find(std::to_string(pol.signatureHashes)),
                      std::string::npos)
                << what;
        }
        // The limit itself is accepted and works.
        pol.signatureHashes = SigProbe::kMaxHashes;
        HtmSystem sys(eq, MachineConfig::tiny(), pol);
        const DomainId dom = sys.createDomain("p0");
        sys.beginTx(0, dom, 0);
        sys.issueAccess(0, dom, kNvm, true, false, 9);
        eq.run();
        sys.issueCommit(0);
        eq.run();
        EXPECT_EQ(sys.setupRead64(kNvm), 9u);
    }
}

} // namespace
} // namespace uhtm
