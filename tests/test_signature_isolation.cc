/**
 * @file
 * Signature-isolation property tests (paper Section IV-D).
 *
 * With per-process conflict domains and the signature-isolation
 * optimization enabled, an LLC miss is only checked against the
 * signatures of transactions in the *same* domain: cross-domain misses
 * must never raise conflicts (no CrossDomainFalse aborts, no signature
 * checks at all), while genuine same-domain conflicts with overflowed
 * transactions must still be detected through the signatures.
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

    explicit Fixture(HtmPolicy pol = HtmPolicy::uhtmOpt(512))
        : sys(eq, MachineConfig::tiny(), pol)
    {
        dom0 = sys.createDomain("p0");
        dom1 = sys.createDomain("p1");
    }

    AccessResult
    access(CoreId core, DomainId dom, Addr a, bool write)
    {
        auto r = sys.issueAccess(core, dom, a, write, false,
                                 write ? 0x99 : 0);
        eq.run();
        return r;
    }

    /** Force @p line off chip so the next touch is an LLC miss. */
    void
    forceOffChip(Addr line)
    {
        for (unsigned c = 0; c < sys.machine().cores; ++c)
            sys.l1(c).invalidate(lineAlign(line));
        sys.llc().invalidate(lineAlign(line));
    }
};

constexpr Addr kVictimLine = MemLayout::kDramBase + 0x40000;
constexpr Addr kFarBase = MemLayout::kDramBase + 0x900000;

TEST(SignatureIsolation, CrossDomainTxMissesNeverRaiseConflicts)
{
    Fixture f; // isolation on (uhtmOpt)
    TxDesc *victim = f.sys.beginTx(0, f.dom0, 0);
    victim->overflowed = true;
    Rng rng(17);
    for (int i = 0; i < 8000; ++i)
        victim->writeSig.insert(lineAlign(rng.next())); // saturated

    // A transactional worker of another process misses the LLC on many
    // lines; none of those checks may consult dom0's signatures.
    TxDesc *req = f.sys.beginTx(1, f.dom1, 0);
    for (int i = 0; i < 200; ++i)
        f.access(1, f.dom1, kFarBase + i * kLineBytes, i % 3 == 0);

    EXPECT_FALSE(req->abortRequested);
    EXPECT_FALSE(victim->abortRequested);
    EXPECT_EQ(f.sys.stats().sigChecks, 0u)
        << "isolation must filter candidates before any signature test";
    EXPECT_EQ(f.sys.stats().abortsOf(AbortCause::CrossDomainFalse), 0u);
}

TEST(SignatureIsolation, CrossDomainNonTxMissesNeverAbortVictim)
{
    Fixture f;
    TxDesc *victim = f.sys.beginTx(0, f.dom0, 0);
    victim->overflowed = true;
    Rng rng(23);
    for (int i = 0; i < 8000; ++i)
        victim->writeSig.insert(lineAlign(rng.next()));

    // Non-transactional background traffic from another process (the
    // paper's LLC-miss storm): with isolation it cannot touch dom0.
    for (int i = 0; i < 200; ++i)
        f.access(1, f.dom1, kFarBase + i * kLineBytes, true);

    EXPECT_FALSE(victim->abortRequested);
    EXPECT_EQ(f.sys.stats().sigChecks, 0u);
}

TEST(SignatureIsolation, WithoutIsolationSameTrafficAborts)
{
    // Control experiment: identical traffic with isolation disabled
    // must hit the saturated signature and abort the victim.
    Fixture f(HtmPolicy::uhtmSig(512));
    TxDesc *victim = f.sys.beginTx(0, f.dom0, 0);
    victim->overflowed = true;
    Rng rng(23);
    for (int i = 0; i < 8000; ++i)
        victim->writeSig.insert(lineAlign(rng.next()));

    for (int i = 0; i < 200 && !victim->abortRequested; ++i)
        f.access(1, f.dom1, kFarBase + i * kLineBytes, true);

    EXPECT_TRUE(victim->abortRequested);
    EXPECT_EQ(victim->abortCause, AbortCause::CrossDomainFalse);
    EXPECT_GT(f.sys.stats().sigChecks, 0u);
}

TEST(SignatureIsolation, SameDomainOverflowWriteDetectedByReader)
{
    Fixture f; // isolation on
    TxDesc *victim = f.sys.beginTx(0, f.dom0, 0);
    f.access(0, f.dom0, kVictimLine, true);
    victim->overflowed = true;
    victim->writeSig.insert(kVictimLine);
    f.forceOffChip(kVictimLine);

    // Same-domain reader misses the LLC: the signature check must
    // still fire and resolve requester-loses (Table II).
    TxDesc *req = f.sys.beginTx(1, f.dom0, 0);
    f.access(1, f.dom0, kVictimLine, false);

    EXPECT_TRUE(req->abortRequested);
    EXPECT_EQ(req->abortCause, AbortCause::TrueConflictOffChip);
    EXPECT_FALSE(victim->abortRequested);
    EXPECT_GT(f.sys.stats().sigChecks, 0u);
}

TEST(SignatureIsolation, SameDomainOverflowReadDetectedByWriter)
{
    Fixture f;
    TxDesc *victim = f.sys.beginTx(0, f.dom0, 0);
    f.access(0, f.dom0, kVictimLine, false);
    victim->overflowed = true;
    victim->readSig.insert(kVictimLine);
    f.forceOffChip(kVictimLine);

    // A same-domain writer conflicts with the overflowed reader.
    TxDesc *req = f.sys.beginTx(1, f.dom0, 0);
    f.access(1, f.dom0, kVictimLine, true);

    EXPECT_TRUE(req->abortRequested);
    EXPECT_EQ(req->abortCause, AbortCause::TrueConflictOffChip);
    EXPECT_FALSE(victim->abortRequested);
}

TEST(SignatureIsolation, IsolationSweepManyLines)
{
    // Property sweep: for a batch of random off-chip lines really in
    // the victim's write set, same-domain misses always conflict and
    // cross-domain misses never do.
    Fixture f;
    TxDesc *victim = f.sys.beginTx(0, f.dom0, 0);
    victim->overflowed = true;
    Rng rng(41);
    std::vector<Addr> lines;
    for (int i = 0; i < 32; ++i) {
        const Addr line =
            lineAlign(MemLayout::kDramBase + 0x200000 + i * 0x1000);
        lines.push_back(line);
        victim->writeSet.emplace(line);
        victim->writeSig.insert(line);
    }

    for (Addr line : lines) {
        // Cross-domain first (order matters: it must not abort anyone).
        f.access(1, f.dom1, line + 8, false);
        EXPECT_FALSE(victim->abortRequested) << "line " << line;
        f.forceOffChip(line);
    }
    EXPECT_EQ(f.sys.stats().sigChecks, 0u);

    TxDesc *req = f.sys.beginTx(2, f.dom0, 0);
    bool requester_hit = false;
    for (Addr line : lines) {
        f.access(2, f.dom0, line + 8, false);
        if (req->abortRequested) {
            requester_hit = true;
            break;
        }
    }
    EXPECT_TRUE(requester_hit)
        << "same-domain miss on a written line must conflict";
    EXPECT_FALSE(victim->abortRequested);
}

} // namespace
} // namespace uhtm
