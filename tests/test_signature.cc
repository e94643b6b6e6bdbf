/**
 * @file
 * Bloom-signature tests: the no-false-negative property (the hardware
 * correctness requirement), clearing, and the saturation behaviour
 * behind the paper's signature-size sweep.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "htm/signature.hh"

namespace uhtm
{
namespace
{

class SignatureSizes : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(SignatureSizes, NeverForgetsInsertedLines)
{
    BloomSignature sig(GetParam(), 4);
    Rng rng(11);
    std::vector<Addr> inserted;
    // Far beyond saturation: correctness must hold regardless.
    for (int i = 0; i < 5000; ++i) {
        const Addr line = lineAlign(rng.next());
        sig.insert(line);
        inserted.push_back(line);
    }
    for (Addr line : inserted)
        EXPECT_TRUE(sig.mayContain(line));
}

TEST_P(SignatureSizes, ClearEmptiesTheFilter)
{
    BloomSignature sig(GetParam(), 4);
    sig.insert(0x1000);
    EXPECT_FALSE(sig.empty());
    sig.clear();
    EXPECT_TRUE(sig.empty());
    EXPECT_DOUBLE_EQ(sig.fillRatio(), 0.0);
    EXPECT_EQ(sig.inserts(), 0u);
}

TEST_P(SignatureSizes, FillRatioGrowsMonotonically)
{
    BloomSignature sig(GetParam(), 4);
    Rng rng(3);
    double prev = 0.0;
    for (int i = 0; i < 200; ++i) {
        sig.insert(lineAlign(rng.next()));
        const double fill = sig.fillRatio();
        EXPECT_GE(fill, prev);
        prev = fill;
    }
    EXPECT_GT(prev, 0.0);
    EXPECT_LE(prev, 1.0);
}

TEST_P(SignatureSizes, FalsePositiveRateTracksTheory)
{
    const unsigned bits = GetParam();
    BloomSignature sig(bits, 4);
    Rng rng(7);
    // Insert bits/16 lines: fill = 1 - exp(-4 * n / m) = ~22%.
    const unsigned n = bits / 16;
    std::unordered_set<Addr> members;
    for (unsigned i = 0; i < n; ++i) {
        const Addr line = lineAlign(rng.next());
        sig.insert(line);
        members.insert(line);
    }
    unsigned fp = 0, probes = 0;
    for (int i = 0; i < 20000; ++i) {
        const Addr line = lineAlign(rng.next());
        if (members.count(line))
            continue;
        ++probes;
        if (sig.mayContain(line))
            ++fp;
    }
    const double rate = static_cast<double>(fp) / probes;
    const double fill = sig.fillRatio();
    const double expect = fill * fill * fill * fill;
    EXPECT_NEAR(rate, expect, 0.02)
        << "fill=" << fill << " bits=" << bits;
}

INSTANTIATE_TEST_SUITE_P(PaperSizes, SignatureSizes,
                         ::testing::Values(512u, 1024u, 2048u, 4096u,
                                           16384u));

TEST(Signature, AllBytesOfALineMapTogether)
{
    BloomSignature sig(1024, 4);
    sig.insert(0x1000);
    // Any byte address within the same line must hit.
    EXPECT_TRUE(sig.mayContain(0x1000));
    EXPECT_TRUE(sig.mayContain(0x1008));
    EXPECT_TRUE(sig.mayContain(0x103f));
}

TEST(Signature, GeometryIsValidatedAndRoundedUp)
{
    // Non-power-of-two sizes round up (the bit-index mask requires a
    // power of two); sub-minimum sizes clamp to one 64-bit word.
    EXPECT_EQ(BloomSignature::effectiveBits(100), 128u);
    EXPECT_EQ(BloomSignature::effectiveBits(0), 64u);
    EXPECT_EQ(BloomSignature::effectiveBits(1), 64u);
    EXPECT_EQ(BloomSignature::effectiveBits(64), 64u);
    EXPECT_EQ(BloomSignature::effectiveBits(2048), 2048u);
    EXPECT_EQ(BloomSignature::effectiveBits(2049), 4096u);

    EXPECT_EQ(BloomSignature(100, 4).bits(), 128u);
    EXPECT_EQ(BloomSignature(0, 4).bits(), 64u);
    EXPECT_EQ(BloomSignature(2048, 4).bits(), 2048u);
    // Zero hash functions would make every probe a vacuous hit.
    EXPECT_EQ(BloomSignature(2048, 0).hashes(), 1u);

    // A rounded-up filter still works end to end.
    BloomSignature sig(100, 3);
    sig.insert(0x1000);
    EXPECT_TRUE(sig.mayContain(0x1000));
}

TEST(Signature, EmptyTracksInsertsExactly)
{
    BloomSignature sig(512, 4);
    EXPECT_TRUE(sig.empty());
    sig.insert(0x40);
    EXPECT_FALSE(sig.empty());
    EXPECT_EQ(sig.inserts(), 1u);
    sig.clear();
    EXPECT_TRUE(sig.empty());
    EXPECT_EQ(sig.inserts(), 0u);
}

TEST(Signature, UnionWithIsSupersetOfBothMembers)
{
    BloomSignature a(512, 4), b(512, 4), u(512, 4);
    Rng rng(17);
    std::vector<Addr> lines;
    for (int i = 0; i < 64; ++i) {
        const Addr line = lineAlign(rng.next());
        lines.push_back(line);
        (i & 1 ? a : b).insert(line);
    }
    u.unionWith(a);
    u.unionWith(b);
    for (Addr line : lines)
        EXPECT_TRUE(u.mayContain(line));
    EXPECT_EQ(u.inserts(), a.inserts() + b.inserts());

    // Union with an empty member is a no-op.
    BloomSignature e(512, 4);
    const std::uint64_t before = u.inserts();
    u.unionWith(e);
    EXPECT_EQ(u.inserts(), before);
}

/**
 * unionWith() has two code paths: a 4-word SIMD(-ish) loop over GNU
 * vector registers and a scalar tail. The parameter set pins filter
 * sizes that exercise each combination — 64 bits (1 word: scalar
 * only), 192 -> 256 effective (4 words: one vector iteration, no
 * tail), 320 -> 512 effective (8 words: two vector iterations). Both
 * paths must produce exactly the bits that element-wise insertion of
 * all members' lines would.
 */
class UnionPaths : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(UnionPaths, UnionMatchesElementwiseInsertion)
{
    const unsigned bits = GetParam();
    BloomSignature a(bits, 4), b(bits, 4), ref(bits, 4);
    Rng rng(23);
    std::vector<Addr> lines;
    for (int i = 0; i < 96; ++i) {
        const Addr line = lineAlign(rng.next());
        lines.push_back(line);
        (i & 1 ? a : b).insert(line);
        ref.insert(line);
    }

    BloomSignature u = a;
    u.unionWith(b);

    // Same geometry, same accounting, same fill.
    EXPECT_EQ(u.bits(), ref.bits());
    EXPECT_EQ(u.inserts(), ref.inserts());
    EXPECT_DOUBLE_EQ(u.fillRatio(), ref.fillRatio());
    // Identical membership answers for every inserted line and for a
    // large sample of arbitrary lines (equal positives AND equal
    // false-positive behaviour implies the bit vectors match).
    for (Addr line : lines)
        EXPECT_TRUE(u.mayContain(line));
    for (int i = 0; i < 4000; ++i) {
        const Addr line = lineAlign(rng.next());
        EXPECT_EQ(u.mayContain(line), ref.mayContain(line));
    }
}

INSTANTIATE_TEST_SUITE_P(VectorAndScalarPaths, UnionPaths,
                         ::testing::Values(64u, 192u, 320u));

TEST(SigProbe, MergesDuplicateWordsAtHighHashCounts)
{
    // kMaxHashes hashes into a one-word filter: every bit position
    // lands in word 0, so the probe must collapse to a single
    // (word, mask) pair rather than kMaxHashes redundant tests.
    const unsigned bits = BloomSignature::effectiveBits(64);
    const SigProbe p(lineAlign(0x1234560), bits, SigProbe::kMaxHashes);
    EXPECT_EQ(p.count(), 1u);
    EXPECT_EQ(p.wordAt(0), 0u);
    EXPECT_NE(p.maskAt(0), 0u);

    // Larger filters: still at most min(hashes, words) distinct
    // entries, each word index unique, total set bits <= hash count.
    Rng rng(31);
    for (unsigned raw : {128u, 256u, 1024u}) {
        const unsigned eb = BloomSignature::effectiveBits(raw);
        for (int i = 0; i < 64; ++i) {
            const Addr line = lineAlign(rng.next());
            const SigProbe probe(line, eb, SigProbe::kMaxHashes);
            EXPECT_LE(probe.count(),
                      std::min(SigProbe::kMaxHashes, eb / 64));
            unsigned set_bits = 0;
            for (unsigned j = 0; j < probe.count(); ++j) {
                EXPECT_LT(probe.wordAt(j), eb / 64);
                for (unsigned k = j + 1; k < probe.count(); ++k)
                    EXPECT_NE(probe.wordAt(j), probe.wordAt(k));
                set_bits += __builtin_popcountll(probe.maskAt(j));
            }
            EXPECT_GE(set_bits, 1u);
            EXPECT_LE(set_bits, SigProbe::kMaxHashes);
        }
    }
}

TEST(SigProbe, ProbeAndAddressPathsAgreeAtHighHashCounts)
{
    // Probe-based insert/test must be indistinguishable from the
    // address-based path, including in the duplicate-word regime.
    Rng rng(41);
    for (unsigned raw : {64u, 192u, 320u}) {
        const unsigned eb = BloomSignature::effectiveBits(raw);
        const unsigned hashes = SigProbe::kMaxHashes;
        BloomSignature via_probe(raw, hashes), via_addr(raw, hashes);
        std::vector<Addr> lines;
        for (int i = 0; i < 48; ++i) {
            const Addr line = lineAlign(rng.next());
            lines.push_back(line);
            via_probe.insert(SigProbe(line, eb, hashes));
            via_addr.insert(line);
        }
        EXPECT_EQ(via_probe.inserts(), via_addr.inserts());
        EXPECT_DOUBLE_EQ(via_probe.fillRatio(), via_addr.fillRatio());
        for (Addr line : lines) {
            EXPECT_TRUE(via_probe.mayContain(line));
            EXPECT_TRUE(
                via_probe.mayContain(SigProbe(line, eb, hashes)));
        }
        for (int i = 0; i < 2000; ++i) {
            const Addr line = lineAlign(rng.next());
            const SigProbe probe(line, eb, hashes);
            EXPECT_EQ(via_addr.mayContain(probe),
                      via_addr.mayContain(line));
            EXPECT_EQ(via_probe.mayContain(probe),
                      via_addr.mayContain(probe));
        }
    }
}

TEST(Signature, SaturatedFilterHitsEverything)
{
    BloomSignature sig(512, 4);
    Rng rng(9);
    for (int i = 0; i < 4000; ++i)
        sig.insert(lineAlign(rng.next()));
    EXPECT_GT(sig.fillRatio(), 0.99);
    unsigned hits = 0;
    for (int i = 0; i < 1000; ++i)
        hits += sig.mayContain(lineAlign(rng.next()));
    EXPECT_GT(hits, 950u) << "saturated filters are the paper's 99% case";
}

TEST(SigProbe, ResetMatchesFreshProbe)
{
    // One probe rebuilt in place across lines, filter sizes and hash
    // counts, from many hashes to few and back, must equal a freshly
    // built probe each time: reset() may keep nothing of the old one.
    Rng rng(53);
    std::vector<unsigned> counts;
    for (unsigned h = SigProbe::kMaxHashes; h >= 1; --h)
        counts.push_back(h);
    for (unsigned h = 2; h <= SigProbe::kMaxHashes; ++h)
        counts.push_back(h);
    SigProbe reused;
    for (unsigned raw : {64u, 128u, 1024u, 2048u, 8192u}) {
        const unsigned eb = BloomSignature::effectiveBits(raw);
        for (unsigned hashes : counts) {
            BloomSignature sig(raw, hashes);
            for (int i = 0; i < 40; ++i)
                sig.insert(lineAlign(rng.next()));
            for (int i = 0; i < 20; ++i) {
                const Addr line = lineAlign(rng.next());
                reused.reset(line, eb, hashes);
                const SigProbe fresh(line, eb, hashes);
                ASSERT_EQ(reused.bits(), fresh.bits());
                ASSERT_EQ(reused.count(), fresh.count());
                for (unsigned j = 0; j < fresh.count(); ++j) {
                    ASSERT_EQ(reused.wordAt(j), fresh.wordAt(j));
                    ASSERT_EQ(reused.maskAt(j), fresh.maskAt(j));
                }
                EXPECT_EQ(sig.mayContain(reused), sig.mayContain(fresh));
                EXPECT_EQ(sig.mayContain(reused), sig.mayContain(line));
            }
        }
    }
}

} // namespace
} // namespace uhtm
