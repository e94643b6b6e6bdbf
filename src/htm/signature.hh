/**
 * @file
 * Hardware address signatures (bloom filters) for off-chip conflict
 * detection.
 *
 * Each transaction owns a read signature and a write signature
 * (paper Section IV-D). UHTM inserts only LLC-overflowed lines and
 * checks only LLC-miss requests; the Signature-Only baseline inserts
 * every accessed line and checks every request, which is what saturates
 * the filter and produces the >99% false-positive abort rates the paper
 * reports.
 */

#ifndef UHTM_HTM_SIGNATURE_HH
#define UHTM_HTM_SIGNATURE_HH

#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/random.hh"
#include "sim/types.hh"

// Batched word ops use GNU vector extensions when available; every
// path has a portable scalar fallback.
#if defined(__GNUC__) || defined(__clang__)
#define UHTM_SIG_VEC 1
namespace uhtm
{
/** Four filter words processed per SIMD(-ish) operation. */
typedef std::uint64_t SigVec __attribute__((vector_size(32)));
} // namespace uhtm
#endif

namespace uhtm
{

/**
 * Shared hash-chain seed for one cache line. Both the per-signature
 * hash loop and the precomputed SigProbe derive their k bit positions
 * from splitmix64 of this seed; keeping the derivation in one place
 * guarantees probe and filter geometry can never silently diverge.
 * Hashes the line number, not the byte address, so all bytes of a line
 * map to the same filter bits.
 */
inline std::uint64_t
sigLineSeed(Addr line_base)
{
    return lineNumber(line_base) * 0x9e3779b97f4a7c15ull + 1;
}

/**
 * Precomputed membership probe for one cache line against a fixed
 * filter geometry (bits, hashes).
 *
 * The conflict walk tests the same line against many signatures (the
 * domain summary plus every candidate transaction's read and write
 * filters). Hashing the line once and merging the k bit positions into
 * at most k (word, mask) pairs turns each per-signature test into a few
 * masked whole-word compares — boolean-identical to the sequential
 * per-hash test, since conjunction order cannot change the result.
 */
class SigProbe
{
  public:
    /**
     * Upper bound on hash functions a probe can precompute: the largest
     * count any figure uses (the hash ablation's 8). HtmSystem rejects
     * a policy with more.
     */
    static constexpr unsigned kMaxHashes = 8;

    SigProbe() = default;

    /** Build the probe for @p line_base under (@p bits, @p hashes);
     *  @p bits must already be the effective (power-of-two) size. */
    SigProbe(Addr line_base, unsigned bits, unsigned hashes)
    {
        reset(line_base, bits, hashes);
    }

    /** Rebuild this probe in place, as SigProbe(@p line_base, @p bits,
     *  @p hashes) would build it: no temporary, no whole-object copy. */
    void
    reset(Addr line_base, unsigned bits, unsigned hashes)
    {
        assert(hashes <= kMaxHashes);
        _bits = bits;
        _count = 0;
        std::uint64_t h = sigLineSeed(line_base);
        for (unsigned i = 0; i < hashes; ++i) {
            const std::uint64_t bit = splitmix64(h) & (bits - 1);
            const std::uint32_t word =
                static_cast<std::uint32_t>(bit >> 6);
            const std::uint64_t mask = 1ull << (bit & 63);
            unsigned j = 0;
            for (; j < _count; ++j) {
                if (_words[j] == word) {
                    _masks[j] |= mask;
                    break;
                }
            }
            if (j == _count) {
                _words[_count] = word;
                _masks[_count] = mask;
                ++_count;
            }
        }
    }

    unsigned bits() const { return _bits; }
    unsigned count() const { return _count; }
    std::uint32_t wordAt(unsigned i) const { return _words[i]; }
    std::uint64_t maskAt(unsigned i) const { return _masks[i]; }

  private:
    unsigned _bits = 0;
    unsigned _count = 0;
    std::uint32_t _words[kMaxHashes];
    std::uint64_t _masks[kMaxHashes];
};

/**
 * A bloom-filter address signature over cache-line numbers.
 *
 * Uses k independent hash functions derived from splitmix64 of the line
 * number, mimicking the XOR-folded H3 hash arrays of hardware signature
 * proposals. The bit count is rounded up to a power of two of at least
 * 64 (the `& (_bits - 1)` index mask requires it); at least one hash
 * function is always used.
 */
class BloomSignature
{
  public:
    /** Smallest supported filter size (one 64-bit word). */
    static constexpr unsigned kMinBits = 64;

    /** Round @p bits up to a power of two no smaller than kMinBits. */
    static constexpr unsigned
    effectiveBits(unsigned bits)
    {
        unsigned b = bits < kMinBits ? kMinBits : bits;
        b--;
        b |= b >> 1;
        b |= b >> 2;
        b |= b >> 4;
        b |= b >> 8;
        b |= b >> 16;
        return b + 1;
    }

    /**
     * @param bits requested filter size in bits; rounded up to a power
     *        of two >= 64.
     * @param hashes number of hash functions (clamped to >= 1).
     */
    explicit BloomSignature(unsigned bits = 2048, unsigned hashes = 4)
        : _bits(effectiveBits(bits)), _hashes(hashes ? hashes : 1),
          _words(_bits / 64, 0)
    {
        assert((_bits & (_bits - 1)) == 0 && _bits >= kMinBits &&
               "bit-index mask requires a power-of-two filter size");
    }

    /** Insert the line containing @p line_base. */
    void
    insert(Addr line_base)
    {
        std::uint64_t h = seedFor(line_base);
        for (unsigned i = 0; i < _hashes; ++i) {
            const std::uint64_t bit = splitmix64(h) & (_bits - 1);
            _words[bit >> 6] |= 1ull << (bit & 63);
        }
        ++_inserts;
    }

    /** Possibly-present test (false positives possible, negatives not). */
    bool
    mayContain(Addr line_base) const
    {
        std::uint64_t h = seedFor(line_base);
        for (unsigned i = 0; i < _hashes; ++i) {
            const std::uint64_t bit = splitmix64(h) & (_bits - 1);
            if (!(_words[bit >> 6] & (1ull << (bit & 63))))
                return false;
        }
        return true;
    }

    /** Batched membership test with a precomputed probe (same result
     *  as mayContain(line) for the line the probe was built from). */
    bool
    mayContain(const SigProbe &p) const
    {
        assert(p.bits() == _bits && "probe/filter geometry mismatch");
        for (unsigned i = 0; i < p.count(); ++i) {
            const std::uint64_t m = p.maskAt(i);
            if ((_words[p.wordAt(i)] & m) != m)
                return false;
        }
        return true;
    }

    /** Insert the probe's line (same bits as insert(line)). */
    void
    insert(const SigProbe &p)
    {
        assert(p.bits() == _bits && "probe/filter geometry mismatch");
        for (unsigned i = 0; i < p.count(); ++i)
            _words[p.wordAt(i)] |= p.maskAt(i);
        ++_inserts;
    }

    /** Clear all bits (transaction commit/abort). */
    void
    clear()
    {
        __builtin_memset(_words.data(), 0,
                         _words.size() * sizeof(std::uint64_t));
        _inserts = 0;
    }

    /** True if no bits are set (O(1): insert is the only bit setter). */
    bool empty() const { return _inserts == 0; }

    /**
     * OR another signature of identical geometry into this one (used by
     * the TSS domain summary filters). Inserts are accumulated so
     * empty() stays exact.
     */
    void
    unionWith(const BloomSignature &o)
    {
        assert(o._bits == _bits && "summary/member geometry mismatch");
        if (o._inserts == 0)
            return;
        const std::size_t n = _words.size();
        std::size_t i = 0;
#ifdef UHTM_SIG_VEC
        // Whole-register ORs via GNU vector extensions; memcpy in and
        // out keeps the loads/stores alignment-agnostic.
        const std::size_t whole = n - n % 4;
        for (; i < whole; i += 4) {
            SigVec a, b;
            __builtin_memcpy(&a, &_words[i], sizeof(a));
            __builtin_memcpy(&b, &o._words[i], sizeof(b));
            a |= b;
            __builtin_memcpy(&_words[i], &a, sizeof(a));
        }
#endif
        for (; i < n; ++i)
            _words[i] |= o._words[i];
        _inserts += o._inserts;
    }

    /** Fraction of bits set (filter saturation). */
    double
    fillRatio() const
    {
        unsigned set = 0;
        for (auto w : _words)
            set += __builtin_popcountll(w);
        return static_cast<double>(set) / static_cast<double>(_bits);
    }

    unsigned bits() const { return _bits; }
    unsigned hashes() const { return _hashes; }
    std::uint64_t inserts() const { return _inserts; }

  private:
    static std::uint64_t
    seedFor(Addr line_base)
    {
        return sigLineSeed(line_base);
    }

    unsigned _bits;
    unsigned _hashes;
    std::vector<std::uint64_t> _words;
    std::uint64_t _inserts = 0;
};

} // namespace uhtm

#endif // UHTM_HTM_SIGNATURE_HH
