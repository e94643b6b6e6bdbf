/**
 * @file
 * Set-associative cache tag/metadata array.
 *
 * Caches in this simulator are timing + metadata only: the functional
 * bytes live in the BackingStore and per-transaction write buffers. A
 * cache line therefore carries a tag, dirty bit, transactional
 * read/write markers and — for the shared LLC, which embeds the
 * directory — sharer/owner tracking with the paper's Tx-bit, Tx-Owner
 * and Tx-Sharer fields (Section IV-D). An L1 line reuses the sharer
 * field to remember which LLC slot holds its directory line.
 */

#ifndef UHTM_MEM_CACHE_HH
#define UHTM_MEM_CACHE_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "mem/set_array.hh"
#include "sim/small_vec.hh"
#include "sim/types.hh"

namespace uhtm
{

/**
 * Metadata of one cache line. The directory fields (sharers,
 * ownerCore) belong to the LLC; in an L1, sharers holds the LLC slot
 * of the line's directory entry instead (see Cache::atSlot).
 *
 * Exactly one aligned host cache line, so the LLC's victim costs one
 * host miss and BurstOp can prefetch it with one prefetch.
 */
struct alignas(64) CacheLine
{
    /** Line base address. */
    Addr tag = 0;

    /**
     * Transaction that speculatively wrote this line (kNoTx if none).
     * In an L1 this is the local running transaction; in the LLC it is
     * the directory's Tx-Owner field.
     */
    TxId txWriter = kNoTx;

    /**
     * Transactions that transactionally read this line (directory
     * Tx-Sharer list; in an L1 at most the local transaction).
     * Small-buffer optimized: nearly all lines have <= 2 transactional
     * readers, so the common case never heap-allocates.
     */
    SmallVec<TxId, 2> txReaders;

    /**
     * Directory: bitmask of cores holding an L1 copy. In an L1: the
     * LLC slot of this line's directory entry, a hint for
     * Cache::atSlot set when the L1 copy is filled or upgraded.
     */
    std::uint64_t sharers = 0;

    /** Directory: core whose L1 holds the line modified (exclusive). */
    CoreId ownerCore = kNoCore;

    bool dirty = false;

    /** L1 only: the copy has write permission (MESI E/M). */
    bool exclusive = false;

    /** Paper's Tx-bit: set when any transactional metadata is present. */
    bool
    txBit() const
    {
        return txWriter != kNoTx || !txReaders.empty();
    }

    /** True if transaction @p tx is registered as a reader. */
    bool
    hasTxReader(TxId tx) const
    {
        for (TxId r : txReaders)
            if (r == tx)
                return true;
        return false;
    }

    /** Register @p tx as a transactional reader (idempotent). */
    void
    addTxReader(TxId tx)
    {
        if (!hasTxReader(tx))
            txReaders.push_back(tx);
    }

    /** Remove transaction @p tx from the reader list. */
    void
    removeTxReader(TxId tx)
    {
        for (std::size_t i = 0; i < txReaders.size(); ++i) {
            if (txReaders[i] == tx) {
                txReaders[i] = txReaders.back();
                txReaders.pop_back();
                return;
            }
        }
    }

    /** Drop all transactional metadata (on commit/abort cleanup). */
    void
    clearTxMeta()
    {
        txWriter = kNoTx;
        txReaders.clear();
    }
};
static_assert(sizeof(CacheLine) == 64, "a CacheLine fills one host line");

/**
 * A set-associative cache of CacheLines with LRU replacement: the slot
 * store (mem/set_array.hh) plus statistics and victim choice.
 *
 * By default victim selection is transaction-agnostic LRU, as in real
 * cache hierarchies — which is precisely why co-running applications
 * evict transactional lines and cause capacity overflows (paper
 * Section III-C). An optional tx-aware mode prefers non-transactional
 * victims (evaluated as an ablation).
 */
class Cache : private SetArray<CacheLine>
{
  public:
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        std::uint64_t txEvictions = 0;
        /** Evictions of NVM-region lines (workload data). */
        std::uint64_t evictionsNvm = 0;
    };

    /**
     * @param name names the cache in a geometry error.
     * @param size_bytes total capacity.
     * @param ways associativity, 1 to kLruMaxWays.
     * @param tx_aware_replacement prefer non-transactional victims.
     * @throws std::invalid_argument on a bad geometry.
     */
    Cache(const std::string &name, std::uint64_t size_bytes, unsigned ways,
          bool tx_aware_replacement = false);

    /** Find the line holding @p line_base, or nullptr. Counts hit/miss. */
    CacheLine *lookup(Addr line_base);

    using SetArray::atSlot;
    using SetArray::capacityLines;
    using SetArray::drop;
    using SetArray::numSets;
    using SetArray::peek;
    using SetArray::prefetchSlot;
    using SetArray::prefetchVictim;
    using SetArray::slotOf;
    using SetArray::touch;
    using SetArray::ways;

    /**
     * The line at the LRU end of @p line_base's set, or nullptr while
     * the set has a free way: the victim allocating @p line_base would
     * pick in a transaction-agnostic cache. Changes no state.
     */
    const CacheLine *
    lruLineFor(Addr line_base) const
    {
        return freeWay(line_base) ? nullptr : &lru(line_base);
    }

    /**
     * Allocation, step 1: choose and return the victim way
     * for @p line_base (which must not be present). Eviction statistics
     * are counted here; the slot's old contents are left intact so the
     * caller can process the eviction in place, then hand the slot to
     * install(). @p had_victim reports whether the slot held a valid
     * line. The cache must not be used for lookups or allocations
     * between victimFor() and install().
     */
    CacheLine *victimFor(Addr line_base, bool &had_victim);

    /** Allocation, step 2: SetArray::install. */
    using SetArray::install;

    /** Invalidate @p line_base if present. */
    void
    invalidate(Addr line_base)
    {
        if (CacheLine *line = peek(line_base))
            drop(*line);
    }

    /**
     * Invoke @p fn on every valid line (tests, scans), in slot order
     * (SetArray::forEach). Callers whose side effects must not depend
     * on cache geometry (e.g. anything feeding the deterministic bench
     * JSON) use forEachLineSorted instead.
     */
    template <typename Fn>
    void
    forEachLine(Fn &&fn)
    {
        forEach(fn);
    }

    /**
     * Invoke @p fn on every valid line in ascending address (tag)
     * order. Canonical: the visit order is a pure function of the set
     * of resident lines, independent of sets/ways/LRU history. @p fn
     * may mutate or drop() the visited line, but must not allocate or
     * invalidate other lines.
     */
    template <typename Fn>
    void
    forEachLineSorted(Fn &&fn)
    {
        std::vector<CacheLine *> valid;
        forEach([&valid](CacheLine &cl) { valid.push_back(&cl); });
        std::sort(valid.begin(), valid.end(),
                  [](const CacheLine *a, const CacheLine *b) {
                      return a->tag < b->tag;
                  });
        for (CacheLine *line : valid)
            fn(*line);
    }

    const Stats &stats() const { return _stats; }

  private:
    bool _txAware;
    Stats _stats;
};

} // namespace uhtm

#endif // UHTM_MEM_CACHE_HH
