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

#include "mem/layout.hh"
#include "mem/lru_order.hh"
#include "sim/reuse_alloc.hh"
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
 * A set-associative tag array with LRU replacement.
 *
 * Each set's recency order is one word of _order (mem/lru_order.hh),
 * so the LRU way is known without reading the set's lines, and
 * prefetchVictim() can fetch it ahead of the access that evicts it.
 *
 * The tag array is the only record of which slots hold a line. Line
 * storage is raw and recycled (sim/reuse_alloc.hh): a slot is
 * constructed by install() and destroyed by drop(), invalidate(),
 * eviction (install() over a victim) and ~Cache, so building a cache
 * writes only its tags. Code outside the cache that removes a line
 * must call drop(), never clear the line in place.
 *
 * By default victim selection is transaction-agnostic LRU, as in real
 * cache hierarchies — which is precisely why co-running applications
 * evict transactional lines and cause capacity overflows (paper
 * Section III-C). An optional tx-aware mode prefers non-transactional
 * victims (evaluated as an ablation).
 */
class Cache
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
     * @param name for reports.
     * @param size_bytes total capacity.
     * @param ways associativity, 1 to kLruMaxWays.
     * @param tx_aware_replacement prefer non-transactional victims.
     * @throws std::invalid_argument on a bad geometry.
     */
    Cache(std::string name, std::uint64_t size_bytes, unsigned ways,
          bool tx_aware_replacement = false);
    ~Cache();

    /** Find the line holding @p line_base, or nullptr. Counts hit/miss. */
    CacheLine *lookup(Addr line_base);

    /** Find without touching statistics or LRU. */
    CacheLine *peek(Addr line_base);
    const CacheLine *peek(Addr line_base) const;

    /**
     * peek(@p line_base), tried first at @p slot: an earlier slotOf()
     * of the line, which may be stale. A stale hint costs a set search,
     * never a wrong answer.
     */
    CacheLine *
    atSlot(std::size_t slot, Addr line_base)
    {
        if (slot < _tags.size() && _tags[slot] == line_base)
            return &_lines[slot];
        return peek(line_base);
    }

    /** Slot of the resident @p line, valid until it leaves the cache. */
    std::size_t
    slotOf(const CacheLine &line) const
    {
        return static_cast<std::size_t>(&line - _lines.data());
    }

    /**
     * The line at the LRU end of @p line_base's set, or nullptr while
     * the set has a free way: the victim allocating @p line_base would
     * pick in a transaction-agnostic cache. Changes no state.
     */
    const CacheLine *
    lruLineFor(Addr line_base) const
    {
        const std::uint64_t set = setIndex(line_base);
        const Addr *tags = &_tags[set * _ways];
        for (unsigned w = 0; w < _ways; ++w)
            if (tags[w] == kInvalidTag)
                return nullptr;
        return &_lines[set * _ways + lruWayAt(_order[set], _ways - 1)];
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

    /**
     * Allocation, step 2: destroy the victim (if any), then
     * construct, tag and touch a fresh line in @p slot.
     */
    void install(CacheLine *slot, Addr line_base);

    /** Mark @p line most recently used. */
    void
    touch(const CacheLine &line)
    {
        const std::uint64_t set = setIndex(line.tag);
        touchWay(set, static_cast<unsigned>(slotOf(line) - set * _ways));
    }

    /**
     * Prefetch into the host cache what allocating @p line_base would
     * read: the set's tags and the line at the set's LRU end (the
     * victim unless a way is free or, tx-aware, the LRU line is
     * transactional). Changes no simulated state.
     *
     * Always inlined: GCC counts a prefetch as no side effect, so it
     * would treat an out-of-line call as pure and delete it.
     */
    [[gnu::always_inline]] void
    prefetchVictim(Addr line_base) const
    {
        const std::uint64_t set = setIndex(line_base);
        const Addr *tags = &_tags[set * _ways];
        for (unsigned w = 0; w < _ways; w += kLineBytes / sizeof(Addr))
            __builtin_prefetch(tags + w);
        __builtin_prefetch(
            &_lines[set * _ways + lruWayAt(_order[set], _ways - 1)]);
    }

    /**
     * Prefetch what atSlot(@p slot, ...) reads when the hint is right:
     * the slot's tag and line. Ignores an out-of-range @p slot.
     * Always inlined, as prefetchVictim().
     */
    [[gnu::always_inline]] void
    prefetchSlot(std::size_t slot) const
    {
        if (slot < _tags.size()) {
            __builtin_prefetch(&_tags[slot]);
            __builtin_prefetch(&_lines[slot]);
        }
    }

    /** Invalidate @p line_base if present. */
    void invalidate(Addr line_base);

    /** Remove the resident @p line (a reference this cache handed out). */
    void drop(CacheLine &line);

    /**
     * Invoke @p fn on every valid line (tests, scans). @p fn may mutate
     * or drop() the visited line, but must not allocate or invalidate
     * other lines.
     *
     * Ordering contract: lines are visited in physical layout order
     * (set-major, then way) — deterministic for a fixed operation
     * history, but dependent on placement and replacement decisions.
     * Callers whose side effects must not depend on cache geometry
     * (e.g. anything feeding the deterministic bench JSON) use
     * forEachLineSorted instead.
     */
    template <typename Fn>
    void
    forEachLine(Fn &&fn)
    {
        for (std::size_t i = 0; i < _tags.size(); ++i)
            if (_tags[i] != kInvalidTag)
                fn(_lines[i]);
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
        for (std::size_t i = 0; i < _tags.size(); ++i)
            if (_tags[i] != kInvalidTag)
                valid.push_back(&_lines[i]);
        std::sort(valid.begin(), valid.end(),
                  [](const CacheLine *a, const CacheLine *b) {
                      return a->tag < b->tag;
                  });
        for (CacheLine *line : valid)
            fn(*line);
    }

    unsigned ways() const { return _ways; }
    std::uint64_t numSets() const { return _numSets; }
    std::uint64_t capacityLines() const { return _numSets * _ways; }
    const Stats &stats() const { return _stats; }
    const std::string &name() const { return _name; }

  private:
    /** _tags sentinel; never a line-aligned address. */
    static constexpr Addr kInvalidTag = ~Addr(0);

    std::uint64_t
    setIndex(Addr line_base) const
    {
        return lineNumber(line_base) & (_numSets - 1);
    }
    /** Way of @p set holding @p line_base, or _ways if none. */
    unsigned wayOf(std::uint64_t set, Addr line_base) const;
    void
    touchWay(std::uint64_t set, unsigned way)
    {
        // Repeated hits to one line find it at rank 0 already; skip
        // the store then.
        const std::uint64_t order = _order[set];
        if (lruWayAt(order, 0) != way)
            _order[set] = lruTouch(order, way);
    }

    std::string _name;
    unsigned _ways;
    bool _txAware;
    std::uint64_t _numSets;
    /** Line slots; slot i holds a live CacheLine iff _tags[i] is valid. */
    ReuseArray<CacheLine> _lines;
    /**
     * Tag of each slot, kInvalidTag when free: the validity record, and
     * what peek() scans, so a set probe touches a few contiguous words
     * instead of whole CacheLines.
     */
    ReuseArray<Addr> _tags;
    /** Recency order of each set, one word per set (mem/lru_order.hh). */
    ReuseArray<std::uint64_t> _order;
    Stats _stats;
};

} // namespace uhtm

#endif // UHTM_MEM_CACHE_HH
