/**
 * @file
 * DRAM cache in front of NVM (the hardware-logging substrate of [28]).
 *
 * The DRAM cache sits between the LLC and the NVM controller. It plays
 * three roles from the paper (Section IV-B):
 *   1. buffers "early-evicted" (LLC-overflowed) transactional NVM lines
 *      so that uncommitted data never reaches in-place NVM locations;
 *   2. replaces NVM redo-log searches with faster DRAM lookups;
 *   3. lazily updates in-place NVM data when committed lines are
 *      evicted, off the commit critical path.
 *
 * Entries carry the committed line bytes so eviction writes exactly the
 * value that committed (this is what makes crash recovery exact; see
 * DESIGN.md). Uncommitted entries are marked with their transaction id
 * and flipped to invalid by the abort protocol's invalidate bit.
 */

#ifndef UHTM_MEM_DRAM_CACHE_HH
#define UHTM_MEM_DRAM_CACHE_HH

#include <array>
#include <cstdint>
#include <string>
#include <type_traits>

#include "check/persist_probe.hh"
#include "mem/lru_order.hh"
#include "sim/function_ref.hh"
#include "sim/reuse_alloc.hh"
#include "sim/types.hh"

namespace uhtm
{

/** One DRAM-cache entry for an NVM line. */
struct DramCacheEntry
{
    Addr tag = 0;
    /** Holds committed data that must eventually reach in-place NVM. */
    bool dirty = false;
    /** Uncommitted owner transaction; kNoTx once committed. */
    TxId tx = kNoTx;
    /** Abort protocol sets this instead of eagerly clearing the entry. */
    bool invalidated = false;
    /** Committed line bytes (valid when dirty and tx == kNoTx). */
    std::array<std::uint8_t, kLineBytes> data{};
};
static_assert(std::is_trivially_destructible_v<DramCacheEntry>);

/**
 * Set-associative DRAM cache over NVM lines.
 *
 * As in Cache, the tag array is the only record of which slots hold an
 * entry: entry storage is raw and recycled (sim/reuse_alloc.hh), an
 * entry is constructed by insert() and destroyed when it is evicted,
 * so building the cache writes only its tags and its per-set recency
 * words (mem/lru_order.hh).
 *
 * The owner wires up @c writeBack, called when a committed dirty entry
 * is evicted and its bytes must be written to in-place NVM (durable
 * image + NVM controller timing).
 */
class DramCache
{
  public:
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        std::uint64_t uncommittedDrops = 0;
        std::uint64_t writeBacks = 0;
        std::uint64_t invalidations = 0;
    };

    /**
     * Callback: write @p data to in-place NVM at @p line_base.
     * Non-owning (FunctionRef): eviction write-backs are a hot path and
     * pay one direct indirect call, no std::function dispatch or
     * capture storage. The referenced callable must outlive the cache's
     * use of it (HtmSystem binds itself; tests bind named locals).
     */
    using WriteBackFn =
        FunctionRef<void(Addr line_base,
                         const std::array<std::uint8_t, kLineBytes> &)>;

    /** @throws std::invalid_argument on a bad geometry (ways outside
     *          [1, kLruMaxWays], or less than one set). */
    DramCache(std::uint64_t size_bytes, unsigned ways);

    /** Install the in-place write-back hook (non-owning). */
    void setWriteBack(WriteBackFn fn) { _writeBack = fn; }

    /**
     * Observation hook fired on every eviction with the victim line
     * and an obs::EvictReason code. Purely diagnostic: must not touch
     * simulated state. Non-owning, same lifetime rule as WriteBackFn.
     */
    using EvictHookFn = FunctionRef<void(Addr line_base, int reason)>;

    void setEvictHook(EvictHookFn fn) { _evictHook = fn; }

    /** Attach a persistence probe (write-backs and drops). */
    void setProbe(PersistProbe *probe) { _probe = probe; }

    /** Find a live entry (valid and not invalidated). Counts hit/miss. */
    DramCacheEntry *lookup(Addr line_base);

    /** Find without statistics, including invalidated entries. */
    DramCacheEntry *peek(Addr line_base);

    /**
     * Insert (or refresh) an entry for @p line_base.
     * Eviction of a committed dirty victim triggers the write-back
     * callback; eviction of an uncommitted victim just drops it (its
     * data is recoverable from the redo log) and is counted.
     */
    DramCacheEntry *insert(Addr line_base, TxId tx);

    /**
     * Commit a single entry of @p tx (overflow-list driven): store the
     * committed bytes and clear the owner id.
     * @retval true the entry was found and committed.
     */
    bool commitEntry(Addr line_base, TxId tx,
                     const std::array<std::uint8_t, kLineBytes> &data);

    /** Invalidate one entry of @p tx (overflow-list driven abort). */
    void invalidateEntry(Addr line_base, TxId tx);

    /** Flush every committed dirty entry to in-place NVM (tests). */
    void flushAll();

    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (std::size_t i = 0; i < _tags.size(); ++i)
            if (_tags[i] != kInvalidTag)
                fn(_entries[i]);
    }

    const Stats &stats() const { return _stats; }
    std::uint64_t capacityLines() const { return _numSets * _ways; }

  private:
    /** _tags sentinel; never a line-aligned address. */
    static constexpr Addr kInvalidTag = ~Addr(0);

    std::uint64_t setIndex(Addr line_base) const;
    /** Mark the live entry @p e most recently used. */
    void touch(const DramCacheEntry &e);
    void evict(DramCacheEntry &victim);

    unsigned _ways;
    std::uint64_t _numSets;
    /** Entry slots; slot i holds a live entry iff _tags[i] is valid.
     *  Entries are trivially destructible, so ~DramCache destroys none. */
    ReuseArray<DramCacheEntry> _entries;
    /** Tag of each slot, kInvalidTag when free: the validity record,
     *  and what a set probe scans, a few contiguous words instead of
     *  96-byte entries (matters at 64 MiB capacity where probed sets
     *  are cold in the host cache). */
    ReuseArray<Addr> _tags;
    /** Recency order of each set, one word per set. */
    ReuseArray<std::uint64_t> _order;
    WriteBackFn _writeBack;
    EvictHookFn _evictHook;
    PersistProbe *_probe = nullptr;
    Stats _stats;
};

} // namespace uhtm

#endif // UHTM_MEM_DRAM_CACHE_HH
