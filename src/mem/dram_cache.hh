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

#include "mem/set_array.hh"
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

    /** Holds committed bytes that in-place NVM does not have yet. */
    bool
    committedDirty() const
    {
        return dirty && tx == kNoTx && !invalidated;
    }
};

/**
 * Set-associative DRAM cache over NVM lines: the slot store
 * (mem/set_array.hh) plus statistics and victim choice.
 *
 * The cache is passive: it chooses victims and keeps entries, and
 * writes nothing to NVM. Its owner inserts in two steps, like Cache:
 * victimFor() names the slot and what happens to the entry there, the
 * owner writes back or drops that entry in place, then install() hands
 * the slot to the new line.
 */
class DramCache : private SetArray<DramCacheEntry>
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
     * What giving a slot to a line does to the entry the slot holds.
     * The four evictions come first and carry the trace's
     * DramCacheEvict reason codes (obs::EvictReason).
     */
    enum class Victim : std::uint8_t
    {
        /** Committed dirty entry evicted: its bytes go to NVM. */
        WriteBack = 0,
        /** Live speculative entry evicted; the redo log keeps its
         *  bytes, which must never reach in-place NVM. */
        UncommittedDrop = 1,
        /** Aborted entry evicted silently. */
        InvalidatedDrop = 2,
        /** Committed clean entry evicted. */
        Clean = 3,
        /** A free way, or the line's own entry, kept as it is. */
        None,
        /** The line's own committed dirty entry, superseded by a
         *  speculative write: its bytes go to NVM first, or an abort
         *  of the writer would lose them. */
        Supersede,
    };

    /** Insertion step 1's answer: the slot and what befalls its entry. */
    struct Slot
    {
        DramCacheEntry *entry;
        Victim victim;

        /** The slot's entry belongs to another line and leaves. */
        bool evicts() const { return victim <= Victim::Clean; }
    };

    /** @throws std::invalid_argument on a bad geometry (setsFor). */
    DramCache(std::uint64_t size_bytes, unsigned ways);

    /** Find a live entry (valid and not invalidated). Counts hit/miss. */
    DramCacheEntry *lookup(Addr line_base);

    /** Find without statistics, including invalidated entries. */
    using SetArray::peek;

    /**
     * Insertion, step 1: the slot that (re)inserting @p line_base for
     * @p tx takes, and what that does to the entry there. The slot is
     * the line's own entry if present (even invalidated); else the
     * first free way; else the first invalidated entry in way order,
     * then the least recently used entry no transaction owns, then the
     * least recently used entry. Eviction and write-back statistics
     * are counted here. The entry is left intact so the caller can
     * write it back or drop it in place; the cache must not be used
     * again before install().
     */
    Slot victimFor(Addr line_base, TxId tx);

    /**
     * Insertion, step 2: give @p slot (from victimFor) to @p line_base,
     * owned by @p tx. The line's own entry is refreshed in place and
     * keeps its bytes (a superseded one stops being dirty); any other
     * entry is destroyed and a fresh one constructed.
     */
    DramCacheEntry &install(Slot slot, Addr line_base, TxId tx);

    /**
     * Commit a single entry of @p tx (overflow-list driven): store the
     * committed bytes and clear the owner id.
     * @retval true the entry was found and committed.
     */
    bool commitEntry(Addr line_base, TxId tx,
                     const std::array<std::uint8_t, kLineBytes> &data);

    /** Invalidate one entry of @p tx (overflow-list driven abort). */
    void invalidateEntry(Addr line_base, TxId tx);

    /** Mark committed dirty @p e written back (counted as one). */
    void
    clean(DramCacheEntry &e)
    {
        e.dirty = false;
        ++_stats.writeBacks;
    }

    using SetArray::capacityLines;
    using SetArray::forEach;
    const Stats &stats() const { return _stats; }

  private:
    Stats _stats;
};

} // namespace uhtm

#endif // UHTM_MEM_DRAM_CACHE_HH
