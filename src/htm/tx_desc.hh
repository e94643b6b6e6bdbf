/**
 * @file
 * Per-transaction runtime state (descriptor) and the transaction status
 * structure (TSS).
 *
 * The TSS is the paper's global structure tracking every running
 * transaction: id, abortion flag, overflow bit (Section IV-E). The
 * descriptor additionally holds the simulator-side state: precise
 * read/write sets (ground truth for false-positive classification and
 * the Ideal system; each write-set record also holds the line's
 * speculative image, the write buffer of functional isolation, and for
 * an NVM line is the transaction's redo record of it), its undo
 * records, address signatures, the overflow list, and statistics.
 */

#ifndef UHTM_HTM_TX_DESC_HH
#define UHTM_HTM_TX_DESC_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "htm/config.hh"
#include "htm/signature.hh"
#include "mem/undo_log.hh"
#include "sim/arena.hh"
#include "sim/line_map.hh"
#include "sim/types.hh"

namespace uhtm
{

/** Lifecycle states of a transaction. */
enum class TxStatus
{
    Running,
    Committing,
    Committed,
    Aborted,
};

/** One written line of a transaction. */
struct LineWrite
{
    /** Speculative full-line image. */
    std::array<std::uint8_t, kLineBytes> image{};
    /** Architectural image at the first write (lost-update audit: if
     *  the line changed under us without a conflict abort, the
     *  isolation protocol has a hole). */
    std::array<std::uint8_t, kLineBytes> preImage{};
    /** When the line's log record is durable; 0 while the line has no
     *  record. NVM line: its redo record, created by the first store;
     *  a write coalesced into the record is durable only once every
     *  earlier write is, so this is the latest completion over the
     *  line's log writes. DRAM line: its undo record, created by the
     *  line's first LLC eviction. */
    Tick durableAt = 0;
};

/** Per-transaction runtime state. */
struct TxDesc
{
    /** Descriptors are recycled through the job arena's size classes. */
    static void *operator new(std::size_t n) { return arenaNew(n); }
    static void operator delete(void *p) noexcept { arenaDelete(p); }

    TxId id = kNoTx;
    CoreId core = kNoCore;
    DomainId domain = 0;
    TxStatus status = TxStatus::Running;

    /** Serialized slow-path execution (holds the domain lock). */
    bool serialized = false;

    /** TSS overflow bit: some line left the on-chip caches. */
    bool overflowed = false;

    /** TSS abortion flag, set by conflict resolution. */
    bool abortRequested = false;
    AbortCause abortCause = AbortCause::None;
    /** Transaction that won the conflict (kNoTx for capacity/lock). */
    TxId abortedBy = kNoTx;

    /** Retry count of the logical operation this attempt belongs to. */
    int attempt = 0;

    Tick beginTick = 0;

    /** When the first line left the on-chip caches (0 = never). */
    Tick overflowTick = 0;

    /** Precise read set (line base addresses), insertion-ordered. */
    LineSet readSet;

    /**
     * Precise write set, speculative write buffer and (NVM lines) redo
     * records in one: one record per written line, created by the
     * line's first transactional store (copy-on-first-write),
     * insertion-ordered. Flat line-keyed map
     * (sim/line_map.hh): allocation-free inserts and cache-friendly
     * probes on the per-access functional path.
     */
    LineMap<LineWrite> writeSet;

    /**
     * Overflow list: addresses of L1-evicted write-set lines, used to
     * locate the write set in the LLC / DRAM cache at commit and abort
     * without scanning them (paper Section IV-B). Stored in the DRAM
     * cache; walks are charged DRAM latency. The LineSet doubles as
     * the list (insertion order) and its membership index.
     */
    LineSet overflowList;

    /** DRAM lines overflowed under redo-mode (read indirection). */
    LineSet redoDramLines;

    /** Address signatures for off-chip detection. */
    BloomSignature readSig;
    BloomSignature writeSig;

    /** Durability horizon of this transaction's NVM redo records. */
    Tick logsDurableAt = 0;

    /** Undo records of overflowed DRAM lines (undo mode), in append
     *  (LLC-eviction) order, which is also the abort's copy-back
     *  order. The DRAM log area accounts their bytes. */
    std::vector<UndoEntry> undoRecords;

    /** Per-attempt access counters. */
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;

    TxDesc(TxId id_, CoreId core_, DomainId domain_, unsigned sig_bits,
           unsigned sig_hashes)
        : id(id_), core(core_), domain(domain_),
          readSig(sig_bits, sig_hashes), writeSig(sig_bits, sig_hashes)
    {
    }

    /** True while conflict checks should consider this transaction. */
    bool
    active() const
    {
        return status == TxStatus::Running ||
               status == TxStatus::Committing;
    }

    /** Footprint of the current attempt in bytes (lines touched). */
    std::uint64_t
    footprintBytes() const
    {
        // readSet and writeSet overlap; count union.
        std::uint64_t lines = writeSet.size();
        for (Addr a : readSet)
            if (!writeSet.count(a))
                ++lines;
        return lines * kLineBytes;
    }
};

} // namespace uhtm

#endif // UHTM_HTM_TX_DESC_HH
