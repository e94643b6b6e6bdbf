/**
 * @file
 * Transactional bump allocator living in simulated memory.
 *
 * The bump pointer is a 64-bit word in the simulated address space, so
 * allocations performed inside a transaction roll back with it: an
 * aborted transaction's allocations are reclaimed automatically because
 * the bump-pointer write is undone with the rest of the write set.
 *
 * Each simulated thread owns a private allocator (thread-local arenas,
 * as real allocators do), so allocation never causes conflicts between
 * threads of the same process.
 */

#ifndef UHTM_WORKLOADS_TX_ALLOC_HH
#define UHTM_WORKLOADS_TX_ALLOC_HH

#include <cassert>

#include "htm/tx_context.hh"
#include "workloads/region_alloc.hh"

namespace uhtm
{

/** Bump allocator whose cursor lives in simulated memory. */
class TxAllocator
{
  public:
    TxAllocator() = default;

    /**
     * Create an allocator over a fresh arena.
     * @param sys machine (for the functional setup write).
     * @param regions arena source.
     * @param kind memory the arena (and the cursor) lives in.
     * @param arena_bytes arena capacity.
     */
    TxAllocator(HtmSystem &sys, RegionAllocator &regions, MemKind kind,
                std::uint64_t arena_bytes)
    {
        // The control line (cursor + limit) sits in front of the arena.
        _ctl = regions.reserve(kind, kLineBytes + arena_bytes);
        _arenaBase = _ctl + kLineBytes;
        _limit = _arenaBase + arena_bytes;
        sys.setupWrite64(cursorAddr(), _arenaBase);
    }

    /** Transactional allocation (rolls back with the transaction). */
    CoTask<Addr>
    alloc(TxContext &ctx, std::uint64_t bytes)
    {
        const std::uint64_t sz = roundUp(bytes);
        const Addr cur = co_await ctx.read64(cursorAddr());
        assert(cur + sz <= _limit && "simulated arena exhausted");
        co_await ctx.write64(cursorAddr(), cur + sz);
        co_return cur;
    }

    /** Functional allocation for setup phases (same cursor). */
    Addr
    allocSetup(HtmSystem &sys, std::uint64_t bytes)
    {
        const std::uint64_t sz = roundUp(bytes);
        const Addr cur = sys.setupRead64(cursorAddr());
        assert(cur + sz <= _limit && "simulated arena exhausted");
        sys.setupWrite64(cursorAddr(), cur + sz);
        return cur;
    }

    /** Bytes currently allocated out of the arena. */
    std::uint64_t
    bytesUsed(const HtmSystem &sys) const
    {
        return sys.setupRead64(cursorAddr()) - _arenaBase;
    }

    Addr limit() const { return _limit; }

  private:
    static std::uint64_t
    roundUp(std::uint64_t bytes)
    {
        // Line-align every object: fields never straddle lines and
        // false sharing between objects is impossible.
        return (bytes + kLineBytes - 1) & ~std::uint64_t(kLineBytes - 1);
    }

    Addr cursorAddr() const { return _ctl; }

    Addr _ctl = 0;
    Addr _arenaBase = 0;
    Addr _limit = 0;
};

/**
 * Write a freshly allocated value blob of @p bytes, line by line.
 * This is what gives the paper's benchmarks their 100KB..1.5MB
 * transaction footprints.
 * @return the blob's base address.
 */
inline CoTask<Addr>
writeValueBlob(TxContext &ctx, TxAllocator &alloc, std::uint64_t bytes,
               std::uint64_t pattern)
{
    const Addr base = co_await alloc.alloc(ctx, bytes);
    // Marshalling/copy instructions for the payload (~0.5 B/cycle on the
    // in-order core) — memory time is charged per line store below.
    co_await ctx.compute(ticksFromNs(static_cast<double>(bytes) * 1.0));
    for (std::uint64_t off = 0; off < bytes; off += kLineBytes)
        co_await ctx.writeLine(base + off, pattern);
    co_return base;
}

/**
 * Read a value blob of @p bytes line by line; returns an XOR fold of
 * the first word of each line (keeps the compiler honest and gives
 * tests something to assert on).
 */
inline CoTask<std::uint64_t>
readValueBlob(TxContext &ctx, Addr base, std::uint64_t bytes)
{
    std::uint64_t acc = 0;
    for (std::uint64_t off = 0; off < bytes; off += kLineBytes)
        acc ^= co_await ctx.readLine(base + off);
    co_return acc;
}

} // namespace uhtm

#endif // UHTM_WORKLOADS_TX_ALLOC_HH
