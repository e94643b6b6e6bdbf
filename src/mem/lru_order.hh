/**
 * @file
 * Exact LRU order of one cache set, packed into one 64-bit word.
 *
 * Nibble r holds the way at recency rank r: rank 0 is the most recently
 * used way, rank ways-1 the least. A set of up to kLruMaxWays ways
 * therefore needs one word instead of a timestamp per way, and the LRU
 * way is known from that word alone, before any line of the set is
 * read. The ranks at and above the set's way count keep their identity
 * values, which no touch() ever moves.
 */

#ifndef UHTM_MEM_LRU_ORDER_HH
#define UHTM_MEM_LRU_ORDER_HH

#include <cstdint>

namespace uhtm
{

/** Most ways one order word can rank. */
inline constexpr unsigned kLruMaxWays = 16;

/** Order of a fresh set: way r at rank r. */
inline constexpr std::uint64_t kLruIdentity = 0xfedcba9876543210ull;

/** Way at recency rank @p rank (0 = MRU) of @p order. */
constexpr unsigned
lruWayAt(std::uint64_t order, unsigned rank)
{
    return static_cast<unsigned>(order >> (4 * rank)) & 0xf;
}

/** @p order with @p way at rank 0 and the more recent ways one older. */
constexpr std::uint64_t
lruTouch(std::uint64_t order, unsigned way)
{
    constexpr std::uint64_t kLow = 0x1111111111111111ull;
    // Nibbles equal to way become zero; fold each nibble onto its low
    // bit, so exactly the way's rank is left clear in kLow.
    std::uint64_t x = order ^ (way * kLow);
    x |= x >> 1;
    x |= x >> 2;
    const std::uint64_t at = ~x & kLow;          // way's rank, low bit
    const std::uint64_t below = at - 1;          // the more recent ranks
    const std::uint64_t through = (at << 4) - 1; // ...and way's own rank
    return (order & ~through) | ((order & below) << 4) | way;
}

} // namespace uhtm

#endif // UHTM_MEM_LRU_ORDER_HH
