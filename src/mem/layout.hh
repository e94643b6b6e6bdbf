/**
 * @file
 * Physical address map of the simulated hybrid DRAM/NVM machine.
 *
 * The machine exposes two byte-addressable regions. Each region reserves
 * a log area at its top (paper Section IV-B: "UHTM reserves the part of
 * the DRAM and NVM regions for the log area. The log area is only
 * accessible to the memory controllers.").
 */

#ifndef UHTM_MEM_LAYOUT_HH
#define UHTM_MEM_LAYOUT_HH

#include <cstdint>
#include <stdexcept>
#include <string>

#include "mem/lru_order.hh"
#include "sim/types.hh"

namespace uhtm
{

/** Which physical medium an address lives on. */
enum class MemKind
{
    Dram,
    Nvm,
};

/** Human-readable name for a MemKind. */
inline const char *
memKindName(MemKind k)
{
    return k == MemKind::Dram ? "DRAM" : "NVM";
}

/**
 * The static address map. DRAM occupies the low half of the used space,
 * NVM starts at a fixed high base so that kindOf() is a single compare.
 */
struct MemLayout
{
    /** Base of the DRAM region. */
    static constexpr Addr kDramBase = 0x0000'0000'0000ull;
    /** Size of the DRAM region visible to software (excludes log). */
    static constexpr std::uint64_t kDramSize = MiB(8192);
    /** Base of the NVM region. */
    static constexpr Addr kNvmBase = 0x4000'0000'0000ull;
    /** Size of the NVM region visible to software (excludes log). */
    static constexpr std::uint64_t kNvmSize = MiB(65536);

    /** Size of each reserved log area. */
    static constexpr std::uint64_t kLogSize = MiB(512);

    /** Base of the reserved DRAM log area (above software DRAM). */
    static constexpr Addr kDramLogBase = kDramBase + kDramSize;
    /** Base of the reserved NVM log area (above software NVM). */
    static constexpr Addr kNvmLogBase = kNvmBase + kNvmSize;

    /** Which medium does @p a live on? */
    static MemKind
    kindOf(Addr a)
    {
        return a >= kNvmBase ? MemKind::Nvm : MemKind::Dram;
    }

    /** True if @p a is inside a software-visible region. */
    static bool
    isSoftwareVisible(Addr a)
    {
        return (a >= kDramBase && a < kDramBase + kDramSize) ||
               (a >= kNvmBase && a < kNvmBase + kNvmSize);
    }

    /** True if @p a falls into one of the reserved log areas. */
    static bool
    isLogArea(Addr a)
    {
        return (a >= kDramLogBase && a < kDramLogBase + kLogSize) ||
               (a >= kNvmLogBase && a < kNvmLogBase + kLogSize);
    }
};

/**
 * Number of sets of a @p ways-way cache of @p size_bytes, rounded down
 * to a power of two. Shared by the on-chip caches and the DRAM cache.
 * @throws std::invalid_argument naming @p cache when @p ways is outside
 *         [1, kLruMaxWays] or @p size_bytes holds less than one set.
 */
inline std::uint64_t
setsFor(const std::string &cache, std::uint64_t size_bytes, unsigned ways)
{
    if (ways < 1 || ways > kLruMaxWays) {
        throw std::invalid_argument(
            cache + ": ways must be in [1, " + std::to_string(kLruMaxWays) +
            "], got " + std::to_string(ways));
    }
    const std::uint64_t lines = size_bytes / kLineBytes;
    if (lines < ways) {
        throw std::invalid_argument(
            cache + ": " + std::to_string(size_bytes) +
            " bytes hold fewer than one set of " + std::to_string(ways) +
            " " + std::to_string(kLineBytes) + "-byte lines");
    }
    std::uint64_t sets = 1;
    while ((sets << 1) <= lines / ways)
        sets <<= 1;
    return sets;
}

static_assert(MemLayout::kNvmBase >
                  MemLayout::kDramLogBase + MemLayout::kLogSize,
              "DRAM region (incl. log) must not overlap NVM");

} // namespace uhtm

#endif // UHTM_MEM_LAYOUT_HH
