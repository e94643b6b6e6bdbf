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

static_assert(MemLayout::kNvmBase >
                  MemLayout::kDramLogBase + MemLayout::kLogSize,
              "DRAM region (incl. log) must not overlap NVM");

} // namespace uhtm

#endif // UHTM_MEM_LAYOUT_HH
