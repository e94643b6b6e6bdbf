/**
 * @file
 * Host-side region allocator: carves disjoint arenas out of the
 * simulated DRAM and NVM regions for workloads and per-thread heaps.
 *
 * Regions are never reused; each conflict domain (simulated process)
 * draws from distinct ranges, so addresses never alias across domains —
 * exactly the property the signature-isolation optimization exploits.
 */

#ifndef UHTM_WORKLOADS_REGION_ALLOC_HH
#define UHTM_WORKLOADS_REGION_ALLOC_HH

#include <cassert>

#include "mem/layout.hh"
#include "sim/types.hh"

namespace uhtm
{

/** Hands out page-aligned, disjoint address ranges. */
class RegionAllocator
{
  public:
    RegionAllocator()
        : _dramNext(MemLayout::kDramBase + MiB(1)),
          _nvmNext(MemLayout::kNvmBase + MiB(1))
    {
    }

    /** Reserve @p bytes in @p kind memory; returns the base address. */
    Addr
    reserve(MemKind kind, std::uint64_t bytes)
    {
        const std::uint64_t aligned = (bytes + 4095) & ~std::uint64_t(4095);
        if (kind == MemKind::Dram) {
            const Addr base = _dramNext;
            _dramNext += aligned;
            assert(_dramNext <= MemLayout::kDramBase + MemLayout::kDramSize);
            return base;
        }
        const Addr base = _nvmNext;
        _nvmNext += aligned;
        assert(_nvmNext <= MemLayout::kNvmBase + MemLayout::kNvmSize);
        return base;
    }

  private:
    Addr _dramNext;
    Addr _nvmNext;
};

} // namespace uhtm

#endif // UHTM_WORKLOADS_REGION_ALLOC_HH
