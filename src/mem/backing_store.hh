/**
 * @file
 * Sparse functional memory image.
 *
 * The simulator separates function from timing (see DESIGN.md): the
 * BackingStore holds the actual bytes of the simulated machine while the
 * cache/controller models only account for time and conflicts. Pages are
 * allocated lazily so multi-GiB address spaces cost only what is touched.
 *
 * Hot-path layout: the page table is a flat open-addressing map
 * (sim/line_map.hh) instead of a node-based unordered_map, and the most
 * recently used page is memoized — the functional half of every
 * simulated access hits read64/write64/readLine, and those accesses are
 * overwhelmingly page-local, so the common case is one compare plus a
 * direct byte copy with no hashing at all. Page storage is stable
 * (unique_ptr-owned), so the memo survives table growth.
 */

#ifndef UHTM_MEM_BACKING_STORE_HH
#define UHTM_MEM_BACKING_STORE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <memory>

#include "sim/line_map.hh"
#include "sim/types.hh"

namespace uhtm
{

/** Lazily populated byte-addressable memory image. */
class BackingStore
{
  public:
    static constexpr unsigned kPageBytes = 4096;

    BackingStore() = default;
    BackingStore(const BackingStore &) = delete;
    BackingStore &operator=(const BackingStore &) = delete;

    BackingStore(BackingStore &&o) noexcept
        : _pages(std::move(o._pages))
    {
        o.dropMemo();
    }

    /** Read @p len bytes at @p a into @p out. Unwritten bytes read 0. */
    void
    read(Addr a, void *out, std::size_t len) const
    {
        auto *dst = static_cast<std::uint8_t *>(out);
        while (len > 0) {
            const Addr page = pageBase(a);
            const std::size_t off = a - page;
            const std::size_t n = std::min(len, kPageBytes - off);
            const Page *p = lookupPage(page);
            if (!p)
                std::memset(dst, 0, n);
            else
                std::memcpy(dst, p->data() + off, n);
            a += n;
            dst += n;
            len -= n;
        }
    }

    /** Write @p len bytes at @p a from @p in. */
    void
    write(Addr a, const void *in, std::size_t len)
    {
        auto *src = static_cast<const std::uint8_t *>(in);
        while (len > 0) {
            const Addr page = pageBase(a);
            const std::size_t off = a - page;
            const std::size_t n = std::min(len, kPageBytes - off);
            std::memcpy(pageFor(page).data() + off, src, n);
            a += n;
            src += n;
            len -= n;
        }
    }

    /** Read a little-endian 64-bit word. */
    std::uint64_t
    read64(Addr a) const
    {
        std::uint64_t v = 0;
        if ((a & 7) == 0) {
            // An aligned word never straddles a page.
            if (const Page *p = lookupPage(pageBase(a)))
                std::memcpy(&v, p->data() + (a & (kPageBytes - 1)), 8);
            return v;
        }
        read(a, &v, sizeof(v));
        return v;
    }

    /** Write a little-endian 64-bit word. */
    void
    write64(Addr a, std::uint64_t v)
    {
        if ((a & 7) == 0) {
            std::memcpy(pageFor(pageBase(a)).data() + (a & (kPageBytes - 1)),
                        &v, 8);
            return;
        }
        write(a, &v, sizeof(v));
    }

    /** Copy one whole cache line out (64 bytes at line-aligned @p a). */
    void
    readLine(Addr line_base, std::uint8_t out[kLineBytes]) const
    {
        if ((line_base & (kLineBytes - 1)) == 0) {
            // kPageBytes is a multiple of kLineBytes: no straddle.
            const Page *p = lookupPage(pageBase(line_base));
            if (!p)
                std::memset(out, 0, kLineBytes);
            else
                std::memcpy(out,
                            p->data() + (line_base & (kPageBytes - 1)),
                            kLineBytes);
            return;
        }
        read(line_base, out, kLineBytes);
    }

    /** Overwrite one whole cache line. */
    void
    writeLine(Addr line_base, const std::uint8_t in[kLineBytes])
    {
        if ((line_base & (kLineBytes - 1)) == 0) {
            std::memcpy(pageFor(pageBase(line_base)).data() +
                            (line_base & (kPageBytes - 1)),
                        in, kLineBytes);
            return;
        }
        write(line_base, in, kLineBytes);
    }

    /** Number of materialised pages (for tests and memory accounting). */
    std::size_t pageCount() const { return _pages.size(); }

    /** Drop all contents. */
    void
    clear()
    {
        _pages.clear();
        dropMemo();
    }

    /**
     * Replace this store's contents with a deep copy of @p o's pages
     * at or above @p from (crash recovery copies the NVM half of the
     * architectural store; see MemoryImage::image).
     */
    void
    copyFrom(const BackingStore &o, Addr from = 0)
    {
        _pages.clear();
        dropMemo();
        for (const auto &[base, page] : o._pages) {
            if (base >= from)
                _pages.emplace(base, std::make_unique<Page>(*page));
        }
    }

  private:
    using Page = std::array<std::uint8_t, kPageBytes>;

    static constexpr Addr kNoPage = ~static_cast<Addr>(0);

    static Addr
    pageBase(Addr a)
    {
        return a & ~static_cast<Addr>(kPageBytes - 1);
    }

    void
    dropMemo() const
    {
        _memoBase = kNoPage;
        _memoPage = nullptr;
    }

    /** Existing page at @p base, or nullptr; refreshes the MRU memo. */
    const Page *
    lookupPage(Addr base) const
    {
        if (base == _memoBase)
            return _memoPage;
        auto it = _pages.find(base);
        if (it == _pages.end())
            return nullptr;
        _memoBase = base;
        _memoPage = it->second.get();
        return _memoPage;
    }

    Page &
    pageFor(Addr base)
    {
        if (base == _memoBase)
            return *_memoPage;
        auto it = _pages.find(base);
        if (it == _pages.end())
            it = _pages.emplace(base, std::make_unique<Page>()).first;
        _memoBase = base;
        _memoPage = it->second.get();
        return *_memoPage;
    }

    LineMap<std::unique_ptr<Page>> _pages;

    /** MRU page memo (mutable: reads refresh it too). */
    mutable Addr _memoBase = kNoPage;
    mutable Page *_memoPage = nullptr;
};

} // namespace uhtm

#endif // UHTM_MEM_BACKING_STORE_HH
