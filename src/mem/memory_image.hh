/**
 * @file
 * The architectural store and the durable in-place NVM image behind it.
 * In-place NVM is updated lazily, so the durable image is held as the
 * *lag*: the durable bytes of the NVM lines that differ from the store.
 * Durable writes are queued with their completion tick and applied in
 * (due, seq) order. DRAM addresses read 0: DRAM keeps nothing across a
 * power failure. The owner announces each queued write to the crash
 * schedule and picks the apply horizon.
 */

#ifndef UHTM_MEM_MEMORY_IMAGE_HH
#define UHTM_MEM_MEMORY_IMAGE_HH

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <vector>

#include "mem/backing_store.hh"
#include "mem/layout.hh"
#include "sim/line_map.hh"
#include "sim/types.hh"

namespace uhtm
{

/** Architectural store plus its durable in-place NVM image; durable
 *  reads see the queued writes applied so far. */
class MemoryImage
{
  public:
    using Line = std::array<std::uint8_t, kLineBytes>;
    /** NVM line base -> durable bytes, for lines that differ. */
    using Lag = LineMap<Line>;

    /** Batch size that triggers an opportunistic already-due apply. */
    static constexpr std::size_t kDurableFlushBatch = 4096;

    /** Architectural (committed) state. Every write goes through
     *  publish() or setupWrite64(), which keep the lag exact. */
    const BackingStore &store() const { return _store; }

    /** Overwrite @p line of the store, whose bytes are @p old, with
     *  @p now; an NVM line stays durable as @p old until a queued
     *  write lands. */
    void
    publish(Addr line, const Line &old, const Line &now)
    {
        if (MemLayout::kindOf(line) == MemKind::Nvm) {
            // A line without an entry was durable as stored: @p old.
            auto it = _lag.emplace(line, old).first;
            if (it->second == now)
                _lag.erase(line);
        }
        _store.writeLine(line, now.data());
    }

    /** Write 64 bits to the store, durable at once. */
    void
    setupWrite64(Addr a, std::uint64_t v)
    {
        assert((a & 7) == 0 && "setup writes are word-aligned");
        _store.write64(a, v);
        // A lagging line takes the word into its lag.
        const Addr line = lineAlign(a);
        if (auto it = _lag.find(line); it != _lag.end()) {
            std::memcpy(it->second.data() + (a - line), &v, 8);
            Line cur;
            _store.readLine(line, cur.data());
            if (cur == it->second)
                _lag.erase(line);
        }
    }

    /** Queue a durable write of @p bytes to @p line, completing at
     *  @p due. A batch of kDurableFlushBatch writes applies those due
     *  by @p now, so memory stays bounded on long runs that never
     *  observe the image. */
    void
    queue(Addr line, Tick due, const Line &bytes, Tick now)
    {
        _pending.push_back(Pending{due, line, bytes});
        _minDue = std::min(_minDue, due);
        if (_pending.size() >= kDurableFlushBatch)
            apply(now);
    }

    /** Apply the queued writes due by @p upTo, in (due, seq) order. A
     *  write equal to the store's line drops the line's lag entry; any
     *  other write becomes it. */
    void
    apply(Tick upTo)
    {
        // Nothing due: crash sweeps observe the image at every check,
        // so skip the partition instead of walking the whole batch.
        if (_pending.empty() || upTo < _minDue)
            return;
        // The batch is in seq (append) order; keep that order among
        // the not-yet-due survivors and apply the due entries sorted
        // stably by due, i.e. in (due, seq) order.
        auto mid = std::stable_partition(
            _pending.begin(), _pending.end(),
            [upTo](const Pending &p) { return p.due <= upTo; });
        std::stable_sort(_pending.begin(), mid,
                         [](const Pending &a, const Pending &b) {
                             return a.due < b.due;
                         });
        for (auto it = _pending.begin(); it != mid; ++it) {
            Line cur;
            _store.readLine(it->line, cur.data());
            if (cur == it->bytes)
                _lag.erase(it->line);
            else
                _lag[it->line] = it->bytes;
        }
        _pending.erase(_pending.begin(), mid);
        _minDue = ~Tick(0);
        for (const Pending &p : _pending)
            _minDue = std::min(_minDue, p.due);
    }

    /** Copy one durable line out (64 bytes at line-aligned @p a). */
    void
    readLine(Addr line_base, std::uint8_t out[kLineBytes]) const
    {
        assert((line_base & (kLineBytes - 1)) == 0);
        if (MemLayout::kindOf(line_base) != MemKind::Nvm) {
            std::memset(out, 0, kLineBytes);
            return;
        }
        auto it = _lag.find(line_base);
        if (it != _lag.end())
            std::memcpy(out, it->second.data(), kLineBytes);
        else
            _store.readLine(line_base, out);
    }

    /** Read a little-endian, aligned 64-bit durable word. */
    std::uint64_t
    read64(Addr a) const
    {
        assert((a & 7) == 0 && "an aligned word never straddles a line");
        Line line;
        readLine(lineAlign(a), line.data());
        std::uint64_t v;
        std::memcpy(&v, line.data() + (a & (kLineBytes - 1)), 8);
        return v;
    }

    /** Lines whose durable bytes differ from the store's. */
    const Lag &lag() const { return _lag; }

    /** A full copy of the image: the store's NVM pages with every lag
     *  line written over them. */
    BackingStore
    image() const
    {
        BackingStore img;
        img.copyFrom(_store, MemLayout::kNvmBase);
        for (const auto &[line, bytes] : _lag)
            img.writeLine(line, bytes.data());
        return img;
    }

    /** Host bytes held by the store's pages and by the lag. */
    std::uint64_t
    storeBytes() const
    {
        return _store.pageCount() * BackingStore::kPageBytes;
    }

    std::uint64_t lagBytes() const { return _lag.size() * kLineBytes; }

  private:
    struct Pending
    {
        Tick due;
        Addr line;
        Line bytes;
    };

    BackingStore _store;
    Lag _lag;
    /** Queued writes in issue order: a write's position is its seq. */
    std::vector<Pending> _pending;
    /** Earliest due tick in the batch (~0 when empty). */
    Tick _minDue = ~Tick(0);
};

} // namespace uhtm

#endif // UHTM_MEM_MEMORY_IMAGE_HH
