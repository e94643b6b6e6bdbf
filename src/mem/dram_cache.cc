#include "mem/dram_cache.hh"

#include <cassert>

#include "mem/layout.hh"

namespace uhtm
{

DramCache::DramCache(std::uint64_t size_bytes, unsigned ways)
    : _ways(ways), _numSets(setsFor("DRAM cache", size_bytes, ways)),
      _entries(_numSets * _ways), _tags(_numSets * _ways, kInvalidTag),
      _order(_numSets, kLruIdentity)
{
}

std::uint64_t
DramCache::setIndex(Addr line_base) const
{
    return lineNumber(line_base) & (_numSets - 1);
}

void
DramCache::touch(const DramCacheEntry &e)
{
    const std::uint64_t set = setIndex(e.tag);
    const auto way = static_cast<unsigned>(&e - &_entries[set * _ways]);
    _order[set] = lruTouch(_order[set], way);
}

DramCacheEntry *
DramCache::lookup(Addr line_base)
{
    DramCacheEntry *e = peek(line_base);
    if (e && !e->invalidated) {
        ++_stats.hits;
        touch(*e);
        return e;
    }
    ++_stats.misses;
    return nullptr;
}

DramCacheEntry *
DramCache::peek(Addr line_base)
{
    const std::uint64_t base = setIndex(line_base) * _ways;
    const Addr *tags = &_tags[base];
    for (unsigned w = 0; w < _ways; ++w)
        if (tags[w] == line_base)
            return &_entries[base + w];
    return nullptr;
}

DramCache::Slot
DramCache::victimFor(Addr line_base, TxId tx)
{
    if (DramCacheEntry *e = peek(line_base)) {
        if (tx != kNoTx && e->committedDirty()) {
            ++_stats.writeBacks;
            return {e, Victim::Supersede};
        }
        return {e, Victim::None};
    }

    const std::uint64_t set = setIndex(line_base);
    const std::uint64_t base = set * _ways;
    const Addr *tags = &_tags[base];
    DramCacheEntry *entries = &_entries[base];
    for (unsigned w = 0; w < _ways; ++w)
        if (tags[w] == kInvalidTag)
            return {&entries[w], Victim::None};
    // Prefer the first invalidated entry in way order, then the least
    // recently used entry no transaction owns (tx == kNoTx), then the
    // least recently used entry.
    std::size_t slot = _ways;
    for (unsigned w = 0; w < _ways && slot == _ways; ++w)
        if (entries[w].invalidated)
            slot = w;
    if (slot == _ways) {
        const std::uint64_t order = _order[set];
        slot = lruWayAt(order, _ways - 1);
        for (unsigned r = _ways; r-- > 0;) {
            const unsigned w = lruWayAt(order, r);
            if (entries[w].tx == kNoTx) {
                slot = w;
                break;
            }
        }
    }
    DramCacheEntry &victim = entries[slot];
    ++_stats.evictions;
    if (victim.invalidated)
        return {&victim, Victim::InvalidatedDrop};
    if (victim.tx != kNoTx) {
        ++_stats.uncommittedDrops;
        return {&victim, Victim::UncommittedDrop};
    }
    if (victim.dirty) {
        ++_stats.writeBacks;
        return {&victim, Victim::WriteBack};
    }
    return {&victim, Victim::Clean};
}

DramCacheEntry &
DramCache::install(Slot slot, Addr line_base, TxId tx)
{
    const auto i = static_cast<std::size_t>(slot.entry - _entries.data());
    if (_tags[i] == line_base) {
        // Refresh in place: a new write takes over an invalidated or
        // committed entry for the same line.
        DramCacheEntry &e = *slot.entry;
        if (slot.victim == Victim::Supersede)
            e.dirty = false;
        e.tx = tx;
        e.invalidated = false;
        touch(e);
        return e;
    }
    if (_tags[i] != kInvalidTag)
        _entries.destroy(i);
    DramCacheEntry &e = _entries.construct(i);
    e.tag = line_base;
    e.tx = tx;
    touch(e);
    _tags[i] = line_base;
    return e;
}

bool
DramCache::commitEntry(Addr line_base, TxId tx,
                       const std::array<std::uint8_t, kLineBytes> &data)
{
    DramCacheEntry *e = peek(line_base);
    if (!e || e->tx != tx || e->invalidated)
        return false;
    e->data = data;
    e->tx = kNoTx;
    e->dirty = true;
    return true;
}

void
DramCache::invalidateEntry(Addr line_base, TxId tx)
{
    if (DramCacheEntry *e = peek(line_base)) {
        if (e->tx == tx) {
            e->invalidated = true;
            ++_stats.invalidations;
        }
    }
}

} // namespace uhtm
