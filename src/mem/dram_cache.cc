#include "mem/dram_cache.hh"

namespace uhtm
{

DramCache::DramCache(std::uint64_t size_bytes, unsigned ways)
    : SetArray("DRAM cache", size_bytes, ways)
{
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
    if (DramCacheEntry *free = freeWay(line_base))
        return {free, Victim::None};
    // Prefer the first invalidated entry in way order, then the least
    // recently used entry no transaction owns (tx == kNoTx), then the
    // least recently used entry.
    DramCacheEntry *victim = firstWhere(
        line_base, [](const DramCacheEntry &e) { return e.invalidated; });
    if (!victim) {
        victim = lruWhere(
            line_base, [](const DramCacheEntry &e) { return e.tx == kNoTx; });
    }
    if (!victim)
        victim = &lru(line_base);
    ++_stats.evictions;
    if (victim->invalidated)
        return {victim, Victim::InvalidatedDrop};
    if (victim->tx != kNoTx) {
        ++_stats.uncommittedDrops;
        return {victim, Victim::UncommittedDrop};
    }
    if (victim->dirty) {
        ++_stats.writeBacks;
        return {victim, Victim::WriteBack};
    }
    return {victim, Victim::Clean};
}

DramCacheEntry &
DramCache::install(Slot slot, Addr line_base, TxId tx)
{
    if (holds(slotOf(*slot.entry), line_base)) {
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
    DramCacheEntry &e = SetArray::install(slot.entry, line_base);
    e.tx = tx;
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
