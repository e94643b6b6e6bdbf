#include "mem/cache.hh"

#include <cassert>

#include "mem/layout.hh"

namespace uhtm
{

Cache::Cache(const std::string &name, std::uint64_t size_bytes,
             unsigned ways, bool tx_aware_replacement)
    : SetArray("cache '" + name + "'", size_bytes, ways),
      _txAware(tx_aware_replacement)
{
}

CacheLine *
Cache::lookup(Addr line_base)
{
    CacheLine *line = SetArray::lookup(line_base);
    ++(line ? _stats.hits : _stats.misses);
    return line;
}

CacheLine *
Cache::victimFor(Addr line_base, bool &had_victim)
{
    assert(!peek(line_base) && "line must not already be present");
    // The first free way; else, tx-aware, the least recently used line
    // without the Tx-bit; else the least recently used line.
    if (CacheLine *free = freeWay(line_base)) {
        had_victim = false;
        return free;
    }
    CacheLine *victim = nullptr;
    if (_txAware) {
        victim = lruWhere(line_base,
                          [](const CacheLine &cl) { return !cl.txBit(); });
    }
    if (!victim)
        victim = &lru(line_base);
    had_victim = true;
    ++_stats.evictions;
    if (victim->txBit())
        ++_stats.txEvictions;
    if (MemLayout::kindOf(victim->tag) == MemKind::Nvm)
        ++_stats.evictionsNvm;
    return victim;
}

} // namespace uhtm
