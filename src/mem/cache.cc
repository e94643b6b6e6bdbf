#include "mem/cache.hh"

#include <cassert>

namespace uhtm
{

Cache::Cache(std::string name, std::uint64_t size_bytes, unsigned ways,
             bool tx_aware_replacement)
    : _name(std::move(name)), _ways(ways), _txAware(tx_aware_replacement),
      _numSets(setsFor(size_bytes, ways)), _lines(_numSets * _ways),
      _tags(_numSets * _ways, kInvalidTag)
{
}

Cache::~Cache()
{
    for (std::size_t i = 0; i < _tags.size(); ++i)
        if (_tags[i] != kInvalidTag)
            _lines.destroy(i);
}

std::uint64_t
Cache::setIndex(Addr line_base) const
{
    return lineNumber(line_base) & (_numSets - 1);
}

CacheLine *
Cache::lookup(Addr line_base)
{
    CacheLine *line = peek(line_base);
    if (line) {
        ++_stats.hits;
        touch(*line);
    } else {
        ++_stats.misses;
    }
    return line;
}

CacheLine *
Cache::peek(Addr line_base)
{
    const std::uint64_t base = setIndex(line_base) * _ways;
    const Addr *tags = &_tags[base];
    for (unsigned w = 0; w < _ways; ++w)
        if (tags[w] == line_base)
            return &_lines[base + w];
    return nullptr;
}

const CacheLine *
Cache::peek(Addr line_base) const
{
    return const_cast<Cache *>(this)->peek(line_base);
}

CacheLine *
Cache::allocate(Addr line_base, CacheLine &evicted, bool &had_victim)
{
    CacheLine *victim = victimFor(line_base, had_victim);
    if (had_victim)
        evicted = *victim;
    install(victim, line_base);
    return victim;
}

CacheLine *
Cache::victimFor(Addr line_base, bool &had_victim)
{
    assert(!peek(line_base) && "line must not already be present");
    const std::uint64_t base = setIndex(line_base) * _ways;
    const Addr *tags = &_tags[base];
    CacheLine *set = &_lines[base];

    // Single pass; candidate preferences and way-order tie-breaks match
    // the original three-pass selection exactly (first invalid way,
    // else tx-aware LRU among non-transactional lines, else plain LRU,
    // strict < keeping the earliest way on equal timestamps).
    CacheLine *victim = nullptr;
    CacheLine *nonTxLru = nullptr;
    CacheLine *lru = nullptr;
    for (unsigned w = 0; w < _ways; ++w) {
        if (tags[w] == kInvalidTag) {
            victim = &set[w];
            break;
        }
        CacheLine &cl = set[w];
        if (_txAware && !cl.txBit() &&
            (!nonTxLru || cl.lru < nonTxLru->lru)) {
            nonTxLru = &cl;
        }
        if (!lru || cl.lru < lru->lru)
            lru = &cl;
    }
    had_victim = !victim;
    if (had_victim) {
        victim = _txAware && nonTxLru ? nonTxLru : lru;
        ++_stats.evictions;
        if (victim->txBit())
            ++_stats.txEvictions;
        if (MemLayout::kindOf(victim->tag) == MemKind::Nvm)
            ++_stats.evictionsNvm;
    }
    return victim;
}

void
Cache::install(CacheLine *slot, Addr line_base)
{
    const std::size_t i = slotOf(*slot);
    if (_tags[i] != kInvalidTag)
        _lines.destroy(i);
    _lines.construct(i).tag = line_base;
    touch(*slot);
    _tags[i] = line_base;
}

void
Cache::invalidate(Addr line_base)
{
    if (CacheLine *line = peek(line_base))
        drop(*line);
}

void
Cache::drop(CacheLine &line)
{
    const std::size_t i = slotOf(line);
    assert(_tags[i] == line.tag && "drop of a line this cache does not hold");
    _tags[i] = kInvalidTag;
    _lines.destroy(i);
}

} // namespace uhtm
