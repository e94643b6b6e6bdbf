#include "mem/cache.hh"

#include <cassert>

namespace uhtm
{

Cache::Cache(std::string name, std::uint64_t size_bytes, unsigned ways,
             bool tx_aware_replacement)
    : _name(std::move(name)), _ways(ways), _txAware(tx_aware_replacement),
      _numSets(setsFor("cache '" + _name + "'", size_bytes, ways)),
      _lines(_numSets * _ways), _tags(_numSets * _ways, kInvalidTag),
      _order(_numSets, kLruIdentity)
{
}

Cache::~Cache()
{
    for (std::size_t i = 0; i < _tags.size(); ++i)
        if (_tags[i] != kInvalidTag)
            _lines.destroy(i);
}

unsigned
Cache::wayOf(std::uint64_t set, Addr line_base) const
{
    const Addr *tags = &_tags[set * _ways];
    unsigned w = 0;
    while (w < _ways && tags[w] != line_base)
        ++w;
    return w;
}

CacheLine *
Cache::lookup(Addr line_base)
{
    const std::uint64_t set = setIndex(line_base);
    const unsigned w = wayOf(set, line_base);
    if (w == _ways) {
        ++_stats.misses;
        return nullptr;
    }
    ++_stats.hits;
    touchWay(set, w);
    return &_lines[set * _ways + w];
}

CacheLine *
Cache::peek(Addr line_base)
{
    const std::uint64_t set = setIndex(line_base);
    const unsigned w = wayOf(set, line_base);
    return w == _ways ? nullptr : &_lines[set * _ways + w];
}

const CacheLine *
Cache::peek(Addr line_base) const
{
    return const_cast<Cache *>(this)->peek(line_base);
}

CacheLine *
Cache::victimFor(Addr line_base, bool &had_victim)
{
    assert(!peek(line_base) && "line must not already be present");
    const std::uint64_t set = setIndex(line_base);
    const std::uint64_t base = set * _ways;
    const Addr *tags = &_tags[base];
    CacheLine *lines = &_lines[base];

    // The first free way; else, tx-aware, the least recently used line
    // without the Tx-bit; else the least recently used line.
    for (unsigned w = 0; w < _ways; ++w) {
        if (tags[w] == kInvalidTag) {
            had_victim = false;
            return &lines[w];
        }
    }
    const std::uint64_t order = _order[set];
    CacheLine *victim = &lines[lruWayAt(order, _ways - 1)];
    if (_txAware) {
        for (unsigned r = _ways; r-- > 0;) {
            CacheLine &cl = lines[lruWayAt(order, r)];
            if (!cl.txBit()) {
                victim = &cl;
                break;
            }
        }
    }
    had_victim = true;
    ++_stats.evictions;
    if (victim->txBit())
        ++_stats.txEvictions;
    if (MemLayout::kindOf(victim->tag) == MemKind::Nvm)
        ++_stats.evictionsNvm;
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
