#include "mem/cache.hh"

#include <cassert>

namespace uhtm
{

namespace
{

/** Round down to the previous power of two (at least 1). */
std::uint64_t
floorPow2(std::uint64_t v)
{
    std::uint64_t p = 1;
    while ((p << 1) <= v)
        p <<= 1;
    return p;
}

} // namespace

Cache::Cache(std::string name, std::uint64_t size_bytes, unsigned ways,
             bool tx_aware_replacement)
    : _name(std::move(name)), _ways(ways), _txAware(tx_aware_replacement)
{
    assert(ways >= 1);
    const std::uint64_t lines = size_bytes / kLineBytes;
    assert(lines >= ways);
    _numSets = floorPow2(lines / ways);
    _lines.resize(_numSets * _ways);
    _tags.assign(_numSets * _ways, kInvalidTag);
}

std::uint64_t
Cache::setIndex(Addr line_base) const
{
    return lineNumber(line_base) & (_numSets - 1);
}

CacheLine *
Cache::setBase(std::uint64_t set)
{
    return &_lines[set * _ways];
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
    for (unsigned w = 0; w < _ways; ++w) {
        if (tags[w] != line_base)
            continue;
        CacheLine &cl = _lines[base + w];
        // Verify: external in-place resets leave stale shadow tags.
        if (cl.valid && cl.tag == line_base)
            return &cl;
    }
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
    CacheLine *set = setBase(setIndex(line_base));

    // Single pass; candidate preferences and way-order tie-breaks match
    // the original three-pass selection exactly (first invalid way,
    // else tx-aware LRU among non-transactional lines, else plain LRU,
    // strict < keeping the earliest way on equal timestamps).
    CacheLine *victim = nullptr;
    CacheLine *nonTxLru = nullptr;
    CacheLine *lru = nullptr;
    for (unsigned w = 0; w < _ways; ++w) {
        CacheLine &cl = set[w];
        if (!cl.valid) {
            victim = &cl;
            break;
        }
        if (_txAware && !cl.txBit() &&
            (!nonTxLru || cl.lru < nonTxLru->lru)) {
            nonTxLru = &cl;
        }
        if (!lru || cl.lru < lru->lru)
            lru = &cl;
    }
    if (!victim)
        victim = _txAware && nonTxLru ? nonTxLru : lru;

    had_victim = victim->valid;
    if (had_victim) {
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
    slot->reset();
    slot->valid = true;
    slot->tag = line_base;
    touch(*slot);
    _tags[static_cast<std::size_t>(slot - _lines.data())] = line_base;
}

void
Cache::invalidate(Addr line_base)
{
    if (CacheLine *line = peek(line_base)) {
        line->reset();
        _tags[static_cast<std::size_t>(line - _lines.data())] =
            kInvalidTag;
    }
}

} // namespace uhtm
