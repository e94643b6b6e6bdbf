#include "mem/dram_cache.hh"

#include <cassert>

#include "mem/layout.hh"
#include "obs/event.hh"

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

void
DramCache::evict(DramCacheEntry &victim)
{
    ++_stats.evictions;
    int reason = obs::kEvictClean;
    if (victim.invalidated) {
        // Aborted data: drop silently.
        reason = obs::kEvictInvalidatedDrop;
    } else if (victim.tx != kNoTx) {
        // Uncommitted line forced out; its bytes remain recoverable from
        // the redo log, so it is safe (if slow) to drop it here.
        ++_stats.uncommittedDrops;
        reason = obs::kEvictUncommittedDrop;
        if (_probe) {
            _probe->notifyPersist(PersistPoint::DramCacheDrop, victim.tag,
                                  0, nullptr);
        }
    } else if (victim.dirty) {
        ++_stats.writeBacks;
        reason = obs::kEvictWriteBack;
        if (_probe) {
            _probe->notifyPersist(PersistPoint::DramCacheWriteback,
                                  victim.tag, 0, victim.data.data());
        }
        if (_writeBack)
            _writeBack(victim.tag, victim.data);
    }
    if (_evictHook)
        _evictHook(victim.tag, reason);
    const auto i = static_cast<std::size_t>(&victim - _entries.data());
    _tags[i] = kInvalidTag;
    _entries.destroy(i);
}

DramCacheEntry *
DramCache::insert(Addr line_base, TxId tx)
{
    if (DramCacheEntry *e = peek(line_base)) {
        // Refresh in place; a new transactional write supersedes an
        // invalidated or committed entry for the same line.
        if (e->tx != tx && !e->invalidated && e->tx == kNoTx && e->dirty) {
            // Committed data being overwritten by a new speculative
            // write must first reach in-place NVM or it would be lost
            // on abort of the new transaction.
            ++_stats.writeBacks;
            if (_probe) {
                _probe->notifyPersist(PersistPoint::DramCacheWriteback,
                                      e->tag, 0, e->data.data());
            }
            if (_writeBack)
                _writeBack(e->tag, e->data);
            e->dirty = false;
        }
        e->tx = tx;
        e->invalidated = false;
        touch(*e);
        return e;
    }

    const std::uint64_t set = setIndex(line_base);
    const std::uint64_t base = set * _ways;
    const Addr *tags = &_tags[base];
    DramCacheEntry *entries = &_entries[base];
    std::size_t slot = _ways;
    for (unsigned w = 0; w < _ways && slot == _ways; ++w)
        if (tags[w] == kInvalidTag)
            slot = w;
    if (slot == _ways) {
        // Prefer the first invalidated entry in way order, then the
        // least recently used entry no transaction owns (tx == kNoTx),
        // then the least recently used entry.
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
        evict(entries[slot]);
    }

    DramCacheEntry &e = _entries.construct(base + slot);
    e.tag = line_base;
    e.tx = tx;
    touch(e);
    _tags[base + slot] = line_base;
    return &e;
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

void
DramCache::flushAll()
{
    forEach([&](DramCacheEntry &e) {
        if (!e.invalidated && e.tx == kNoTx && e.dirty) {
            ++_stats.writeBacks;
            if (_probe) {
                _probe->notifyPersist(PersistPoint::DramCacheWriteback,
                                      e.tag, 0, e.data.data());
            }
            if (_writeBack)
                _writeBack(e.tag, e.data);
            e.dirty = false;
        }
    });
}

} // namespace uhtm
