/**
 * @file
 * SetArray<Entry>: the slot store behind every set-associative array of
 * 64-byte lines, the L1s and the LLC with its embedded directory (Cache,
 * paper Section IV-D) and the DRAM cache (DramCache, Section IV-B).
 * They differ only in what an entry holds and which victim each prefers.
 *
 *  - The tag array is the only record of which slots hold an entry; a
 *    set probe scans a few contiguous tag words, never the entries.
 *  - Each set's LRU order is one word (mem/lru_order.hh), so the LRU
 *    way is known without reading the set's entries.
 *  - Entry storage is raw and recycled (sim/reuse_alloc.hh): install()
 *    constructs a slot; install() over it, drop() and ~SetArray destroy
 *    it. Building an array writes only its tags and order words, and
 *    code that removes an entry must drop() it, never clear it in place.
 *
 * Entry is value-constructible with an `Addr tag` member, which
 * install() sets. The victim queries are const but, like ReuseArray,
 * hand out mutable entries.
 */

#ifndef UHTM_MEM_SET_ARRAY_HH
#define UHTM_MEM_SET_ARRAY_HH

#include <bit>
#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "mem/lru_order.hh"
#include "sim/reuse_alloc.hh"
#include "sim/types.hh"

namespace uhtm
{

/**
 * Number of sets of a @p ways-way array of @p size_bytes, rounded down
 * to a power of two.
 * @throws std::invalid_argument naming @p what when @p ways is outside
 *         [1, kLruMaxWays] or @p size_bytes holds less than one set.
 */
inline std::uint64_t
setsFor(const std::string &what, std::uint64_t size_bytes, unsigned ways)
{
    if (ways < 1 || ways > kLruMaxWays) {
        throw std::invalid_argument(
            what + ": ways must be in [1, " + std::to_string(kLruMaxWays) +
            "], got " + std::to_string(ways));
    }
    const std::uint64_t lines = size_bytes / kLineBytes;
    if (lines < ways) {
        throw std::invalid_argument(
            what + ": " + std::to_string(size_bytes) +
            " bytes hold fewer than one set of " + std::to_string(ways) +
            " " + std::to_string(kLineBytes) + "-byte lines");
    }
    return std::bit_floor(lines / ways);
}

/** Set-associative slots of Entry with exact LRU order per set. */
template <typename Entry>
class SetArray
{
  public:
    /** @throws std::invalid_argument naming @p what on a bad geometry. */
    SetArray(const std::string &what, std::uint64_t size_bytes,
             unsigned ways)
        : _ways(ways), _numSets(setsFor(what, size_bytes, ways)),
          _slots(_numSets * _ways), _tags(_numSets * _ways, kInvalidTag),
          _order(_numSets, kLruIdentity)
    {
    }

    ~SetArray()
    {
        if constexpr (!std::is_trivially_destructible_v<Entry>)
            forEach([this](Entry &e) { _slots.destroy(slotOf(e)); });
    }

    unsigned ways() const { return _ways; }
    std::uint64_t numSets() const { return _numSets; }
    std::uint64_t capacityLines() const { return _tags.size(); }

    /** Find the entry holding @p line_base, or nullptr. Changes no state. */
    Entry *
    peek(Addr line_base)
    {
        const std::uint64_t set = setOf(line_base);
        const unsigned w = wayOf(set, line_base);
        return w == _ways ? nullptr : &_slots[set * _ways + w];
    }

    /** peek(), marking a hit most recently used. */
    Entry *
    lookup(Addr line_base)
    {
        const std::uint64_t set = setOf(line_base);
        const unsigned w = wayOf(set, line_base);
        if (w == _ways)
            return nullptr;
        touchWay(set, w);
        return &_slots[set * _ways + w];
    }

    /** Mark @p e most recently used. */
    void
    touch(const Entry &e)
    {
        const std::uint64_t set = setOf(e.tag);
        touchWay(set, static_cast<unsigned>(slotOf(e) - set * _ways));
    }

    /** Slot of @p e, valid until it leaves the array. */
    std::size_t
    slotOf(const Entry &e) const
    {
        return static_cast<std::size_t>(&e - _slots.data());
    }

    /** True if slot @p slot holds @p line_base; false out of range. */
    bool
    holds(std::size_t slot, Addr line_base) const
    {
        return slot < _tags.size() && _tags[slot] == line_base;
    }

    /**
     * peek(@p line_base), tried first at @p slot: an earlier slotOf()
     * of the line, which may be stale. A stale hint costs a set search,
     * never a wrong answer.
     */
    Entry *
    atSlot(std::size_t slot, Addr line_base)
    {
        return holds(slot, line_base) ? &_slots[slot] : peek(line_base);
    }

    /** The first free way of @p line_base's set, or nullptr if full. */
    Entry *
    freeWay(Addr line_base) const
    {
        const std::uint64_t set = setOf(line_base);
        const unsigned w = wayOf(set, kInvalidTag);
        return w == _ways ? nullptr : &_slots[set * _ways + w];
    }

    /** The LRU way of @p line_base's set, free or not. Reads no entry. */
    Entry &
    lru(Addr line_base) const
    {
        const std::uint64_t set = setOf(line_base);
        return _slots[set * _ways + lruWayAt(_order[set], _ways - 1)];
    }

    /**
     * The least recently used entry of @p line_base's full set that
     * satisfies @p pred, or nullptr.
     */
    template <typename Pred>
    Entry *
    lruWhere(Addr line_base, Pred &&pred) const
    {
        const std::uint64_t set = setOf(line_base);
        const std::uint64_t order = _order[set];
        for (unsigned r = _ways; r-- > 0;) {
            Entry &e = _slots[set * _ways + lruWayAt(order, r)];
            if (pred(e))
                return &e;
        }
        return nullptr;
    }

    /**
     * The first entry of @p line_base's full set, in way order, that
     * satisfies @p pred, or nullptr.
     */
    template <typename Pred>
    Entry *
    firstWhere(Addr line_base, Pred &&pred) const
    {
        Entry *set = &_slots[setOf(line_base) * _ways];
        for (unsigned w = 0; w < _ways; ++w)
            if (pred(set[w]))
                return &set[w];
        return nullptr;
    }

    /**
     * Give @p slot, a way of @p line_base's set, to @p line_base:
     * destroy its entry if any, then construct, tag and touch a fresh
     * one. Callers handle the victim in place before this.
     */
    Entry &
    install(Entry *slot, Addr line_base)
    {
        const std::size_t i = slotOf(*slot);
        if (_tags[i] != kInvalidTag)
            _slots.destroy(i);
        Entry &e = _slots.construct(i);
        e.tag = line_base;
        touch(e);
        _tags[i] = line_base;
        return e;
    }

    /** Remove @p e (a reference this array handed out). */
    void
    drop(Entry &e)
    {
        const std::size_t i = slotOf(e);
        assert(_tags[i] == e.tag && "drop of an entry this array lacks");
        _tags[i] = kInvalidTag;
        _slots.destroy(i);
    }

    /**
     * Invoke @p fn on every entry in slot order (set-major, then way):
     * deterministic for a fixed operation history, but dependent on
     * geometry and replacement. @p fn may mutate or drop() the visited
     * entry, but must not install or drop another.
     */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (std::size_t i = 0; i < _tags.size(); ++i)
            if (_tags[i] != kInvalidTag)
                fn(_slots[i]);
    }

    /**
     * Prefetch into the host cache what choosing a victim for
     * @p line_base reads: the set's tags and its LRU way. Changes no
     * state.
     *
     * Always inlined: GCC counts a prefetch as no side effect, so it
     * would treat an out-of-line call as pure and delete it.
     */
    [[gnu::always_inline]] void
    prefetchVictim(Addr line_base) const
    {
        const Addr *tags = &_tags[setOf(line_base) * _ways];
        for (unsigned w = 0; w < _ways; w += kLineBytes / sizeof(Addr))
            __builtin_prefetch(tags + w);
        __builtin_prefetch(&lru(line_base));
    }

    /**
     * Prefetch what atSlot(@p slot, ...) reads when the hint is right:
     * the slot's tag and entry. Ignores an out-of-range @p slot.
     * Always inlined, as prefetchVictim().
     */
    [[gnu::always_inline]] void
    prefetchSlot(std::size_t slot) const
    {
        if (slot < _tags.size()) {
            __builtin_prefetch(&_tags[slot]);
            __builtin_prefetch(&_slots[slot]);
        }
    }

  private:
    /** _tags sentinel; never a line-aligned address. */
    static constexpr Addr kInvalidTag = ~Addr(0);

    std::uint64_t
    setOf(Addr line_base) const
    {
        return lineNumber(line_base) & (_numSets - 1);
    }

    /** Way of @p set whose tag is @p tag, or _ways if none. */
    unsigned
    wayOf(std::uint64_t set, Addr tag) const
    {
        const Addr *tags = &_tags[set * _ways];
        unsigned w = 0;
        while (w < _ways && tags[w] != tag)
            ++w;
        return w;
    }

    void
    touchWay(std::uint64_t set, unsigned way)
    {
        // Repeated hits to one line find it at rank 0 already; skip
        // the store then.
        const std::uint64_t order = _order[set];
        if (lruWayAt(order, 0) != way)
            _order[set] = lruTouch(order, way);
    }

    unsigned _ways;
    std::uint64_t _numSets;
    /** Entry slots; slot i holds a live Entry iff _tags[i] is valid. */
    ReuseArray<Entry> _slots;
    /** Tag of each slot, kInvalidTag when free. */
    ReuseArray<Addr> _tags;
    ReuseArray<std::uint64_t> _order;
};

} // namespace uhtm

#endif // UHTM_MEM_SET_ARRAY_HH
