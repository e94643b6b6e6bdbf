/**
 * @file
 * SetArray, the slot store behind Cache and DramCache: which way an
 * entry takes, and that every entry it constructs is destroyed exactly
 * once (on install over it, drop, or the array's destruction).
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "mem/set_array.hh"

namespace uhtm
{
namespace
{

/** An entry that counts the live instances of its type. */
struct Counted
{
    static inline int live = 0;
    static inline int destroyed = 0;

    Addr tag = 0;

    static void
    reset()
    {
        live = 0;
        destroyed = 0;
    }

    Counted() { ++live; }
    Counted(const Counted &) = delete;
    ~Counted()
    {
        --live;
        ++destroyed;
    }
};

/** Line @p i of set @p set in an array with @p sets sets. */
Addr
lineIn(std::uint64_t sets, std::uint64_t set, std::uint64_t i)
{
    return (i * sets + set) * kLineBytes;
}

TEST(SetArray, InstallTakesTheFirstFreeWayThenOverwritesOnce)
{
    Counted::reset();
    // Two sets of four ways.
    SetArray<Counted> a("arr", 8 * kLineBytes, 4);
    ASSERT_EQ(a.numSets(), 2u);
    ASSERT_EQ(a.capacityLines(), 8u);

    Counted *way0 = a.freeWay(lineIn(2, 1, 0));
    ASSERT_NE(way0, nullptr);
    EXPECT_EQ(a.slotOf(*way0), 4u) << "set 1 starts at slot 4";
    EXPECT_EQ(Counted::live, 0) << "a free way holds no entry";

    for (std::uint64_t i = 0; i < 4; ++i) {
        const Addr line = lineIn(2, 1, i);
        Counted *slot = a.freeWay(line);
        ASSERT_NE(slot, nullptr);
        EXPECT_EQ(a.slotOf(*slot), 4 + i) << "ways fill in way order";
        Counted &e = a.install(slot, line);
        EXPECT_EQ(e.tag, line);
        EXPECT_EQ(a.peek(line), &e);
    }
    EXPECT_EQ(a.freeWay(lineIn(2, 1, 4)), nullptr) << "set 1 is full";
    EXPECT_NE(a.freeWay(lineIn(2, 0, 0)), nullptr) << "set 0 is empty";
    EXPECT_EQ(Counted::live, 4);

    // Installing over the LRU entry (line 0) destroys it exactly once.
    Counted &victim = a.lru(lineIn(2, 1, 4));
    EXPECT_EQ(victim.tag, lineIn(2, 1, 0));
    a.install(&victim, lineIn(2, 1, 4));
    EXPECT_EQ(Counted::destroyed, 1);
    EXPECT_EQ(Counted::live, 4);
    EXPECT_EQ(a.peek(lineIn(2, 1, 0)), nullptr);
    EXPECT_EQ(a.peek(lineIn(2, 1, 4)), &victim);
    EXPECT_EQ(a.lru(lineIn(2, 1, 0)).tag, lineIn(2, 1, 1));
}

TEST(SetArray, DropFreesTheWayAndForEachSeesOnlyLiveEntries)
{
    Counted::reset();
    SetArray<Counted> a("arr", 8 * kLineBytes, 4);
    for (std::uint64_t i = 0; i < 3; ++i) {
        const Addr line = lineIn(2, 0, i);
        a.install(a.freeWay(line), line);
    }
    a.install(a.freeWay(lineIn(2, 1, 0)), lineIn(2, 1, 0));

    Counted *mid = a.peek(lineIn(2, 0, 1));
    ASSERT_NE(mid, nullptr);
    const std::size_t midSlot = a.slotOf(*mid);
    a.drop(*mid);
    EXPECT_EQ(Counted::destroyed, 1);
    EXPECT_EQ(a.peek(lineIn(2, 0, 1)), nullptr);
    EXPECT_FALSE(a.holds(midSlot, lineIn(2, 0, 1)));
    EXPECT_EQ(a.slotOf(*a.freeWay(lineIn(2, 0, 9))), midSlot)
        << "the dropped way is the set's first free way";

    std::vector<Addr> seen;
    a.forEach([&seen](Counted &e) { seen.push_back(e.tag); });
    EXPECT_EQ(seen, (std::vector<Addr>{lineIn(2, 0, 0), lineIn(2, 0, 2),
                                       lineIn(2, 1, 0)}));
}

TEST(SetArray, DestructionDestroysExactlyTheLiveEntries)
{
    Counted::reset();
    {
        SetArray<Counted> a("arr", 8 * kLineBytes, 4);
        for (std::uint64_t i = 0; i < 5; ++i) {
            const Addr line = lineIn(2, i % 2, i);
            a.install(a.freeWay(line), line);
        }
        a.drop(*a.peek(lineIn(2, 0, 2)));
        EXPECT_EQ(Counted::live, 4);
        EXPECT_EQ(Counted::destroyed, 1);
    }
    EXPECT_EQ(Counted::live, 0);
    EXPECT_EQ(Counted::destroyed, 5);
}

TEST(SetArray, LruWhereAndFirstWhereSearchAFullSet)
{
    Counted::reset();
    SetArray<Counted> a("arr", 4 * kLineBytes, 4);
    for (std::uint64_t i = 0; i < 4; ++i)
        a.install(a.freeWay(lineIn(1, 0, i)), lineIn(1, 0, i));
    a.touch(*a.peek(lineIn(1, 0, 0))); // LRU order now 1, 2, 3, 0
    auto even = [](const Counted &e) { return e.tag / kLineBytes % 2 == 0; };
    EXPECT_EQ(a.lruWhere(lineIn(1, 0, 0), even)->tag, lineIn(1, 0, 2));
    EXPECT_EQ(a.firstWhere(lineIn(1, 0, 0), even)->tag, lineIn(1, 0, 0));
    auto none = [](const Counted &) { return false; };
    EXPECT_EQ(a.lruWhere(lineIn(1, 0, 0), none), nullptr);
    EXPECT_EQ(a.firstWhere(lineIn(1, 0, 0), none), nullptr);
    EXPECT_EQ(Counted::destroyed, 0);
}

TEST(SetArray, BadGeometryThrows)
{
    Counted::reset();
    EXPECT_THROW(SetArray<Counted>("arr", KiB(4), 0), std::invalid_argument);
    EXPECT_THROW(SetArray<Counted>("arr", KiB(4), kLruMaxWays + 1),
                 std::invalid_argument);
    EXPECT_THROW(SetArray<Counted>("arr", 3 * kLineBytes, 4),
                 std::invalid_argument);
    EXPECT_EQ(Counted::live + Counted::destroyed, 0);
}

} // namespace
} // namespace uhtm
