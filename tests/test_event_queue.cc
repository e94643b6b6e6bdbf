/**
 * @file
 * EventQueue unit tests: ordering, determinism, time advance.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <queue>
#include <vector>

#include "sim/event_queue.hh"

namespace uhtm
{
namespace
{

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(300, [&] { order.push_back(3); });
    eq.schedule(100, [&] { order.push_back(1); });
    eq.schedule(200, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 300u);
    EXPECT_EQ(eq.executed(), 3u);
}

TEST(EventQueue, SameTickRunsInSchedulingOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(50, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CallbackMaySchedule)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] {
        ++fired;
        eq.schedule(10, [&] { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 20u);
}

TEST(EventQueue, ScheduleInPastClampsToNow)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    ASSERT_EQ(eq.now(), 100u);
    bool ran = false;
    eq.scheduleAt(50, [&] { ran = true; });
    eq.step();
    EXPECT_TRUE(ran);
    EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(100, [&] { ++fired; });
    eq.schedule(200, [&] { ++fired; });
    eq.schedule(300, [&] { ++fired; });
    eq.runUntil(200);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(fired, 3);
}

TEST(EventQueue, RunWhileHonoursPredicate)
{
    EventQueue eq;
    int fired = 0;
    for (int i = 0; i < 10; ++i)
        eq.schedule(10 * (i + 1), [&] { ++fired; });
    eq.runWhile([&] { return fired < 4; });
    EXPECT_EQ(fired, 4);
}

TEST(EventQueue, StepOnEmptyReturnsFalse)
{
    EventQueue eq;
    EXPECT_FALSE(eq.step());
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, StopRequestFreezesAndClearStopResumes)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] {
        ++fired;
        eq.requestStop();
    });
    eq.schedule(20, [&] { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.stopRequested());
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_EQ(eq.now(), 10u);
    eq.clearStop();
    EXPECT_FALSE(eq.stopRequested());
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 20u);
}

TEST(EventQueue, StopRequestHaltsRunUntilAndRunWhile)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] {
        ++fired;
        eq.requestStop();
    });
    eq.schedule(20, [&] { ++fired; });
    eq.runUntil(100);
    EXPECT_EQ(fired, 1);
    eq.clearStop();
    eq.schedule(5, [&] {
        ++fired;
        eq.requestStop();
    });
    eq.runWhile([] { return true; });
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.pending(), 1u);
}

TEST(EventQueue, OrderSurvivesBucketRingWraparound)
{
    // Advance close to a power-of-two horizon, then schedule events on
    // both sides of it. Tick order, not the tick's low bits, must
    // decide execution order.
    constexpr Tick kHorizon = Tick(1) << 18;
    EventQueue eq;
    const Tick base = kHorizon - 10;
    eq.schedule(base, [] {});
    eq.run();
    ASSERT_EQ(eq.now(), base);

    std::vector<int> order;
    eq.scheduleAt(base + 25, [&] { order.push_back(3); }); // wrapped
    eq.scheduleAt(base + 5, [&] { order.push_back(1); });  // not wrapped
    eq.scheduleAt(base + 15, [&] { order.push_back(2); }); // wrapped
    eq.scheduleAt(base + 25, [&] { order.push_back(4); }); // same-tick FIFO
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(eq.now(), base + 25);
}

TEST(EventQueue, FarFutureEventsKeepSchedulingOrderOnTickTies)
{
    // An event is scheduled far ahead. When time advances close to it
    // and a second event is scheduled for the *same* tick, the far
    // event was scheduled first and must still run first.
    constexpr Tick kHorizon = Tick(1) << 18;
    EventQueue eq;
    const Tick far_tick = kHorizon + 100;
    std::vector<int> order;
    eq.scheduleAt(far_tick, [&] { order.push_back(1); });
    eq.scheduleAt(far_tick - 50, [&] {
        // Same tick, scheduled later.
        eq.scheduleAt(far_tick, [&] { order.push_back(2); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(eq.now(), far_tick);
}

TEST(EventQueue, FarFutureChainsDrainInTickOrder)
{
    // Several far-ahead events at distinct ticks interleave correctly
    // with a near one.
    constexpr Tick kHorizon = Tick(1) << 18;
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(3 * kHorizon, [&] { order.push_back(4); });
    eq.scheduleAt(kHorizon + 1,
                  [&] { order.push_back(2); });
    eq.scheduleAt(7, [&] { order.push_back(1); });
    eq.scheduleAt(2 * kHorizon,
                  [&] { order.push_back(3); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueue, RandomizedDifferentialAgainstReferenceHeap)
{
    // Drive >10^6 mixed schedule/step operations and check every pop
    // against a reference (tick, seq) priority queue. Delays mix heavy
    // same-tick ties, values below a 2^18-tick horizon, values around
    // it and far multiples of it.
    constexpr Tick kHorizon = Tick(1) << 18;
    EventQueue eq;

    struct Ref
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t id;
    };
    struct RefAfter
    {
        bool
        operator()(const Ref &a, const Ref &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };
    std::priority_queue<Ref, std::vector<Ref>, RefAfter> ref;

    std::uint64_t rng = 0x9e3779b97f4a7c15ull;
    auto rnd = [&rng] {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<std::uint32_t>(rng >> 33);
    };

    constexpr std::size_t kSchedules = 600000;
    std::uint64_t seq = 0;
    std::uint32_t next_id = 0;
    std::vector<std::uint32_t> got;
    got.reserve(4);

    std::size_t scheduled = 0;
    while (scheduled < kSchedules || !ref.empty()) {
        const bool do_schedule =
            scheduled < kSchedules && (ref.empty() || rnd() % 2 == 0);
        if (do_schedule) {
            Tick delay = 0;
            switch (rnd() % 10) {
              case 0:
              case 1:
              case 2:
              case 3:
                delay = rnd() % 256; // dense ties
                break;
              case 4:
              case 5:
              case 6:
                delay = rnd() % (kHorizon - 1);
                break;
              case 7:
              case 8:
                delay = kHorizon - 2 + rnd() % 4;
                break;
              default:
                delay = static_cast<Tick>(1 + rnd() % 4) *
                            kHorizon +
                        rnd() % 1000;
                break;
            }
            const Tick when = eq.now() + delay;
            const std::uint32_t id = next_id++;
            eq.scheduleAt(when, [&got, id] { got.push_back(id); });
            ref.push(Ref{when, seq++, id});
            ++scheduled;
        } else {
            got.clear();
            ASSERT_TRUE(eq.step());
            const Ref expect = ref.top();
            ref.pop();
            ASSERT_EQ(got.size(), 1u);
            ASSERT_EQ(got[0], expect.id);
            ASSERT_EQ(eq.now(), expect.when);
        }
    }
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.executed(), kSchedules);
}

/** Written by the full-size capture test's callback (not captured). */
std::uint64_t g_captured[4];

TEST(EventQueue, FullSizeCaptureReachesCallbackIntact)
{
    // A capture of exactly kCaptureBytes (four uint64_t) is stored
    // inline and must reach its callback byte for byte, also after
    // heap reordering moves the event around.
    EventQueue eq;
    const std::uint64_t a = 0x0123456789abcdefull, b = ~a,
                        c = 0xfeedfacecafebeefull, d = a ^ c;
    auto cb = [a, b, c, d] {
        g_captured[0] = a;
        g_captured[1] = b;
        g_captured[2] = c;
        g_captured[3] = d;
    };
    static_assert(sizeof(cb) == EventQueue::kCaptureBytes);
    for (int i = 0; i < 8; ++i)
        eq.schedule(100 - i, [] {});
    eq.schedule(50, cb);
    eq.run();
    EXPECT_EQ(g_captured[0], a);
    EXPECT_EQ(g_captured[1], b);
    EXPECT_EQ(g_captured[2], c);
    EXPECT_EQ(g_captured[3], d);
}

} // namespace
} // namespace uhtm
