/**
 * @file
 * Plumbing tests: Tss/domain registry, Rng, CoTask propagation, memory
 * layout, burst accesses, and the TxContext statistics surface.
 */

#include <gtest/gtest.h>

#include <memory>

#include "htm/tx_context.hh"

namespace uhtm
{
namespace
{

TEST(Tss, AddRemoveAndDomainIndexing)
{
    Tss tss;
    const DomainId d0 = tss.createDomain("a");
    const DomainId d1 = tss.createDomain("b");
    ASSERT_EQ(tss.domainCount(), 2u);

    TxDesc *t1 = tss.add(std::make_unique<TxDesc>(1, 0, d0, 512, 4));
    TxDesc *t2 = tss.add(std::make_unique<TxDesc>(2, 1, d1, 512, 4));
    tss.add(std::make_unique<TxDesc>(3, 2, d0, 512, 4));
    EXPECT_EQ(tss.active().size(), 3u);
    EXPECT_EQ(tss.activeInDomain(d0).size(), 2u);
    EXPECT_EQ(tss.activeInDomain(d1).size(), 1u);
    EXPECT_EQ(tss.byId(2), t2);

    tss.remove(t1);
    EXPECT_EQ(tss.byId(1), nullptr);
    EXPECT_EQ(tss.activeInDomain(d0).size(), 1u);
}

TEST(Rng, DeterministicAndBounded)
{
    Rng a(1234), b(1234);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    Rng c(99);
    for (int i = 0; i < 10000; ++i) {
        const std::uint64_t v = c.below(17);
        EXPECT_LT(v, 17u);
        const std::uint64_t r = c.range(5, 9);
        EXPECT_GE(r, 5u);
        EXPECT_LE(r, 9u);
        const double u = c.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, RoughlyUniform)
{
    Rng r(7);
    unsigned buckets[8] = {};
    for (int i = 0; i < 80000; ++i)
        ++buckets[r.below(8)];
    for (unsigned b : buckets) {
        EXPECT_GT(b, 9000u);
        EXPECT_LT(b, 11000u);
    }
}

TEST(Layout, RegionsAndKinds)
{
    EXPECT_EQ(MemLayout::kindOf(MemLayout::kDramBase), MemKind::Dram);
    EXPECT_EQ(MemLayout::kindOf(MemLayout::kNvmBase), MemKind::Nvm);
    EXPECT_TRUE(MemLayout::isSoftwareVisible(MemLayout::kDramBase));
    EXPECT_FALSE(MemLayout::isSoftwareVisible(MemLayout::kDramLogBase))
        << "log areas are not software visible";
    EXPECT_TRUE(MemLayout::isLogArea(MemLayout::kNvmLogBase));
    EXPECT_STREQ(memKindName(MemKind::Nvm), "NVM");
}

TEST(Layout, LineHelpers)
{
    EXPECT_EQ(lineAlign(0x1234), 0x1200u);
    EXPECT_EQ(lineNumber(0x1240), 0x49u);
    EXPECT_EQ(ticksFromNs(1.5), 1500u);
    EXPECT_DOUBLE_EQ(nsFromTicks(1500), 1.5);
    EXPECT_DOUBLE_EQ(secondsFromTicks(1000000000000ull), 1.0);
}

TEST(CoTask, ValuesAndExceptionsPropagate)
{
    EventQueue eq;
    auto leaf = [](int x) -> CoTask<int> { co_return x * 2; };
    auto thrower = []() -> CoTask<int> {
        throw TxAborted{};
        co_return 0;
    };
    int got = 0;
    bool caught = false;
    // Named: the coroutine frame refers to the closure's captures, so
    // the closure must outlive the task.
    auto body = [&](bool &c) -> Task {
        got = co_await leaf(21);
        try {
            co_await thrower();
        } catch (const TxAborted &) {
            c = true;
        }
    };
    Task root = body(caught);
    root.start();
    eq.run();
    EXPECT_EQ(got, 42);
    EXPECT_TRUE(caught);
}

TEST(CoTask, DeepRecursionThroughCoroutines)
{
    // Recursive CoTask calls (as the B+tree validator uses) must chain
    // through symmetric transfer without growing the host stack.
    std::function<CoTask<std::uint64_t>(std::uint64_t)> fib_fn;
    struct Fib
    {
        static CoTask<std::uint64_t>
        run(std::uint64_t n)
        {
            if (n < 2)
                co_return n;
            co_return co_await run(n - 1) + co_await run(n - 2);
        }
    };
    std::uint64_t out = 0;
    auto body = [&]() -> Task { out = co_await Fib::run(15); };
    Task root = body();
    root.start();
    EXPECT_EQ(out, 610u);
}

TEST(CoTaskDeathTest, ExceptionEscapingStartedRootTerminates)
{
    // An awaited task hands its exception to the awaiter; a started
    // root has no awaiter, so the exception must not vanish.
    auto body = []() -> Task {
        throw TxAborted{};
        co_return;
    };
    EXPECT_DEATH(
        {
            Task root = body();
            root.start();
        },
        "");
}

TEST(Burst, TouchesAllLinesOfTheRange)
{
    EventQueue eq;
    HtmSystem sys(eq, MachineConfig::tiny(), HtmPolicy::uhtmOpt(2048));
    const DomainId dom = sys.createDomain("p0");
    TxContext ctx(sys, 0, dom);
    const Addr base = MemLayout::kDramBase + MiB(4);

    bool done = false;
    auto root = [](TxContext &c, Addr b, bool &f) -> Task {
        co_await c.burst(b, 16, false);
        f = true;
    }(ctx, base, done);
    root.start();
    eq.run();
    ASSERT_TRUE(done);
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_NE(sys.llc().peek(base + i * kLineBytes), nullptr);
    EXPECT_GT(eq.now(), 0u);
}

TEST(TxContext, StatsCountCommitsAndAborts)
{
    EventQueue eq;
    HtmSystem sys(eq, MachineConfig::tiny(), HtmPolicy::uhtmOpt(2048));
    const DomainId dom = sys.createDomain("p0");
    TxContext ctx(sys, 0, dom, 21);
    const Addr a = MemLayout::kDramBase + 0x5000;

    bool done = false;
    auto root = [](TxContext &c, HtmSystem &sys, Addr addr,
                   bool &f) -> Task {
        int attempt = 0;
        co_await c.run([&](TxContext &t) -> CoTask<void> {
            co_await t.write64(addr, 5);
            if (attempt++ == 0) {
                sys.requestAbortForTest(sys.currentTx(t.core()));
                co_await t.read64(addr);
            }
        });
        f = true;
    }(ctx, sys, a, done);
    root.start();
    eq.run();
    ASSERT_TRUE(done);
    EXPECT_EQ(ctx.stats().commits, 1u);
    EXPECT_EQ(ctx.stats().aborts, 1u);
    EXPECT_EQ(ctx.lastAbortCause(), AbortCause::Explicit);
    EXPECT_EQ(sys.setupRead64(a), 5u);
}

TEST(HtmStats, AggregationHelpers)
{
    HtmStats s;
    s.commits = 6;
    s.aborts[static_cast<int>(AbortCause::FalsePositive)] = 2;
    s.aborts[static_cast<int>(AbortCause::Capacity)] = 2;
    EXPECT_EQ(s.totalAborts(), 4u);
    EXPECT_DOUBLE_EQ(s.abortRate(), 0.4);
    EXPECT_EQ(s.abortsOf(AbortCause::Capacity), 2u);
}

} // namespace
} // namespace uhtm
