/**
 * @file
 * Durable-write path tests: the event-free batch behind every in-place
 * NVM image update (HtmSystem::enqueueDurableWrite / MemoryImage::queue
 * and apply) applies writes in (due, seq) order, gives crash
 * semantics at mid-run observation (only writes due by the frozen tick
 * are visible), does not depend on how often the image is observed,
 * and is the same path with or without a fault injector attached; and
 * the durable image, kept as the lines whose durable bytes lag the
 * store, equals a full image rebuilt from the in-place writes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "check/crash_oracle.hh"
#include "check/fault_injector.hh"
#include "harness/crash_sweep.hh"
#include "htm/tx_context.hh"
#include "sim/random.hh"

namespace uhtm
{
namespace
{

struct Fixture
{
    EventQueue eq;
    HtmSystem sys{eq, MachineConfig::tiny(), HtmPolicy::uhtmOpt(2048)};
    DomainId dom = sys.createDomain("p0");

    /** Non-transactional NVM store: writes in place, queues the
     *  durable-image update for the access's completion tick, and —
     *  like any real run, where the issuing worker's continuation is
     *  an event at the completion tick — advances simulated time past
     *  it, so successive writes see a monotone clock. */
    void
    write(Addr a, std::uint64_t v)
    {
        const auto r = sys.issueAccess(0, dom, a, true, false, v);
        eq.scheduleAt(r.completeAt, [] {});
        eq.run();
    }
};

constexpr Addr kNvm = MemLayout::kNvmBase + 0x40000;

TEST(DurableBatch, LastWriteToALineWins)
{
    Fixture f;
    f.write(kNvm, 1);
    f.write(kNvm, 2);
    f.write(kNvm + 8, 7); // same line, different word
    f.write(kNvm, 3);
    // All queued updates are due once the run drained; application in
    // (due, seq) order means the final values are the last ones.
    EXPECT_EQ(f.sys.durableNvm().read64(kNvm), 3u);
    EXPECT_EQ(f.sys.durableNvm().read64(kNvm + 8), 7u);
}

TEST(DurableBatch, LaterDueWriteWinsOverLaterIssuedWrite)
{
    // A non-transactional NVM store queues its durable update at the
    // access's own completion tick, so a store that misses to memory
    // is due after a later store to the same line that hits the L1.
    // The image applies them in (due, seq) order: the write that
    // completes last, here the first one issued, is what stays durable.
    Fixture f;
    const auto miss = f.sys.issueAccess(0, f.dom, kNvm, true, false, 1);
    const auto hit = f.sys.issueAccess(0, f.dom, kNvm, true, false, 2);
    ASSERT_GT(miss.completeAt, hit.completeAt)
        << "the second store must complete first for this test to "
           "reverse the issue order";
    EXPECT_EQ(f.sys.setupRead64(kNvm), 2u);
    EXPECT_EQ(f.sys.durableNvm().read64(kNvm), 1u)
        << "the later-due write must be applied last";
}

TEST(DurableBatch, CrashOracleExpectsTheApplyOrder)
{
    // The oracle records in-place writes at issue, so it must order
    // them by due tick as the image does: after two stores whose due
    // ticks reverse their issue order, recovery holds the first value
    // and that is what the oracle expects.
    Fixture f;
    FaultInjector fi(f.eq);
    CrashOracle oracle(f.sys);
    fi.setOracle(&oracle);
    f.sys.setFaultInjector(&fi);
    const auto miss = f.sys.issueAccess(0, f.dom, kNvm, true, false, 1);
    f.sys.issueAccess(0, f.dom, kNvm, true, false, 2);
    f.eq.scheduleAt(miss.completeAt, [] {});
    f.eq.run(); // both writes are due by the check's tick
    EXPECT_EQ(fi.countOf(PersistPoint::InPlaceNvmWrite), 2u);
    EXPECT_EQ(oracle.checkCrashAt(f.eq.now(), true, CrashOracle::kNoPoint),
              0u)
        << oracle.violations().front().detail;
    f.sys.setFaultInjector(nullptr);
}

TEST(DurableBatch, MidRunObservationSeesOnlyDueWrites)
{
    Fixture f;
    // Keep the event queue non-empty so durableHorizon() stays at the
    // current tick (crash semantics) instead of "everything".
    bool fired = false;
    f.eq.scheduleAt(1'000'000'000, [&] { fired = true; });

    f.sys.issueAccess(0, f.dom, kNvm, true, false, 42);
    // The in-place write completed architecturally, but its durable
    // image update is due strictly after now — a power failure at this
    // instant must not see it.
    EXPECT_EQ(f.sys.setupRead64(kNvm), 42u);
    EXPECT_EQ(f.sys.durableNvm().read64(kNvm), 0u)
        << "durable image ran ahead of the NVM write's completion";

    f.eq.run();
    EXPECT_TRUE(fired);
    EXPECT_EQ(f.sys.durableNvm().read64(kNvm), 42u)
        << "drained run must apply every queued durable write";
}

TEST(DurableBatch, ObservationFrequencyDoesNotChangeTheOutcome)
{
    // Two identical runs; one polls the durable image after every
    // store, the other only at the end. Observation flushes the batch,
    // so this exercises flush boundaries landing at arbitrary points.
    Fixture often, once;
    std::vector<Addr> lines;
    for (int i = 0; i < 24; ++i)
        lines.push_back(kNvm + static_cast<Addr>(i % 6) * kLineBytes);

    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::uint64_t v = 100 + i;
        often.write(lines[i], v);
        once.write(lines[i], v);
        (void)often.sys.durableNvm();
    }

    for (Addr a : lines) {
        EXPECT_EQ(often.sys.durableNvm().read64(a),
                  once.sys.durableNvm().read64(a));
        EXPECT_EQ(once.sys.durableNvm().read64(a),
                  once.sys.setupRead64(a))
            << "drained durable image must match architectural state";
    }
    EXPECT_EQ(often.eq.now(), once.eq.now())
        << "observing the image must not perturb simulated time";
    EXPECT_EQ(often.sys.stats().commits, once.sys.stats().commits);
}

TEST(DurableBatch, LargeBatchesStayBoundedAndComplete)
{
    // Enough distinct lines to trip the opportunistic flush threshold
    // several times; every line's final value must still land.
    Fixture f;
    const int kLines = 5000;
    for (int i = 0; i < kLines; ++i)
        f.write(kNvm + static_cast<Addr>(i) * kLineBytes,
                static_cast<std::uint64_t>(i) + 1);
    for (int i = 0; i < kLines; i += 97)
        EXPECT_EQ(f.sys.durableNvm().read64(kNvm + static_cast<Addr>(i) *
                                                       kLineBytes),
                  static_cast<std::uint64_t>(i) + 1);
}

/** Shape of one kv_hybrid run under cache pressure. */
struct RunShape
{
    std::uint64_t events;
    Tick end;
    std::uint64_t commits;
};

RunShape
kvHybridUnderCachePressure(bool attach_injector)
{
    MachineConfig m = MachineConfig::tiny();
    m.llcBytes = KiB(16);
    m.dramCacheBytes = KiB(16);
    Runner r(m, HtmPolicy::uhtmOpt(1024), 3);
    FaultInjector fi(r.eventQueue());
    if (attach_injector)
        r.system().setFaultInjector(&fi);
    CrashSweepRunner::kvHybridWorkload()(r);
    r.run();
    r.system().setFaultInjector(nullptr);
    return {r.eventQueue().executed(), r.eventQueue().now(),
            r.system().stats().commits};
}

TEST(DurableBatch, UnarmedInjectorDoesNotChangeTheRun)
{
    // Crash sweeps must check the durable-write path benchmarks run:
    // attaching an (unarmed) injector only observes, so the simulated
    // run is event-for-event and tick-for-tick the same.
    const RunShape plain = kvHybridUnderCachePressure(false);
    const RunShape probed = kvHybridUnderCachePressure(true);
    EXPECT_EQ(probed.events, plain.events);
    EXPECT_EQ(probed.end, plain.end);
    EXPECT_EQ(probed.commits, plain.commits);
    EXPECT_GT(plain.commits, 0u);
}

TEST(DurableImage, LagMatchesFullShadowImage)
{
    // The machine keeps the durable NVM image as the lines whose
    // durable bytes differ from the store. Rebuild the image as a full
    // BackingStore from the injector's in-place write notifications
    // (plus setup writes, durable at once), applied in (due, seq) order
    // up to each observation's horizon, and compare it line by line
    // under random concurrent traffic: commits, aborts,
    // non-transactional stores, setup writes and write-backs from
    // small caches, observed mid-run, after a drain and at a crash.
    MachineConfig cfg = MachineConfig::tiny();
    cfg.llcBytes = KiB(16);
    cfg.dramCacheBytes = KiB(16);
    EventQueue eq;
    HtmSystem sys(eq, cfg, HtmPolicy::uhtmOpt(2048));
    const DomainId dom = sys.createDomain("p0");
    const Addr nvm = MemLayout::kNvmBase + 0x40000;
    const Addr dram = MemLayout::kDramBase + 0x40000;
    // Twice the LLC's lines: lines keep leaving the LLC and the DRAM
    // cache, so in-place writes keep landing.
    const std::uint64_t span = 2 * sys.llc().capacityLines();

    struct Write
    {
        Tick due;
        Addr line;
        MemoryImage::Line bytes;
    };
    std::vector<Write> queued; // issue (seq) order
    BackingStore shadow;
    FaultInjector fi(eq);
    fi.setOnPoint([&](const PersistEvent &ev, const std::uint8_t *bytes) {
        if (ev.point != PersistPoint::InPlaceNvmWrite)
            return;
        Write w{ev.completeAt, ev.line, {}};
        std::copy(bytes, bytes + kLineBytes, w.bytes.begin());
        queued.push_back(w);
    });
    sys.setFaultInjector(&fi);

    std::size_t max_lag = 0;
    auto check = [&](const std::string &when) {
        const auto &view = sys.durableNvm();
        // The documented horizon: everything once the queue drained,
        // only what is due by now while events pend or after a crash.
        const Tick horizon = (!eq.empty() || eq.stopRequested())
                                 ? eq.now()
                                 : ~Tick(0);
        std::vector<std::pair<Tick, std::size_t>> due;
        std::vector<Write> later;
        for (std::size_t i = 0; i < queued.size(); ++i) {
            if (queued[i].due <= horizon)
                due.emplace_back(queued[i].due, i);
            else
                later.push_back(queued[i]);
        }
        std::sort(due.begin(), due.end());
        for (const auto &[tick, i] : due)
            shadow.writeLine(queued[i].line, queued[i].bytes.data());
        queued = std::move(later);

        const BackingStore image = view.image();
        for (std::uint64_t i = 0; i < span; ++i) {
            const Addr line = nvm + i * kLineBytes;
            MemoryImage::Line got, full, want;
            view.readLine(line, got.data());
            image.readLine(line, full.data());
            shadow.readLine(line, want.data());
            ASSERT_EQ(got, want) << when << ", line " << i;
            ASSERT_EQ(full, want) << when << ", image() line " << i;
        }
        for (const auto &[line, bytes] : view.lag()) {
            MemoryImage::Line cur;
            sys.store().readLine(line, cur.data());
            ASSERT_NE(bytes, cur) << when << ": a lag entry equals its "
                                     "store line, so the lag can grow "
                                     "without bound";
            ASSERT_EQ(MemLayout::kindOf(line), MemKind::Nvm) << when;
        }
        max_lag = std::max(max_lag, view.lag().size());
    };

    Rng rng(29);
    auto step = [&] {
        const CoreId core = static_cast<CoreId>(rng.below(cfg.cores));
        const std::uint64_t r = rng.below(1000);
        const Addr line = (rng.below(4) ? nvm : dram) +
                          rng.below(span) * kLineBytes;
        const Addr word = line + rng.below(kLineBytes / 8) * 8;
        if (sys.abortPending(core)) {
            sys.issueAbort(core);
        } else if (!sys.currentTx(core) && r < 300) {
            sys.beginTx(core, dom, 0);
        } else if (sys.currentTx(core) && r < 360) {
            sys.issueCommit(core);
        } else if (r < 380) {
            const std::uint64_t v = rng.next();
            sys.setupWrite64(word, v);
            if (MemLayout::kindOf(word) == MemKind::Nvm)
                shadow.write64(word, v);
        } else {
            sys.issueAccess(core, dom, word, rng.below(2) == 0,
                            rng.below(8) == 0, rng.next());
        }
        // Like a worker resuming at its access's completion: an event
        // at the next tick of interest moves the clock there.
        const Tick next = eq.now() + rng.below(ticksFromNs(300));
        eq.scheduleAt(next, [] {});
        eq.runUntil(next);
    };

    // A far-future event keeps the queue non-empty, so observations
    // see only the writes due by the current tick.
    eq.scheduleAt(eq.now() + ticksFromNs(1e9), [] {});
    for (int i = 0; i < 6000; ++i) {
        step();
        if (i % 97 == 0)
            check("mid-run step " + std::to_string(i));
    }
    for (CoreId c = 0; c < cfg.cores; ++c) {
        if (sys.abortPending(c))
            sys.issueAbort(c);
        else if (sys.currentTx(c))
            sys.issueCommit(c);
    }
    eq.run();
    check("drained");

    eq.scheduleAt(eq.now() + ticksFromNs(1e9), [] {});
    fi.armCrashAt(fi.pointCount() + 500);
    for (int i = 0; i < 20000 && !fi.crashed(); ++i)
        step();
    ASSERT_TRUE(fi.crashed());
    check("crash");

    // The traffic reached every writer of the store and the lag.
    const HtmStats &st = sys.stats();
    EXPECT_GT(st.commits, 0u);
    EXPECT_GT(st.totalAborts(), 0u);
    EXPECT_GT(fi.countOf(PersistPoint::InPlaceNvmWrite), 1000u);
    EXPECT_GT(sys.dramCache().stats().writeBacks, 0u);
    EXPECT_GT(max_lag, 0u);
    sys.setFaultInjector(nullptr);
}

} // namespace
} // namespace uhtm
