/**
 * @file
 * Crash-point sweep tests: exhaustive enumeration of the machine's
 * persistence-ordering points on the hybrid KV and B+tree workloads,
 * with the CrashOracle's durability / atomicity / rollback invariants
 * checked at every point; a deliberately broken commit-mark ordering
 * must be caught and shrink to a replayable crash point; replays are
 * deterministic.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "check/crash_oracle.hh"
#include "harness/crash_sweep.hh"
#include "htm/htm_system.hh"
#include "htm/tx_context.hh"

namespace uhtm
{
namespace
{

std::string
describe(const CrashSweepResult &res, std::size_t limit = 5)
{
    std::string s;
    std::size_t n = 0;
    for (const auto &v : res.violations) {
        if (n++ >= limit) {
            s += "  ...\n";
            break;
        }
        s += "  point=" + std::to_string(v.pointIndex) + " " + v.kind +
             ": " + v.detail + "\n";
    }
    return s;
}

TEST(CrashSweep, KvHybridEveryPointSatisfiesOracles)
{
    CrashSweepConfig cfg;
    CrashSweepRunner runner(cfg, CrashSweepRunner::kvHybridWorkload());
    const CrashSweepResult res = runner.sweep();

    // Acceptance: the schedule is dense (>= 200 distinct points) and
    // covers the interesting kinds.
    EXPECT_GE(res.points, 200u);
    EXPECT_GT(res.linesTracked, 0u);
    using P = PersistPoint;
    EXPECT_GT(res.pointsByKind[static_cast<std::size_t>(P::RedoLogAppend)],
              0u);
    EXPECT_GT(res.pointsByKind[static_cast<std::size_t>(P::CommitMark)],
              0u);
    EXPECT_GT(
        res.pointsByKind[static_cast<std::size_t>(P::InPlaceNvmWrite)],
        0u);

    EXPECT_TRUE(res.passed()) << res.violations.size()
                              << " violations:\n" << describe(res);
}

/** One system x workload cell of the cache-pressure sweep matrix. */
struct PressureCase
{
    const char *system;
    HtmPolicy policy;
    const char *workload;
};

void
PrintTo(const PressureCase &c, std::ostream *os)
{
    *os << c.system << "/" << c.workload;
}

class CrashSweepUnderCachePressure
    : public ::testing::TestWithParam<PressureCase>
{
};

TEST_P(CrashSweepUnderCachePressure, EveryPointSatisfiesOracles)
{
    // Shrink the LLC and DRAM cache so transactional lines overflow:
    // exercises undo logging, early eviction and uncommitted drops on
    // every evaluated system, through the same batched durable-write
    // path the benchmarks run.
    const PressureCase &c = GetParam();
    CrashSweepConfig cfg;
    cfg.mcfg.llcBytes = KiB(16);
    cfg.mcfg.dramCacheBytes = KiB(16);
    cfg.policy = c.policy;
    cfg.seed = 3;
    const bool kv = std::string(c.workload) == "kv_hybrid";
    CrashSweepRunner runner(cfg, kv ? CrashSweepRunner::kvHybridWorkload()
                                    : CrashSweepRunner::btreeWorkload());
    const CrashSweepResult res = runner.sweep();

    EXPECT_GE(res.points, 200u);
    EXPECT_TRUE(res.passed()) << res.violations.size()
                              << " violations:\n" << describe(res);
    // kv_hybrid's NVM values overflow the 16 KiB DRAM cache, so its
    // schedule carries in-place NVM writes. The B+tree's NVM lines are
    // never evicted from the DRAM cache: it records no in-place write
    // and no write-back point, and covers the log and mark points.
    if (kv) {
        EXPECT_GT(res.pointsByKind[static_cast<std::size_t>(
                      PersistPoint::InPlaceNvmWrite)],
                  0u);
    }
}

std::string
pressureCaseName(const ::testing::TestParamInfo<PressureCase> &info)
{
    return std::string(info.param.system) + "_" + info.param.workload;
}

/** The paper's five systems, each over both canned workloads. */
std::vector<PressureCase>
pressureCases()
{
    const std::pair<const char *, HtmPolicy> systems[] = {
        {"llcBounded", HtmPolicy::llcBounded()},
        {"signatureOnly", HtmPolicy::signatureOnly(1024)},
        {"uhtmSig", HtmPolicy::uhtmSig(1024)},
        {"uhtmOpt", HtmPolicy::uhtmOpt(1024)},
        {"ideal", HtmPolicy::ideal()},
    };
    std::vector<PressureCase> cases;
    for (const char *workload : {"kv_hybrid", "btree"})
        for (const auto &[name, policy] : systems)
            cases.push_back(PressureCase{name, policy, workload});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(Systems, CrashSweepUnderCachePressure,
                         ::testing::ValuesIn(pressureCases()),
                         pressureCaseName);

TEST(CrashSweep, BTreeEveryPointSatisfiesOracles)
{
    CrashSweepConfig cfg;
    cfg.seed = 2;
    CrashSweepRunner runner(cfg, CrashSweepRunner::btreeWorkload());
    const CrashSweepResult res = runner.sweep();

    EXPECT_GE(res.points, 200u);
    EXPECT_GT(res.linesTracked, 0u);
    EXPECT_TRUE(res.passed()) << describe(res);
}

TEST(CrashSweep, ReplayIsDeterministic)
{
    CrashSweepConfig cfg;
    CrashSweepRunner runner(cfg, CrashSweepRunner::kvHybridWorkload());
    const CrashSweepResult swept = runner.sweep();
    ASSERT_GT(swept.points, 200u);

    // Replaying the same crash point twice freezes the machine at the
    // same tick with the same schedule prefix and the same verdict.
    const std::uint64_t k = swept.points / 2;
    const CrashSweepResult a = runner.replay(k);
    const CrashSweepResult b = runner.replay(k);
    EXPECT_GT(a.crashTick, 0u);
    EXPECT_EQ(a.crashTick, b.crashTick);
    EXPECT_EQ(a.points, b.points);
    EXPECT_EQ(a.violations.size(), b.violations.size());
    EXPECT_TRUE(a.passed()) << describe(a);

    // The replayed prefix matches the sweep's schedule tick-for-tick.
    EXPECT_LE(a.points, swept.points);
}

TEST(CrashSweep, ReplayEveryEarlyPointPasses)
{
    // Real-crash spot checks (full machine freeze + full-image oracle)
    // across the schedule, not just the sweep's in-run checks.
    CrashSweepConfig cfg;
    CrashSweepRunner runner(cfg, CrashSweepRunner::kvHybridWorkload());
    const CrashSweepResult swept = runner.sweep();
    ASSERT_TRUE(swept.passed()) << describe(swept);

    for (std::uint64_t k = 1; k < swept.points; k = k * 2 + 7) {
        const CrashSweepResult rep = runner.replay(k);
        EXPECT_TRUE(rep.passed())
            << "crash at point " << k << ":\n" << describe(rep);
    }
}

TEST(CrashSweep, BrokenCommitMarkOrderingIsCaught)
{
    // The guarded test-only toggle issues the commit mark without
    // waiting for the redo log to drain; a crash inside the resulting
    // window finds a durable commit record with torn member records.
    CrashSweepConfig cfg;
    cfg.breakCommitMarkOrdering = true;
    CrashSweepRunner runner(cfg, CrashSweepRunner::kvHybridWorkload());
    const CrashSweepResult res = runner.sweep();

    ASSERT_FALSE(res.passed())
        << "the oracle must detect broken commit-mark ordering";
    bool durability = false;
    for (const auto &v : res.violations)
        durability |= std::string(v.kind) == "durability";
    EXPECT_TRUE(durability)
        << "torn-log windows are durability violations:\n"
        << describe(res);

    // Shrink to a minimal reproducing schedule and confirm by replay.
    const std::uint64_t k = runner.shrink(res);
    ASSERT_NE(k, CrashOracle::kNoPoint);
    EXPECT_EQ(k, res.minFailingPoint())
        << "the smallest flagged point must reproduce under replay";
    const CrashSweepResult rep = runner.replay(k);
    EXPECT_FALSE(rep.passed());

    // The same schedule with the toggle off is clean.
    cfg.breakCommitMarkOrdering = false;
    CrashSweepRunner fixed(cfg, CrashSweepRunner::kvHybridWorkload());
    EXPECT_TRUE(fixed.sweep().passed());
}

TEST(CrashSweep, SweepTracksTornEntriesOnlyWhenBroken)
{
    // Indirect probe of the replay semantics: a correct run never
    // produces torn records (commit marks wait for the log to drain).
    CrashSweepConfig cfg;
    CrashSweepRunner good(cfg, CrashSweepRunner::kvHybridWorkload());
    const CrashSweepResult res = good.sweep();
    EXPECT_TRUE(res.passed()) << describe(res);

    cfg.breakCommitMarkOrdering = true;
    CrashSweepRunner bad(cfg, CrashSweepRunner::kvHybridWorkload());
    EXPECT_FALSE(bad.sweep().passed());
}

/** Rollback violations the oracle reports for an aborted DRAM line
 *  whose undo record holds @p undo_fill bytes, against a pre-image of
 *  zeros (the untouched store) and a speculative image the store does
 *  not hold. */
std::vector<CrashOracle::Violation>
rollbackViolations(std::uint8_t undo_fill)
{
    EventQueue eq;
    HtmSystem sys(eq, MachineConfig::tiny(), HtmPolicy::uhtmOpt(2048));
    CrashOracle oracle(sys);
    const Addr line = MemLayout::kDramBase + 0x40000;
    FaultInjector::AbortedTx rec;
    rec.tx = 1;
    UndoEntry e{line, {}};
    e.oldData.fill(undo_fill);
    rec.undoEntries.push_back(e);
    FaultInjector::AbortedLine al{line, {}, {}};
    al.specImage.fill(0x5a);
    rec.lines.push_back(al);
    oracle.onTxAborted(rec);
    return oracle.violations();
}

TEST(CrashOracle, RollbackFlagsANonPreTransactionUndoImage)
{
    const auto v = rollbackViolations(0x11);
    ASSERT_EQ(v.size(), 1u);
    EXPECT_STREQ(v[0].kind, "rollback");
    EXPECT_EQ(v[0].line, MemLayout::kDramBase + 0x40000);
    EXPECT_EQ(v[0].detail, "undo record holds a non-pre-transaction image");
}

TEST(CrashOracle, RollbackAcceptsThePreTransactionUndoImage)
{
    EXPECT_TRUE(rollbackViolations(0).empty());
}

TEST(CrashOracle, DrainFlagsExactlyTheLinesTheDramCacheHoldsBack)
{
    // A committed transaction's NVM lines stay dirty in the DRAM cache,
    // so until they are written back in-place NVM lags the store on
    // exactly those lines. A setup write is durable at once and a DRAM
    // line has no durable image, so neither is flagged.
    EventQueue eq;
    HtmSystem sys(eq, MachineConfig::tiny(), HtmPolicy::uhtmOpt(2048));
    CrashOracle oracle(sys);
    const DomainId dom = sys.createDomain("p0");
    const Addr nvm = MemLayout::kNvmBase + MiB(4);
    const Addr dram = MemLayout::kDramBase + MiB(4);
    sys.setupWrite64(nvm + 64 * kLineBytes, 7);

    TxContext ctx(sys, 0, dom, 1);
    auto driver = [&]() -> Task {
        co_await ctx.run([&](TxContext &c) -> CoTask<void> {
            for (unsigned i = 0; i < 4; ++i)
                co_await c.write64(nvm + i * kLineBytes, 0x100 + i);
            co_await c.write64(dram, 1);
        });
    };
    Task t = driver();
    t.start();
    eq.run();

    std::vector<Addr> held;
    sys.dramCache().forEach([&](DramCacheEntry &e) {
        if (e.committedDirty())
            held.push_back(e.tag);
    });
    std::sort(held.begin(), held.end());
    ASSERT_EQ(held.size(), 4u);

    EXPECT_EQ(oracle.checkDrained(), held.size());
    std::vector<Addr> flagged;
    for (const auto &v : oracle.violations()) {
        EXPECT_STREQ(v.kind, "drain");
        flagged.push_back(v.line);
    }
    EXPECT_EQ(flagged, held);
    EXPECT_EQ(oracle.checksRun(), 0u) << "the drain rule is not a check";

    // Written back, in-place NVM equals the store.
    sys.flushDramCache();
    EXPECT_EQ(oracle.checkDrained(), 0u);
}

/** FNV-1a over each point's (kind, line, issue tick, durable tick). */
std::uint64_t
scheduleDigest(const std::vector<PersistEvent> &schedule)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i, v >>= 8) {
            h ^= v & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    for (const PersistEvent &ev : schedule) {
        mix(static_cast<std::uint64_t>(ev.point));
        mix(ev.line);
        mix(ev.issueTick);
        mix(ev.completeAt);
    }
    return h;
}

TEST(CrashSweep, SchedulePinned)
{
    // The crash schedule numbers persist points in notification order
    // and an armed crash is scheduled when its point is notified, so a
    // change that reorders, adds or drops a point, or moves one in
    // time, renumbers every later crash. The constants pin the
    // schedules point for point. The cache-pressure cases add the
    // DRAM-cache write-backs that the default caches never make; the
    // last one shrinks the DRAM cache to two ways, so that speculative
    // entries are evicted too (DRAM-cache drops).
    struct Case
    {
        const char *name;
        bool kv;
        /** LLC bytes, DRAM-cache bytes and ways; 0 keeps the tiny
         *  machine's geometry and seed 1. */
        std::uint64_t llcBytes, dramCacheBytes;
        unsigned dramCacheWays;
        std::uint64_t txPerWorker;
        std::uint64_t points;
        std::uint64_t digest;
    };
    const Case cases[] = {
        {"kv_hybrid", true, 0, 0, 0, 4, 1828, 0x034626b748a71782ull},
        {"btree", false, 0, 0, 0, 6, 888, 0x32076773cde42166ull},
        {"kv_hybrid under cache pressure", true, KiB(16), KiB(16), 0, 4,
         3658, 0xfaf876e655dfb956ull},
        {"kv_hybrid with DRAM-cache drops", true, KiB(8), KiB(1), 2, 6,
         5744, 0x9a52f40dcc205e24ull},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        CrashSweepConfig cfg;
        if (c.llcBytes) {
            cfg.mcfg.llcBytes = c.llcBytes;
            cfg.mcfg.dramCacheBytes = c.dramCacheBytes;
            if (c.dramCacheWays)
                cfg.mcfg.dramCacheWays = c.dramCacheWays;
            cfg.seed = 3;
        }
        CrashSweepRunner runner(
            cfg, c.kv ? CrashSweepRunner::kvHybridWorkload(3, c.txPerWorker)
                      : CrashSweepRunner::btreeWorkload(3, c.txPerWorker));
        const CrashSweepResult res = runner.sweep();
        EXPECT_TRUE(res.passed()) << describe(res);
        EXPECT_EQ(res.points, c.points);
        EXPECT_EQ(scheduleDigest(res.schedule), c.digest);
        if (c.dramCacheWays) {
            EXPECT_GT(res.pointsByKind[static_cast<std::size_t>(
                          PersistPoint::DramCacheDrop)],
                      0u);
        }
    }
}

} // namespace
} // namespace uhtm
