/**
 * @file
 * End-to-end tests per HTM policy: the serialized slow path, functional
 * equivalence of the undo and redo DRAM logging modes, the
 * Signature-Only baseline, and lock-based domain preemption.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "check/fault_injector.hh"
#include "exec/result_sink.hh"
#include "exec/scheduler.hh"
#include "harness/experiments.hh"
#include "harness/figures.hh"
#include "workloads/hashmap.hh"

namespace uhtm
{
namespace
{

/**
 * Run the same contended multi-worker hashmap workload under @p policy
 * and return the final (key -> value) state.
 */
std::map<std::uint64_t, std::uint64_t>
runWorkload(const HtmPolicy &policy, HtmStats *stats_out = nullptr)
{
    EventQueue eq;
    HtmSystem sys(eq, MachineConfig::tiny(), policy);
    RegionAllocator regions;
    const DomainId dom = sys.createDomain("p0");
    SimHashMap map(sys, regions, MemKind::Dram, 64);

    constexpr unsigned kWorkers = 4;
    std::vector<std::unique_ptr<TxContext>> ctxs;
    std::vector<std::unique_ptr<TxAllocator>> allocs;
    for (unsigned w = 0; w < kWorkers; ++w) {
        ctxs.push_back(std::make_unique<TxContext>(sys, w, dom, 51 + w));
        allocs.push_back(std::make_unique<TxAllocator>(
            sys, regions, MemKind::Dram, MiB(32)));
    }

    auto worker = [&](TxContext &c, TxAllocator &al,
                      std::uint64_t base) -> Task {
        Rng r(base * 131);
        for (int i = 0; i < 30; ++i) {
            // Overlapping keys force conflicts; the 24KB batch
            // footprint x4 workers exceeds the tiny 64KB LLC, so the
            // bounded policy sees capacity overflows.
            const std::uint64_t key = 1 + r.below(48);
            co_await c.run([&](TxContext &t) -> CoTask<void> {
                Addr blob = 0;
                for (int j = 0; j < 24; ++j)
                    blob = co_await writeValueBlob(t, al, KiB(1), base);
                co_await map.insert(t, al, key, blob);
            });
        }
    };
    std::vector<Task> tasks;
    for (unsigned w = 0; w < kWorkers; ++w)
        tasks.push_back(worker(*ctxs[w], *allocs[w], w + 1));
    for (auto &t : tasks)
        t.start();
    eq.run();

    std::string why;
    EXPECT_TRUE(map.validateFunctional(&why)) << why;
    EXPECT_EQ(sys.stats().commits, kWorkers * 30u);
    if (stats_out)
        *stats_out = sys.stats();

    std::map<std::uint64_t, std::uint64_t> out;
    for (std::uint64_t k : map.keysFunctional())
        out[k] = 1; // presence only: values race by design
    return out;
}

TEST(Policies, BoundedSerializesButStaysCorrect)
{
    HtmStats stats;
    auto state = runWorkload(HtmPolicy::llcBounded(), &stats);
    EXPECT_FALSE(state.empty());
    // The tiny 64KB LLC cannot hold 4 concurrent 15KB+ write sets plus
    // the map: capacity aborts and slow-path commits must appear.
    EXPECT_GT(stats.abortsOf(AbortCause::Capacity), 0u);
    EXPECT_GT(stats.serializedCommits, 0u);
}

TEST(Policies, SignatureOnlyIsCorrectDespiteFalsePositives)
{
    HtmStats stats;
    auto state = runWorkload(HtmPolicy::signatureOnly(512), &stats);
    EXPECT_FALSE(state.empty());
    EXPECT_GT(stats.sigChecks, 0u);
}

TEST(Policies, UhtmAndIdealAvoidCapacityAborts)
{
    for (const auto &policy :
         {HtmPolicy::uhtmOpt(2048), HtmPolicy::ideal()}) {
        HtmStats stats;
        runWorkload(policy, &stats);
        EXPECT_EQ(stats.abortsOf(AbortCause::Capacity), 0u);
        EXPECT_GT(stats.overflowedTxs, 0u)
            << "the tiny LLC must overflow; UHTM absorbs it";
    }
}

TEST(Policies, UndoAndRedoDramLoggingAgreeFunctionally)
{
    HtmPolicy undo = HtmPolicy::uhtmOpt(2048);
    undo.dramLog = DramOverflowLog::Undo;
    HtmPolicy redo = HtmPolicy::uhtmOpt(2048);
    redo.dramLog = DramOverflowLog::Redo;
    // Identical seeds and workloads: the logging mode affects timing,
    // never the committed state.
    auto a = runWorkload(undo);
    auto b = runWorkload(redo);
    EXPECT_EQ(a, b);
}

TEST(Policies, SerializedTxCannotBeAborted)
{
    EventQueue eq;
    HtmSystem sys(eq, MachineConfig::tiny(), HtmPolicy::llcBounded());
    const DomainId dom = sys.createDomain("p0");

    TxDesc *ser = sys.beginSerializedTx(0, dom, 0);
    EXPECT_TRUE(sys.domainLocked(dom));
    EXPECT_FALSE(sys.requestAbortForTest(ser));
    // Serialized transactions overflow freely without aborting.
    const Addr base = MemLayout::kDramBase + 0x40000;
    const std::uint64_t lines =
        sys.llc().capacityLines() + sys.llc().ways();
    for (std::uint64_t i = 0; i < lines; ++i) {
        sys.issueAccess(0, dom, base + i * kLineBytes, true, true, 1);
        eq.run();
    }
    EXPECT_FALSE(ser->abortRequested);
    sys.issueCommit(0);
    eq.run();
    EXPECT_FALSE(sys.domainLocked(dom)) << "commit releases the lock";
    EXPECT_EQ(sys.stats().serializedCommits, 1u);
}

TEST(Policies, LockPreemptsRunningTransactions)
{
    EventQueue eq;
    HtmSystem sys(eq, MachineConfig::tiny(), HtmPolicy::llcBounded());
    const DomainId dom = sys.createDomain("p0");
    const DomainId other = sys.createDomain("p1");

    TxDesc *fast = sys.beginTx(0, dom, 0);
    TxDesc *foreign = sys.beginTx(2, other, 0);
    sys.beginSerializedTx(1, dom, 0);
    EXPECT_TRUE(fast->abortRequested)
        << "Algorithm 1: writing the fallback lock aborts fast-path txs";
    EXPECT_EQ(fast->abortCause, AbortCause::LockPreempt);
    EXPECT_FALSE(foreign->abortRequested)
        << "the lock is per conflict domain";
}

/* ------------------------------------------------------------------ */
/* Contention-adaptive conflict policies                              */
/* ------------------------------------------------------------------ */

/** Parse @p spec into an uhtmOpt(2048) policy; must succeed. */
HtmPolicy
policyFromSpec(const std::string &spec)
{
    HtmPolicy policy = HtmPolicy::uhtmOpt(2048);
    std::string err;
    EXPECT_TRUE(PolicyDescriptor::parse(spec, &policy.conflict, &err))
        << err;
    return policy;
}

/** All-threads-on-one-line adversarial run under @p spec. */
RunMetrics
runLemming(const std::string &spec)
{
    MachineConfig m = MachineConfig::tiny();
    m.cores = 4;
    experiments::ContentionParams p;
    p.workers = 4;
    p.txPerWorker = 25;
    p.hotLines = 1;
    p.seed = 7;
    return experiments::runContention(m, policyFromSpec(spec), p);
}

std::uint64_t
maxAttemptsOf(const RunMetrics &m)
{
    std::uint64_t max_att = 0;
    for (const auto &[dom, cs] : m.domainCtx)
        max_att = std::max(max_att, cs.maxAttempts);
    return max_att;
}

TEST(Policies, AdaptivePoliciesBeatFixedUnderLemming)
{
    const RunMetrics fixed = runLemming("fixed");
    const RunMetrics bounded = runLemming("bounded-retry");
    const RunMetrics hytm = runLemming("hytm");
    // Same committed work under every policy...
    ASSERT_EQ(fixed.committedOps, 4u * 25u);
    ASSERT_EQ(bounded.committedOps, fixed.committedOps);
    ASSERT_EQ(hytm.committedOps, fixed.committedOps);
    // ...but the fixed policy burns simulated time in its capped
    // exponential backoff, while bounded-retry gives up onto the
    // fallback lock quickly and hytm additionally retries the fast
    // path as soon as a drain resolves the convoy. Strict win, as the
    // lemming acceptance criterion demands.
    EXPECT_LT(bounded.endTick, fixed.endTick);
    EXPECT_LT(hytm.endTick, fixed.endTick);
    EXPECT_GT(bounded.opsPerSec, fixed.opsPerSec);
    EXPECT_GT(hytm.opsPerSec, fixed.opsPerSec);
    // The fallback lock actually engaged (this is HyTM, not tuning).
    EXPECT_GT(bounded.htm.serializedCommits +
                  bounded.htm.abortsOf(AbortCause::Fallback),
              0u);
}

TEST(Policies, KarmaBoundsStarvationWithoutTheLock)
{
    const RunMetrics m = runLemming("karma");
    ASSERT_EQ(m.committedOps, 4u * 25u);
    // Karma's priority tiebreak (more attempts win) keeps every
    // operation's attempt count small without ever serializing: the
    // default karma budget of 64 retries is never approached.
    EXPECT_EQ(m.htm.serializedCommits, 0u);
    const std::uint64_t max_att = maxAttemptsOf(m);
    EXPECT_GT(max_att, 1u) << "the mix must actually conflict";
    EXPECT_LE(max_att, 16u) << "starvation bound";
}

TEST(Policies, AbortAttributionSumsToFigureAbortCounts)
{
    for (const char *spec : {"fixed", "bounded-retry", "karma", "hytm"}) {
        const RunMetrics m = runLemming(spec);
        // Per-cause counts exported by the abort profiler (the METRICS
        // sidecar) must sum exactly to the figure-level abort total
        // (the BENCH JSON), fallback included.
        std::uint64_t profiled = 0;
        for (unsigned c = 0; c < kAbortCauseCount; ++c) {
            const auto cause = static_cast<AbortCause>(c);
            const std::string key =
                std::string("htm.aborts.") + obs::abortClassName(cause);
            const auto it = m.registry.counters.find(key);
            const std::uint64_t counted =
                it == m.registry.counters.end() ? 0 : it->second;
            EXPECT_EQ(counted, m.htm.abortsOf(cause))
                << key << " under " << spec;
            profiled += counted;
        }
        EXPECT_EQ(profiled, m.htm.totalAborts()) << spec;
    }
}

TEST(Policies, FallbackDrainOrdersRedoAppendsBeforeCommitMark)
{
    // Direct-drive the serialized fallback path: a slow-path
    // transaction writing NVM lines must drain every redo-log record
    // before its commit record becomes durable (paper Section IV-C),
    // under the adaptive policy exactly as under the fixed one.
    constexpr unsigned kLines = 3;
    const Addr base = MemLayout::kNvmBase + MiB(2);

    // drive(crash_at): run the fallback commit with a FaultInjector
    // attached; crash_at < 0 means run to completion.
    struct Outcome
    {
        std::vector<PersistEvent> events;
        bool crashed = false;
        std::vector<std::uint64_t> recovered;
    };
    auto drive = [&](std::int64_t crash_at) {
        EventQueue eq;
        HtmSystem sys(eq, MachineConfig::tiny(),
                      policyFromSpec("hytm"));
        FaultInjector fi(eq);
        sys.setFaultInjector(&fi);
        if (crash_at >= 0)
            fi.armCrashAt(static_cast<std::uint64_t>(crash_at));
        const DomainId dom = sys.createDomain("p0");
        for (unsigned i = 0; i < kLines; ++i)
            sys.setupWrite64(base + i * kLineBytes, 100 + i);
        sys.beginSerializedTx(0, dom, 1);
        for (unsigned i = 0; i < kLines; ++i) {
            sys.issueAccess(0, dom, base + i * kLineBytes, true, false,
                            200 + i);
            eq.run();
        }
        sys.issueCommit(0);
        eq.run();
        Outcome out;
        out.events = fi.events();
        out.crashed = fi.crashed();
        BackingStore img = sys.recoverAfterCrash();
        for (unsigned i = 0; i < kLines; ++i)
            out.recovered.push_back(img.read64(base + i * kLineBytes));
        sys.setFaultInjector(nullptr);
        return out;
    };

    const Outcome full = drive(-1);
    std::uint64_t commit_mark_idx = 0;
    std::uint64_t first_redo_idx = 0;
    Tick commit_mark_at = 0;
    unsigned redo = 0, marks = 0;
    bool saw_redo = false;
    for (const PersistEvent &e : full.events) {
        if (e.point == PersistPoint::RedoLogAppend) {
            if (!saw_redo)
                first_redo_idx = e.index;
            saw_redo = true;
            ++redo;
        } else if (e.point == PersistPoint::CommitMark) {
            commit_mark_idx = e.index;
            commit_mark_at = e.completeAt;
            ++marks;
        }
    }
    ASSERT_EQ(marks, 1u);
    ASSERT_EQ(redo, kLines);
    for (const PersistEvent &e : full.events) {
        if (e.point == PersistPoint::RedoLogAppend) {
            EXPECT_LE(e.completeAt, commit_mark_at)
                << "redo record durable after the commit record";
        }
    }
    for (unsigned i = 0; i < kLines; ++i)
        EXPECT_EQ(full.recovered[i], 200u + i);

    // Crash while the first redo record is draining: the commit record
    // is not durable, recovery must surface the pre-transaction state.
    const Outcome before =
        drive(static_cast<std::int64_t>(first_redo_idx));
    ASSERT_TRUE(before.crashed);
    for (unsigned i = 0; i < kLines; ++i)
        EXPECT_EQ(before.recovered[i], 100u + i)
            << "torn fallback commit leaked line " << i;

    // Crash exactly when the commit record completes: the transaction
    // is durable, recovery must replay the full write set.
    const Outcome after =
        drive(static_cast<std::int64_t>(commit_mark_idx));
    ASSERT_TRUE(after.crashed);
    for (unsigned i = 0; i < kLines; ++i)
        EXPECT_EQ(after.recovered[i], 200u + i)
            << "committed fallback write lost on line " << i;
}

TEST(Policies, PolicySpecValidationRejectsBadKnobs)
{
    PolicyDescriptor d;
    std::string err;
    EXPECT_FALSE(PolicyDescriptor::parse("bounded-retry:retries=-1", &d,
                                         &err));
    EXPECT_NE(err.find("retry budget must be >= 0"), std::string::npos)
        << err;
    EXPECT_FALSE(PolicyDescriptor::parse("hytm:base=0", &d, &err));
    EXPECT_NE(err.find("backoff base must be > 0"), std::string::npos)
        << err;
    EXPECT_FALSE(PolicyDescriptor::parse("karma:base=200,max=100", &d,
                                         &err));
    EXPECT_NE(err.find("backoff max"), std::string::npos) << err;
    EXPECT_FALSE(PolicyDescriptor::parse("optimistic", &d, &err));
    EXPECT_NE(err.find("unknown policy kind"), std::string::npos) << err;
    EXPECT_FALSE(PolicyDescriptor::parse("karma:lives=9", &d, &err));
    EXPECT_NE(err.find("unknown policy knob"), std::string::npos) << err;
    EXPECT_FALSE(PolicyDescriptor::parse("fixed:retries", &d, &err));
    EXPECT_NE(err.find("malformed policy knob"), std::string::npos)
        << err;
    // Fixed uses the ConflictRules::kFixed* constants, so spec knobs on
    // it would be silently ignored. The message names those constants,
    // not the HtmPolicy settings that once held them.
    EXPECT_FALSE(PolicyDescriptor::parse("fixed:retries=3", &d, &err));
    EXPECT_NE(err.find("policy 'fixed' takes no knobs"), std::string::npos)
        << err;
    EXPECT_NE(err.find("fixed constants"), std::string::npos) << err;
    EXPECT_EQ(err.find("system's own"), std::string::npos) << err;
    EXPECT_FALSE(PolicyDescriptor::parse("fixed:retries=0,base=1,max=1",
                                         &d, &err));
    EXPECT_NE(err.find("policy 'fixed' takes no knobs"), std::string::npos)
        << err;
    // Retry counts are whole numbers that fit an int: no truncation, no
    // overflowing conversion.
    for (const char *spec : {"karma:retries=2.5", "karma:retries=1e12",
                             "hytm:retries=2147483648",
                             "bounded-retry:retries=-1e12"}) {
        EXPECT_FALSE(PolicyDescriptor::parse(spec, &d, &err)) << spec;
        EXPECT_NE(err.find("policy knob 'retries': expected a whole "
                           "number in [0, 2147483647]"),
                  std::string::npos)
            << spec << ": " << err;
    }
    // A failed parse must leave the output untouched.
    EXPECT_EQ(d.kind, ConflictPolicyKind::Fixed);
    // And the good specs round-trip.
    ASSERT_TRUE(PolicyDescriptor::parse("karma:retries=8,base=200",
                                        &d, &err))
        << err;
    EXPECT_EQ(d.spec(), "karma:retries=8,base=200,max=50000");
    ASSERT_TRUE(PolicyDescriptor::parse("karma:retries=2147483647", &d,
                                        &err))
        << err;
    EXPECT_EQ(d.retryBudget, 2147483647);
}

TEST(Policies, BenchAndMetricsBytesAreScheduleInvariant)
{
    // The policies figure's BENCH and METRICS JSON must be identical
    // for --jobs=1 and --jobs=4 (submission order, not completion
    // order, defines the bytes).
    const figures::Figure *fig = figures::find("policies");
    ASSERT_NE(fig, nullptr);
    figures::FigureOpts o;
    o.tiny = true;
    o.seed = 42;
    const std::vector<exec::Job> jobs = fig->makeJobs(o);
    exec::SweepScheduler serial({1, o.seed});
    exec::SweepScheduler wide({4, o.seed});
    const auto r1 = serial.run(jobs);
    const auto r4 = wide.run(jobs);
    const exec::ResultSink sink("policies", o.seed,
                                {{"quick", "false"}, {"tiny", "true"}});
    EXPECT_EQ(sink.json(r1), sink.json(r4));
    EXPECT_EQ(sink.metricsJson(r1), sink.metricsJson(r4));
}

} // namespace
} // namespace uhtm
