/**
 * @file
 * Observability-layer tests: tracer ring and file round-trips, event
 * counts agreeing exactly with the HTM statistics, metrics registry
 * snapshot/merge, a trace that cannot be written failing its run, and
 * — the load-bearing invariant — that attaching a tracer does not
 * perturb the simulation at all.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>

#include "exec/result_sink.hh"
#include "exec/scheduler.hh"
#include "harness/bench_cli.hh"
#include "harness/figures.hh"
#include "harness/runner.hh"
#include "htm/htm_system.hh"
#include "obs/collect.hh"
#include "obs/metrics.hh"
#include "obs/tracer.hh"

namespace uhtm
{
namespace
{

std::string
tempDir(const char *leaf)
{
    namespace fs = std::filesystem;
    const auto dir = fs::temp_directory_path() / leaf;
    fs::create_directories(dir);
    return dir.string();
}

TEST(Tracer, MemoryRingRecordsAndWraps)
{
    obs::Tracer tr("", 0, 4);
    for (std::uint64_t i = 0; i < 3; ++i) {
        tr.record(i * 100, obs::EventKind::TxBegin, 0,
                  static_cast<TxId>(i + 1), 7);
    }
    EXPECT_EQ(tr.recorded(), 3u);
    auto evs = tr.events();
    ASSERT_EQ(evs.size(), 3u);
    EXPECT_EQ(evs[0].tick, 0u);
    EXPECT_EQ(evs[2].tx, 3u);

    // Push past capacity: the ring keeps the newest 4, oldest first.
    for (std::uint64_t i = 3; i < 10; ++i) {
        tr.record(i * 100, obs::EventKind::TxBegin, 0,
                  static_cast<TxId>(i + 1), 7);
    }
    EXPECT_EQ(tr.recorded(), 10u);
    evs = tr.events();
    ASSERT_EQ(evs.size(), 4u);
    EXPECT_EQ(evs.front().tx, 7u);
    EXPECT_EQ(evs.back().tx, 10u);
    for (std::size_t i = 1; i < evs.size(); ++i)
        EXPECT_LT(evs[i - 1].tick, evs[i].tick);
}

TEST(Tracer, FileRoundTripPreservesHeaderAndEvents)
{
    const std::string dir = tempDir("uhtm_obs_test");
    const std::string path = obs::nextTraceFilePath(dir, 0xabcd);
    {
        obs::Tracer tr(path, 0xabcd, 8); // tiny ring forces spills
        ASSERT_FALSE(tr.failed());
        for (std::uint64_t i = 0; i < 100; ++i) {
            tr.record(i, obs::EventKind::RedoLogAppend, 3,
                      static_cast<TxId>(42), 0x1000 + i * 64, 0,
                      i % 2 ? obs::kEvFlag0 : 0);
        }
        EXPECT_EQ(tr.recorded(), 100u);
    } // dtor spills the tail and closes

    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    obs::TraceFileHeader h{};
    ASSERT_EQ(std::fread(&h, sizeof(h), 1, f), 1u);
    EXPECT_EQ(std::memcmp(h.magic, obs::kTraceMagic, 8), 0);
    EXPECT_EQ(h.version, obs::kTraceVersion);
    EXPECT_EQ(h.eventBytes, sizeof(obs::Event));
    EXPECT_EQ(h.seed, 0xabcdu);
    EXPECT_EQ(h.ticksPerNs, kTicksPerNs);

    std::vector<obs::Event> evs;
    obs::Event e;
    while (std::fread(&e, sizeof(e), 1, f) == 1)
        evs.push_back(e);
    std::fclose(f);
    ASSERT_EQ(evs.size(), 100u);
    EXPECT_EQ(evs[0].tick, 0u);
    EXPECT_EQ(evs[99].tick, 99u);
    EXPECT_EQ(evs[99].arg, 0x1000u + 99 * 64);
    EXPECT_EQ(evs[99].flags, obs::kEvFlag0);
    std::filesystem::remove(path);
}

TEST(Tracer, AbortEventsMatchHtmStatsExactly)
{
    EventQueue eq;
    HtmSystem sys(eq, MachineConfig::tiny(), HtmPolicy::uhtmOpt(2048));
    obs::Tracer tr; // memory mode, default capacity
    sys.setTracer(&tr);
    const DomainId dom = sys.createDomain("p0");
    constexpr Addr kLine = MemLayout::kDramBase + 0x10000;

    // Three conflict rounds: each aborts the loser via the directory.
    for (int round = 0; round < 3; ++round) {
        TxDesc *loser = sys.beginTx(0, dom, 0);
        sys.issueAccess(0, dom, kLine + round * 4096, true, false, 1);
        eq.run();
        sys.beginTx(1, dom, 0);
        sys.issueAccess(1, dom, kLine + round * 4096, true, false, 2);
        eq.run();
        ASSERT_TRUE(loser->abortRequested);
        sys.issueAbort(0);
        eq.run();
        sys.issueCommit(1);
        eq.run();
    }

    std::uint64_t begin_ev = 0, abort_ev = 0, commit_ev = 0;
    std::array<std::uint64_t, kAbortCauseCount> by_cause{};
    for (const obs::Event &ev : tr.events()) {
        switch (ev.kind) {
          case obs::EventKind::TxBegin: ++begin_ev; break;
          case obs::EventKind::TxAbort:
            ++abort_ev;
            ++by_cause[ev.extra % kAbortCauseCount];
            break;
          case obs::EventKind::TxCommitDone: ++commit_ev; break;
          default: break;
        }
    }
    const HtmStats &st = sys.stats();
    EXPECT_EQ(begin_ev, st.txBegins);
    EXPECT_EQ(commit_ev, st.commits);
    EXPECT_EQ(abort_ev, st.totalAborts());
    for (unsigned c = 0; c < kAbortCauseCount; ++c)
        EXPECT_EQ(by_cause[c], st.aborts[c]) << "cause " << c;

    // The profiler classified every abort too.
    EXPECT_EQ(sys.abortProfiler().totalAborts(), st.totalAborts());
}

TEST(Tracer, UnwritableTraceDirFailsTheRunLoudly)
{
    // A regular file as the parent makes the directory uncreatable,
    // whatever the process's privileges.
    const std::string base = tempDir("uhtm_obs_blocked");
    const std::string blocker = base + "/file";
    std::FILE *f = std::fopen(blocker.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
    const std::string dir = blocker + "/traces";

    obs::setTraceDir(dir);
    EXPECT_THROW(Runner(MachineConfig::tiny(), HtmPolicy::uhtmOpt(2048)),
                 std::runtime_error);

    // Through the scheduler every job reports the error.
    const figures::Figure *fig = figures::find("fig7");
    ASSERT_NE(fig, nullptr);
    figures::FigureOpts opts;
    opts.tiny = true;
    exec::SweepScheduler sched({2, opts.seed});
    const auto results = sched.run(fig->makeJobs(opts));
    obs::setTraceDir("");
    ASSERT_FALSE(results.empty());
    for (const auto &r : results) {
        EXPECT_FALSE(r.ok) << r.key;
        EXPECT_NE(r.error.find("trace file"), std::string::npos)
            << r.error;
    }

    // The bench driver refuses up front, even for figures that never
    // build a Runner.
    BenchCliOpts cli;
    cli.fig.tiny = true;
    cli.traceDir = dir;
    EXPECT_NE(runFigure(*figures::find("latency"), cli), 0);
    obs::setTraceDir("");
    std::filesystem::remove_all(base);
}

TEST(MetricsRegistry, PathsTypesSnapshotAndMerge)
{
    obs::MetricsRegistry reg;
    reg.counter("htm.commits") = 10;
    reg.counter("htm.commits") += 5;
    reg.gauge("htm.abort_rate") = 0.25;
    reg.distribution("htm.commit_protocol_ns").sample(100.0);
    reg.distribution("htm.commit_protocol_ns").sample(300.0);

    EXPECT_TRUE(obs::MetricsRegistry::validPath("core0.htm.aborts"));
    EXPECT_TRUE(obs::MetricsRegistry::validPath("a_b.c_1"));
    EXPECT_FALSE(obs::MetricsRegistry::validPath(""));
    EXPECT_FALSE(obs::MetricsRegistry::validPath(".htm"));
    EXPECT_FALSE(obs::MetricsRegistry::validPath("htm."));
    EXPECT_FALSE(obs::MetricsRegistry::validPath("htm..x"));
    EXPECT_FALSE(obs::MetricsRegistry::validPath("Htm.x"));
    EXPECT_FALSE(obs::MetricsRegistry::validPath("htm x"));

    obs::MetricsSnapshot a = reg.snapshot();
    EXPECT_EQ(a.counters.at("htm.commits"), 15u);
    EXPECT_DOUBLE_EQ(a.gauges.at("htm.abort_rate"), 0.25);
    EXPECT_EQ(a.distributions.at("htm.commit_protocol_ns").count, 2u);

    obs::MetricsSnapshot b = a;
    b.merge(a);
    EXPECT_EQ(b.counters.at("htm.commits"), 30u);
    const auto &d = b.distributions.at("htm.commit_protocol_ns");
    EXPECT_EQ(d.count, 4u);
    EXPECT_DOUBLE_EQ(d.mean, 200.0);
    EXPECT_DOUBLE_EQ(d.min, 100.0);
    EXPECT_DOUBLE_EQ(d.max, 300.0);
}

TEST(Observability, TracingDoesNotPerturbSimulation)
{
    const figures::Figure *fig = figures::find("fig2");
    ASSERT_NE(fig, nullptr);
    figures::FigureOpts opts;
    opts.tiny = true;
    opts.seed = 42;
    auto jobs = fig->makeJobs(opts);
    ASSERT_FALSE(jobs.empty());

    // Baseline: no tracing.
    obs::setTraceDir("");
    RunMetrics base = jobs[0].run(1234);

    // Traced run of the identical job.
    const std::string dir = tempDir("uhtm_obs_perturb");
    obs::setTraceDir(dir);
    RunMetrics traced = jobs[0].run(1234);
    obs::setTraceDir("");

    EXPECT_EQ(base.endTick, traced.endTick);
    EXPECT_EQ(base.committedTxs, traced.committedTxs);
    EXPECT_EQ(base.committedOps, traced.committedOps);
    EXPECT_EQ(base.htm.txBegins, traced.htm.txBegins);
    EXPECT_EQ(base.htm.totalAborts(), traced.htm.totalAborts());
    EXPECT_EQ(base.htm.sigChecks, traced.htm.sigChecks);

    // Byte-level: the serialized bench JSON must be identical.
    exec::JobResult a, b;
    a.key = b.key = jobs[0].key;
    a.seed = b.seed = 1234;
    a.ok = b.ok = true;
    a.metrics = base;
    b.metrics = traced;
    const exec::ResultSink sink(fig->name, opts.seed, {});
    EXPECT_EQ(sink.json({a}), sink.json({b}));

    // A trace file appeared and parses back.
    bool found = false;
    for (const auto &ent : std::filesystem::directory_iterator(dir)) {
        if (ent.path().extension() == ".uhtmtrace") {
            found = true;
            EXPECT_GT(std::filesystem::file_size(ent.path()),
                      sizeof(obs::TraceFileHeader));
        }
    }
    EXPECT_TRUE(found);
    std::filesystem::remove_all(dir);
}

TEST(Observability, CollectedMetricsAgreeWithStats)
{
    EventQueue eq;
    HtmSystem sys(eq, MachineConfig::tiny(), HtmPolicy::uhtmOpt(2048));
    const DomainId dom = sys.createDomain("p0");
    constexpr Addr kLine = MemLayout::kDramBase + 0x20000;
    sys.beginTx(0, dom, 0);
    sys.issueAccess(0, dom, kLine, true, false, 5);
    eq.run();
    sys.issueCommit(0);
    eq.run();

    obs::MetricsRegistry reg;
    obs::collectSystemMetrics(sys, reg);
    const obs::MetricsSnapshot s = reg.snapshot();
    EXPECT_EQ(s.counters.at("htm.commits"), sys.stats().commits);
    EXPECT_EQ(s.counters.at("htm.tx_begins"), sys.stats().txBegins);
    EXPECT_EQ(s.counters.at("htm.commit_stages.count"),
              sys.stats().commits);
    EXPECT_EQ(s.distributions.at("htm.commit_protocol_ns").count,
              sys.stats().commitProtocolNs.count());
    // Per-cause totals sum to the figure's abort count (zero here).
    std::uint64_t sum = 0;
    for (const auto &[k, v] : s.counters) {
        if (k.rfind("htm.aborts.", 0) == 0 &&
            k.find("_ticks") == std::string::npos) {
            sum += v;
        }
    }
    EXPECT_EQ(sum, sys.stats().totalAborts());
}

} // namespace
} // namespace uhtm
