/**
 * @file
 * Causal-analyzer tests (DESIGN.md §14): trace-reader version
 * compatibility and strictness, killer attribution agreeing exactly
 * with the HTM statistics and the AbortProfiler's metrics counters,
 * deterministic ANALYSIS JSON across scheduler thread counts, the
 * critical-path tiling invariant (stage sums == request sojourn), the
 * per-event text dump and its line/tx filters, and TxOverflow records
 * carrying the evicted line.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <set>
#include <sstream>
#include <vector>

#include "exec/scheduler.hh"
#include "harness/figures.hh"
#include "htm/htm_system.hh"
#include "mem/layout.hh"
#include "obs/analyze.hh"
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
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

obs::TraceFileHeader
makeHeader(std::uint32_t version, std::uint32_t eventBytes,
           std::uint64_t seed)
{
    obs::TraceFileHeader h{};
    std::memcpy(h.magic, obs::kTraceMagic, 8);
    h.version = version;
    h.eventBytes = eventBytes;
    h.ticksPerNs = kTicksPerNs;
    h.seed = seed;
    return h;
}

void
writeFile(const std::string &path, const void *data, std::size_t n)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(data, 1, n, f), n);
    std::fclose(f);
}

obs::Event
makeEvent(obs::EventKind kind, Tick tick, TxId tx, std::uint64_t arg)
{
    obs::Event e;
    e.tick = tick;
    e.tx = tx;
    e.arg = arg;
    e.kind = kind;
    return e;
}

TEST(AnalyzeReader, AcceptsOlderVersionsInRange)
{
    const std::string dir = tempDir("analyze_reader_v1");
    const std::string path = dir + "/v1.uhtmtrace";
    std::string bytes;
    const auto h = makeHeader(obs::kTraceVersionMin, sizeof(obs::Event),
                              7);
    bytes.append(reinterpret_cast<const char *>(&h), sizeof(h));
    const obs::Event evs[2] = {
        makeEvent(obs::EventKind::TxBegin, 100, 1, 0),
        makeEvent(obs::EventKind::TxCommitDone, 200, 1, 50),
    };
    bytes.append(reinterpret_cast<const char *>(evs), sizeof(evs));
    writeFile(path, bytes.data(), bytes.size());

    obs::TraceData td;
    std::string err;
    ASSERT_TRUE(obs::readTrace(path, td, &err)) << err;
    EXPECT_EQ(td.header.version, obs::kTraceVersionMin);
    ASSERT_EQ(td.events.size(), 2u);
    EXPECT_EQ(td.events[1].kind, obs::EventKind::TxCommitDone);

    // A v1 trace has no TxConflict events: its aborts are simply
    // unresolved, never an error.
    const obs::Analysis an = obs::analyzeTraces({td});
    EXPECT_EQ(an.aggregate.commits, 1u);
    EXPECT_EQ(an.aggregate.aborts, 0u);
    std::filesystem::remove_all(dir);
}

TEST(AnalyzeReader, RejectsBadVersionAndBadKind)
{
    const std::string dir = tempDir("analyze_reader_bad");

    // Future version: refused outright.
    {
        const std::string path = dir + "/future.uhtmtrace";
        const auto h = makeHeader(obs::kTraceVersion + 1,
                                  sizeof(obs::Event), 7);
        writeFile(path, &h, sizeof(h));
        obs::TraceData td;
        std::string err;
        EXPECT_FALSE(obs::readTrace(path, td, &err));
        EXPECT_NE(err.find("unsupported trace version"),
                  std::string::npos)
            << err;
    }

    // Out-of-range kind value: a hard error, not a truncation.
    {
        const std::string path = dir + "/badkind.uhtmtrace";
        std::string bytes;
        const auto h = makeHeader(obs::kTraceVersion,
                                  sizeof(obs::Event), 7);
        bytes.append(reinterpret_cast<const char *>(&h), sizeof(h));
        obs::Event e = makeEvent(obs::EventKind::TxBegin, 100, 1, 0);
        bytes.append(reinterpret_cast<const char *>(&e), sizeof(e));
        e.kind = static_cast<obs::EventKind>(obs::kEventKindCount);
        bytes.append(reinterpret_cast<const char *>(&e), sizeof(e));
        writeFile(path, bytes.data(), bytes.size());
        obs::TraceData td;
        std::string err;
        EXPECT_FALSE(obs::readTrace(path, td, &err));
        EXPECT_NE(err.find("bad event kind"), std::string::npos) << err;
    }

    // Last record cut short, in its known prefix or in the payload tail
    // of a wider record: a hard error. A cut on a record boundary reads.
    for (const std::uint32_t tail : {0u, 8u}) {
        const std::string path = dir + "/cut.uhtmtrace";
        std::string bytes;
        const auto h = makeHeader(obs::kTraceVersion,
                                  sizeof(obs::Event) + tail, 7);
        bytes.append(reinterpret_cast<const char *>(&h), sizeof(h));
        for (int i = 0; i < 2; ++i) {
            const obs::Event e =
                makeEvent(obs::EventKind::TxBegin, 100 * (i + 1), i + 1, 0);
            bytes.append(reinterpret_cast<const char *>(&e), sizeof(e));
            bytes.append(tail, 'x');
        }
        const std::size_t record = sizeof(obs::Event) + tail;
        // Bytes cut off the end: inside the prefix, inside the tail.
        std::vector<std::size_t> cuts = {record / 2};
        if (tail > 0)
            cuts.push_back(tail / 2);
        for (const std::size_t cut : cuts) {
            writeFile(path, bytes.data(), bytes.size() - cut);
            obs::TraceData td;
            std::string err;
            EXPECT_FALSE(obs::readTrace(path, td, &err)) << cut;
            EXPECT_NE(err.find(path + ": truncated record 1"),
                      std::string::npos)
                << err;
        }
        writeFile(path, bytes.data(), bytes.size() - record);
        obs::TraceData td;
        std::string err;
        EXPECT_TRUE(obs::readTrace(path, td, &err)) << err;
        EXPECT_EQ(td.events.size(), 1u);
    }

    // Not a trace file at all.
    {
        const std::string path = dir + "/garbage.uhtmtrace";
        const char junk[64] = "not a trace";
        writeFile(path, junk, sizeof(junk));
        obs::TraceData td;
        EXPECT_FALSE(obs::readTrace(path, td));
    }
    std::filesystem::remove_all(dir);
}

TEST(AnalyzeReader, SkipsUnknownPayloadTailOfWiderRecords)
{
    // A (hypothetical) future writer may grow the record; the reader
    // takes the 32-byte prefix it understands and skips the tail.
    const std::string dir = tempDir("analyze_reader_wide");
    const std::string path = dir + "/wide.uhtmtrace";
    std::string bytes;
    const auto h = makeHeader(obs::kTraceVersion,
                              sizeof(obs::Event) + 8, 7);
    bytes.append(reinterpret_cast<const char *>(&h), sizeof(h));
    const char tail[8] = {'x', 'x', 'x', 'x', 'x', 'x', 'x', 'x'};
    for (int i = 0; i < 3; ++i) {
        const obs::Event e = makeEvent(obs::EventKind::TxBegin,
                                       100 * (i + 1), i + 1, 0);
        bytes.append(reinterpret_cast<const char *>(&e), sizeof(e));
        bytes.append(tail, sizeof(tail));
    }
    writeFile(path, bytes.data(), bytes.size());

    obs::TraceData td;
    std::string err;
    ASSERT_TRUE(obs::readTrace(path, td, &err)) << err;
    ASSERT_EQ(td.events.size(), 3u);
    EXPECT_EQ(td.events[2].tick, 300u);
    EXPECT_EQ(td.events[2].tx, 3u);
    std::filesystem::remove_all(dir);
}

/** TraceData wrapper for a memory-mode tracer's event buffer. */
obs::TraceData
traceDataOf(const obs::Tracer &tr, std::uint64_t seed)
{
    obs::TraceData td;
    td.header = makeHeader(obs::kTraceVersion, sizeof(obs::Event), seed);
    td.events = tr.events();
    return td;
}

TEST(Analyze, ResolvesEveryAbortToItsKillerExactly)
{
    EventQueue eq;
    HtmSystem sys(eq, MachineConfig::tiny(), HtmPolicy::uhtmOpt(2048));
    obs::Tracer tr; // memory mode
    sys.setTracer(&tr);
    const DomainId dom = sys.createDomain("p0");
    constexpr Addr kLine = MemLayout::kDramBase + 0x10000;

    // Three conflict rounds: core 1 kills core 0 on a distinct line
    // each round, then commits.
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

    const obs::Analysis an = obs::analyzeTraces({traceDataOf(tr, 9)});
    const obs::RunAnalysis &a = an.aggregate;
    EXPECT_EQ(a.commits, sys.stats().commits);
    EXPECT_EQ(a.aborts, sys.stats().totalAborts());
    ASSERT_EQ(a.aborts, 3u);

    // Every abort resolves to the transaction that won the conflict.
    EXPECT_EQ(a.abortsByKiller, 3u);
    EXPECT_EQ(a.abortsCapacity, 0u);
    EXPECT_EQ(a.abortsNonTx, 0u);
    EXPECT_EQ(a.abortsExplicit, 0u);
    EXPECT_EQ(a.abortsUnresolved, 0u);
    EXPECT_EQ(a.danglingDooms, 0u);

    // Per-cause counts match the HTM statistics bucket for bucket.
    for (unsigned c = 0; c < kAbortCauseCount; ++c)
        EXPECT_EQ(a.byCause[c].count, sys.stats().aborts[c])
            << "cause " << c;

    // Wasted work per cause equals the AbortProfiler's staged tick
    // counters (onchip + overflowed + protocol tile begin → abort-end).
    obs::MetricsRegistry reg;
    obs::collectSystemMetrics(sys, reg);
    const obs::MetricsSnapshot snap = reg.snapshot();
    for (unsigned c = 0; c < kAbortCauseCount; ++c) {
        const std::string base =
            std::string("htm.aborts.") +
            obs::abortClassName(static_cast<AbortCause>(c));
        const auto it = snap.counters.find(base);
        const std::uint64_t count =
            it != snap.counters.end() ? it->second : 0;
        EXPECT_EQ(a.byCause[c].count, count) << base;
        if (!count)
            continue;
        const std::uint64_t staged =
            snap.counters.at(base + ".onchip_ticks") +
            snap.counters.at(base + ".overflowed_ticks") +
            snap.counters.at(base + ".protocol_ticks");
        EXPECT_EQ(static_cast<std::uint64_t>(a.byCause[c].wastedTicks),
                  staged)
            << base;
    }

    // The victim's domain took the aborts; the same domain's winner
    // scored the kills. All three cascades are depth 1 (the killers
    // committed).
    ASSERT_EQ(a.domains.count(dom), 1u);
    EXPECT_EQ(a.domains.at(dom).aborts, 3u);
    EXPECT_EQ(a.domains.at(dom).kills, 3u);
    EXPECT_EQ(a.maxCascadeDepth, 1u);
    ASSERT_EQ(a.cascadeDepths.size(), 2u);
    EXPECT_EQ(a.cascadeDepths[1], 3u);

    // The heatmap shows the three distinct DRAM conflict lines.
    ASSERT_EQ(a.hotLines.size(), 3u);
    for (const obs::LineStat &ls : a.hotLines) {
        EXPECT_FALSE(ls.nvm);
        EXPECT_EQ(ls.aborts, 1u);
    }
}

TEST(Analyze, ServiceAbortTotalsMatchMetricsCounters)
{
    // Satellite invariant: for a real traced service run, the
    // analyzer's per-cause and per-domain abort totals must equal the
    // run's own domainN.htm.aborts.* metrics counters exactly. Scan
    // the quick sweep in order and validate up to and including the
    // first job that actually aborts.
    const figures::Figure *fig = figures::find("service");
    ASSERT_NE(fig, nullptr);
    figures::FigureOpts opts;
    opts.quick = true;
    opts.seed = 42;
    auto jobs = fig->makeJobs(opts);
    ASSERT_FALSE(jobs.empty());

    bool sawAborts = false;
    for (std::size_t i = 0; i < jobs.size() && !sawAborts; ++i) {
        const std::string dir = tempDir("analyze_svc_metrics");
        obs::setTraceDir(dir);
        const RunMetrics m = jobs[i].run(
            exec::SweepScheduler::jobSeed(opts.seed, jobs[i].key));
        obs::setTraceDir("");

        std::vector<obs::TraceData> files;
        for (const auto &p : obs::expandTraceInputs({dir})) {
            obs::TraceData td;
            std::string err;
            ASSERT_TRUE(obs::readTrace(p, td, &err)) << err;
            files.push_back(std::move(td));
        }
        ASSERT_EQ(files.size(), 1u);
        const obs::Analysis an = obs::analyzeTraces(std::move(files));
        const obs::RunAnalysis &a = an.aggregate;
        sawAborts = a.aborts > 0;

        EXPECT_EQ(a.commits, m.registry.counters.at("htm.commits"));
        for (unsigned c = 0; c < kAbortCauseCount; ++c) {
            const std::string base =
                std::string("htm.aborts.") +
                obs::abortClassName(static_cast<AbortCause>(c));
            const auto it = m.registry.counters.find(base);
            EXPECT_EQ(a.byCause[c].count,
                      it != m.registry.counters.end() ? it->second : 0)
                << jobs[i].key << " " << base;
        }
        // Per-domain totals: sum the per-class domain counters.
        std::map<std::uint32_t, std::uint64_t> metricDomainAborts;
        for (const auto &[k, v] : m.registry.counters) {
            if (k.rfind("domain", 0) != 0 ||
                k.find(".htm.aborts.") == std::string::npos)
                continue;
            metricDomainAborts[static_cast<std::uint32_t>(
                std::strtoul(k.c_str() + 6, nullptr, 10))] += v;
        }
        for (const auto &[dom, da] : a.domains) {
            ASSERT_NE(dom, obs::kUnknownDomain) << jobs[i].key;
            const auto it = metricDomainAborts.find(dom);
            EXPECT_EQ(da.aborts, it != metricDomainAborts.end()
                                     ? it->second
                                     : 0)
                << jobs[i].key << " domain" << dom;
        }
        for (const auto &[dom, v] : metricDomainAborts) {
            ASSERT_EQ(a.domains.count(dom), v ? 1u : 0u)
                << jobs[i].key << " domain" << dom;
        }
        // In a traced service run every abort must resolve.
        EXPECT_EQ(a.abortsUnresolved, 0u) << jobs[i].key;
        EXPECT_EQ(a.danglingDooms, 0u) << jobs[i].key;
        std::filesystem::remove_all(dir);
    }
    EXPECT_TRUE(sawAborts)
        << "quick service sweep produced no aborts to cross-check";
}

TEST(Analyze, AnalysisJsonByteIdenticalAcrossThreadCounts)
{
    const figures::Figure *fig = figures::find("service");
    ASSERT_NE(fig, nullptr);
    figures::FigureOpts opts;
    opts.tiny = true;
    opts.seed = 42;

    std::string json1, json8;
    for (const unsigned threads : {1u, 8u}) {
        const std::string dir = tempDir(threads == 1
                                            ? "analyze_jobs1"
                                            : "analyze_jobs8");
        auto jobs = fig->makeJobs(opts);
        ASSERT_FALSE(jobs.empty());
        obs::setTraceDir(dir);
        exec::SweepScheduler sched({threads, opts.seed});
        const auto results = sched.run(jobs);
        obs::setTraceDir("");
        for (const auto &r : results)
            ASSERT_TRUE(r.ok) << r.error;

        std::vector<obs::TraceData> files;
        for (const auto &p : obs::expandTraceInputs({dir})) {
            obs::TraceData td;
            std::string err;
            ASSERT_TRUE(obs::readTrace(p, td, &err)) << err;
            files.push_back(std::move(td));
        }
        ASSERT_EQ(files.size(), jobs.size());
        const std::string json = obs::analysisJson(
            "service", obs::analyzeTraces(std::move(files)));
        (threads == 1 ? json1 : json8) = json;
        std::filesystem::remove_all(dir);
    }
    // Trace file names differ between the two sweeps (a process-wide
    // sequence number), but the analysis orders runs by contents, so
    // the sidecar must be byte-identical.
    EXPECT_EQ(json1, json8);
}

TEST(Analyze, CriticalPathStagesTileEveryRequestSojournExactly)
{
    const figures::Figure *fig = figures::find("service");
    ASSERT_NE(fig, nullptr);
    figures::FigureOpts opts;
    opts.tiny = true;
    opts.seed = 42;
    auto jobs = fig->makeJobs(opts);
    ASSERT_FALSE(jobs.empty());

    const std::string dir = tempDir("analyze_critpath");
    obs::setTraceDir(dir);
    exec::SweepScheduler sched({4, opts.seed});
    const auto results = sched.run(jobs);
    obs::setTraceDir("");
    for (const auto &r : results)
        ASSERT_TRUE(r.ok) << r.error;

    std::vector<obs::TraceData> files;
    for (const auto &p : obs::expandTraceInputs({dir})) {
        obs::TraceData td;
        std::string err;
        ASSERT_TRUE(obs::readTrace(p, td, &err)) << err;
        files.push_back(std::move(td));
    }
    const obs::Analysis an = obs::analyzeTraces(std::move(files));

    std::uint64_t total = 0;
    for (const obs::RunAnalysis &ra : an.runs) {
        ASSERT_FALSE(ra.requests.empty());
        for (const obs::RequestPath &r : ra.requests) {
            total++;
            EXPECT_TRUE(r.exact())
                << "request " << r.id << " tenant " << r.tenant
                << ": stages sum " << r.stages.sum() << " != sojourn "
                << r.sojourn();
            EXPECT_EQ(r.stages.unattributed, 0u);
            EXPECT_GT(r.attempts, 0u);
        }
        EXPECT_EQ(ra.requestsExact, ra.requests.size());
        std::uint64_t tenantCount = 0;
        for (const auto &[tenant, ta] : ra.tenants) {
            (void)tenant;
            tenantCount += ta.count;
        }
        EXPECT_EQ(tenantCount, ra.requests.size());
        EXPECT_EQ(static_cast<std::uint64_t>(ra.stages.sum()),
                  static_cast<std::uint64_t>(ra.sojournTicks));
    }
    EXPECT_EQ(total, an.aggregate.requestsExact);
    std::filesystem::remove_all(dir);
}

/** Run every job of @p figure's tiny sweep traced, and read the traces. */
std::vector<obs::TraceData>
tracedTinySweep(const char *figure, const char *leaf)
{
    const figures::Figure *fig = figures::find(figure);
    EXPECT_NE(fig, nullptr);
    figures::FigureOpts opts;
    opts.tiny = true;
    opts.seed = 42;
    const std::string dir = tempDir(leaf);
    obs::setTraceDir(dir);
    exec::SweepScheduler sched({2, opts.seed});
    const auto results = sched.run(fig->makeJobs(opts));
    obs::setTraceDir("");
    for (const auto &r : results)
        EXPECT_TRUE(r.ok) << r.error;

    std::vector<obs::TraceData> files;
    for (const auto &p : obs::expandTraceInputs({dir})) {
        obs::TraceData td;
        std::string err;
        EXPECT_TRUE(obs::readTrace(p, td, &err)) << err;
        files.push_back(std::move(td));
    }
    std::filesystem::remove_all(dir);
    return files;
}

/** writeTraceText output as lines. */
std::vector<std::string>
textLines(const obs::TraceData &f, const obs::TextFilter &filter,
          std::uint64_t *written)
{
    char *buf = nullptr;
    std::size_t len = 0;
    std::FILE *out = open_memstream(&buf, &len);
    EXPECT_NE(out, nullptr);
    *written = obs::writeTraceText(f, filter, out);
    std::fclose(out);
    std::vector<std::string> lines;
    std::istringstream in(std::string(buf, len));
    std::free(buf);
    for (std::string l; std::getline(in, l);)
        lines.push_back(l);
    return lines;
}

/** Whitespace-separated field @p i of a text-dump line. */
std::string
field(const std::string &line, unsigned i)
{
    std::istringstream in(line);
    std::string tok;
    for (unsigned k = 0; k <= i; ++k)
        in >> tok;
    return tok;
}

TEST(TraceText, UnfilteredDumpHasOneLinePerEvent)
{
    const auto files = tracedTinySweep("policies", "analyze_text_all");
    ASSERT_FALSE(files.empty());
    std::uint64_t events = 0, lines = 0;
    for (const obs::TraceData &f : files) {
        std::uint64_t written = 0;
        const auto text = textLines(f, {}, &written);
        EXPECT_EQ(text.size(), written);
        EXPECT_EQ(written, f.events.size());
        for (std::size_t i = 0; i < text.size(); ++i)
            EXPECT_EQ(field(text[i], 2),
                      obs::eventKindName(f.events[i].kind));
        events += f.events.size();
        lines += written;
    }
    EXPECT_EQ(lines, events);
}

TEST(TraceText, TxFilterKeepsTheTxAndTheConflictsItWon)
{
    const auto files = tracedTinySweep("policies", "analyze_text_tx");
    bool sawKiller = false;
    for (const obs::TraceData &f : files) {
        // The first transaction that killed another one.
        TxId killer = kNoTx;
        for (const obs::Event &e : f.events)
            if (e.kind == obs::EventKind::TxConflictBy && e.arg != kNoTx) {
                killer = e.arg;
                break;
            }
        if (killer == kNoTx)
            continue;
        sawKiller = true;

        obs::TextFilter filter;
        filter.tx = killer;
        std::uint64_t expected = 0, kills = 0;
        for (const obs::Event &e : f.events) {
            const bool won = e.kind == obs::EventKind::TxConflictBy &&
                             e.arg == killer;
            const bool want = e.tx == killer || won;
            EXPECT_EQ(filter.matches(e), want);
            expected += want;
            kills += won;
        }
        EXPECT_GT(kills, 0u);
        std::uint64_t written = 0;
        const auto text = textLines(f, filter, &written);
        EXPECT_EQ(written, expected);
        std::uint64_t killLines = 0;
        for (const std::string &l : text) {
            const std::string tx = "tx=" + std::to_string(killer);
            if (field(l, 2) == "conflict-by" &&
                field(l, 5) == "arg=" + std::to_string(killer))
                ++killLines;
            else
                EXPECT_EQ(field(l, 4), tx) << l;
        }
        EXPECT_EQ(killLines, kills);
    }
    EXPECT_TRUE(sawKiller) << "tiny policies sweep had no killer conflicts";
}

TEST(TraceText, LineFilterKeepsOnlyLineCarryingKindsOnThatLine)
{
    const auto files = tracedTinySweep("policies", "analyze_text_line");
    bool sawLine = false;
    for (const obs::TraceData &f : files) {
        Addr line = 0;
        for (const obs::Event &e : f.events)
            if (e.kind == obs::EventKind::RedoLogAppend ||
                e.kind == obs::EventKind::TxConflict) {
                line = lineAlign(e.arg);
                if (line)
                    break;
            }
        if (!line)
            continue;
        sawLine = true;

        obs::TextFilter filter;
        filter.line = line + 0x17; // any byte inside the line selects it
        std::uint64_t expected = 0;
        for (const obs::Event &e : f.events) {
            const bool want =
                obs::carriesLine(e.kind) && lineAlign(e.arg) == line;
            EXPECT_EQ(filter.matches(e), want);
            expected += want;
        }
        EXPECT_GT(expected, 0u);
        std::uint64_t written = 0;
        const auto text = textLines(f, filter, &written);
        EXPECT_EQ(written, expected);
        for (const std::string &l : text) {
            const std::string arg = field(l, 5);
            ASSERT_EQ(arg.rfind("arg=0x", 0), 0u) << l;
            EXPECT_EQ(lineAlign(std::strtoull(arg.c_str() + 6, nullptr,
                                              16)),
                      line)
                << l;
        }
    }
    EXPECT_TRUE(sawLine);
}

TEST(TraceText, OverflowEventsCarryTheEvictedLine)
{
    const auto files = tracedTinySweep("fig7", "analyze_overflow_line");
    std::uint64_t overflows = 0;
    std::set<Addr> lines;
    for (const obs::TraceData &f : files) {
        for (const obs::Event &e : f.events) {
            if (e.kind != obs::EventKind::TxOverflow)
                continue;
            ++overflows;
            lines.insert(e.arg);
            EXPECT_EQ(e.arg, lineAlign(e.arg));
            EXPECT_TRUE(MemLayout::isSoftwareVisible(e.arg))
                << std::hex << e.arg;
        }
    }
    EXPECT_GT(overflows, 0u);
    // DRAM starts at address 0, so a constant placeholder arg would
    // pass the checks above; real evicted lines differ per tx.
    EXPECT_GT(lines.size(), 1u);
}

} // namespace
} // namespace uhtm
