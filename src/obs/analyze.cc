/**
 * @file
 * Offline causal trace analysis (see analyze.hh and DESIGN.md §14).
 */

#include "obs/analyze.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <unordered_map>
#include <unordered_set>

#include "exec/json.hh"
#include "mem/layout.hh"
#include "obs/abort_profile.hh"

namespace uhtm::obs
{

namespace
{

std::string
format(const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    return buf;
}

std::string
hexLine(Addr line)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%" PRIx64,
                  static_cast<std::uint64_t>(line));
    return buf;
}

} // namespace

bool
readTrace(const std::string &path, TraceData &out, std::string *err)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        if (err)
            *err = format("cannot open %s", path.c_str());
        return false;
    }
    out.path = path;
    out.events.clear();
    bool ok = std::fread(&out.header, sizeof(out.header), 1, f) == 1;
    if (!ok && err)
        *err = format("%s: short header", path.c_str());
    if (ok && std::memcmp(out.header.magic, kTraceMagic, 8) != 0) {
        if (err)
            *err = format("%s is not a uhtm trace file", path.c_str());
        ok = false;
    }
    if (ok && (out.header.version < kTraceVersionMin ||
               out.header.version > kTraceVersion)) {
        if (err) {
            *err = format("%s: unsupported trace version %u "
                          "(supported: %u..%u)",
                          path.c_str(), out.header.version,
                          kTraceVersionMin, kTraceVersion);
        }
        ok = false;
    }
    // Forward compatibility: records may grow a payload tail we do not
    // know about; read the fixed 32-byte prefix and skip the rest.
    // Records smaller than we expect cannot be interpreted.
    if (ok && out.header.eventBytes < sizeof(Event)) {
        if (err) {
            *err = format("%s: event record size %u below the v%u "
                          "minimum %zu",
                          path.c_str(), out.header.eventBytes,
                          kTraceVersionMin, sizeof(Event));
        }
        ok = false;
    }
    const long tail =
        ok ? static_cast<long>(out.header.eventBytes - sizeof(Event)) : 0;
    std::size_t rec = 0;
    while (ok) {
        Event e;
        const std::size_t got = std::fread(&e, 1, sizeof(e), f);
        if (got == 0)
            break; // clean EOF
        // A file that ends inside a record is an error, never a silent
        // drop. Seeking past EOF succeeds, so a skipped tail is proven
        // present by reading its last byte.
        if (got != sizeof(e) ||
            (tail > 0 && (std::fseek(f, tail - 1, SEEK_CUR) != 0 ||
                          std::fgetc(f) == EOF))) {
            if (err)
                *err = format("%s: truncated record %zu", path.c_str(), rec);
            ok = false;
            break;
        }
        // Strict kind validation: an out-of-range kind means the file
        // is corrupt or from a future schema — refuse it rather than
        // silently truncating the analysis input.
        if (static_cast<unsigned>(e.kind) >= kEventKindCount) {
            if (err) {
                *err = format("%s: bad event kind %u at record %zu",
                              path.c_str(),
                              static_cast<unsigned>(e.kind), rec);
            }
            ok = false;
            break;
        }
        out.events.push_back(e);
        ++rec;
    }
    std::fclose(f);
    return ok;
}

std::vector<std::string>
expandTraceInputs(const std::vector<std::string> &args)
{
    namespace fs = std::filesystem;
    std::vector<std::string> paths;
    for (const auto &a : args) {
        std::error_code ec;
        if (fs::is_directory(a, ec)) {
            for (const auto &ent : fs::directory_iterator(a, ec))
                if (ent.path().extension() == ".uhtmtrace")
                    paths.push_back(ent.path().string());
        } else {
            paths.push_back(a);
        }
    }
    std::sort(paths.begin(), paths.end());
    return paths;
}

namespace
{

/** Per-victim causality edge (TxConflict + TxConflictBy pair). */
struct Edge
{
    TxId killer = kNoTx;
    Addr line = 0;
    std::uint32_t cause = 0;
    bool seen = false;
};

struct AbortEv
{
    Tick tick = 0;
    Tick dur = 0;
    std::uint32_t cause = 0;
};

struct TxInfo
{
    Tick begin = 0;
    std::uint32_t domain = 0;
    bool seen = false;
};

/** Critical-path scan state of one core. */
struct CoreScan
{
    bool inReq = false;
    RequestPath r;
    Tick cursor = 0;
    Tick pendingDrain = 0;
};

std::vector<LineStat>
topLines(const std::map<Addr, LineStat> &acc)
{
    std::vector<LineStat> v;
    v.reserve(acc.size());
    for (const auto &[line, st] : acc)
        if (st.aborts || st.sigFalseHits)
            v.push_back(st);
    std::sort(v.begin(), v.end(),
              [](const LineStat &a, const LineStat &b) {
                  if (a.aborts != b.aborts)
                      return a.aborts > b.aborts;
                  if (a.sigFalseHits != b.sigFalseHits)
                      return a.sigFalseHits > b.sigFalseHits;
                  return a.line < b.line;
              });
    if (v.size() > kHotLines)
        v.resize(kHotLines);
    return v;
}

RunAnalysis
analyzeRun(const TraceData &f, std::map<Addr, LineStat> &lineAcc)
{
    RunAnalysis ra;
    ra.seed = f.header.seed;
    ra.events = f.events.size();

    std::unordered_map<TxId, TxInfo> txs;
    std::unordered_map<TxId, Edge> edges;
    std::unordered_map<TxId, AbortEv> abortEvents;

    std::unordered_map<std::uint16_t, CoreScan> cores;

    for (const Event &e : f.events) {
        switch (e.kind) {
          case EventKind::TxBegin:
            txs[e.tx] =
                TxInfo{e.tick, static_cast<std::uint32_t>(e.arg), true};
            break;
          case EventKind::TxConflict: {
            Edge &ed = edges[e.tx];
            ed.line = e.arg;
            ed.cause = e.extra;
            ed.seen = true;
            break;
          }
          case EventKind::TxConflictBy: {
            Edge &ed = edges[e.tx];
            ed.killer = e.arg;
            ed.cause = e.extra;
            ed.seen = true;
            break;
          }
          case EventKind::TxCommitDone:
            ++ra.commits;
            break;
          case EventKind::TxAbort:
            abortEvents[e.tx] = AbortEv{e.tick, e.arg, e.extra};
            ++ra.aborts;
            break;
          case EventKind::SigCheckHit:
            if (e.flags & kEvFlag0) {
                LineStat &ls = lineAcc[e.arg];
                ls.line = e.arg;
                ls.nvm = MemLayout::kindOf(e.arg) == MemKind::Nvm;
                ++ls.sigFalseHits;
            }
            break;
          default:
            break;
        }

        // ---- critical-path scan (per core, in stream order) ----
        if (e.core == kEvNoCore)
            continue;
        CoreScan &cs = cores[e.core];
        switch (e.kind) {
          case EventKind::ReqBegin:
            cs.inReq = true;
            cs.r = RequestPath{};
            cs.r.id = e.extra;
            cs.r.tenant = e.flags;
            cs.r.core = e.core;
            cs.r.arrival = e.arg;
            cs.r.stages.queueWait =
                e.tick >= e.arg ? e.tick - e.arg : 0;
            cs.cursor = e.tick;
            cs.pendingDrain = 0;
            break;
          case EventKind::TxBegin:
            if (!cs.inReq)
                break;
            ++cs.r.attempts;
            cs.r.stages.backoff +=
                e.tick >= cs.cursor ? e.tick - cs.cursor : 0;
            cs.cursor = e.tick;
            break;
          case EventKind::TxAbort:
            if (!cs.inReq)
                break;
            cs.r.stages.exec +=
                e.tick >= cs.cursor ? e.tick - cs.cursor : 0;
            cs.r.stages.abortProtocol += e.arg;
            cs.cursor = e.tick + e.arg;
            break;
          case EventKind::TxLogDrain:
            if (cs.inReq)
                cs.pendingDrain += e.arg;
            break;
          case EventKind::TxCommitDone: {
            if (!cs.inReq)
                break;
            cs.r.stages.exec +=
                e.tick >= cs.cursor ? e.tick - cs.cursor : 0;
            const Tick drain = std::min(cs.pendingDrain, e.arg);
            cs.r.stages.commitProtocol += e.arg - drain;
            cs.r.stages.logDrain += drain;
            cs.pendingDrain = 0;
            cs.cursor = e.tick + e.arg;
            break;
          }
          case EventKind::ReqEnd: {
            if (!cs.inReq)
                break;
            cs.inReq = false;
            cs.r.done = e.tick;
            cs.r.stages.unattributed =
                e.tick >= cs.cursor ? e.tick - cs.cursor : 0;
            ra.requests.push_back(cs.r);
            break;
          }
          default:
            break;
        }
    }

    // ---- abort attribution, wasted work, heatmap ----
    for (const auto &[victim, ab] : abortEvents) {
        const auto ti = txs.find(victim);
        const Tick wasted =
            ti != txs.end() && ti->second.seen
                ? ab.tick + ab.dur - ti->second.begin
                : 0;
        const std::uint32_t dom = ti != txs.end() && ti->second.seen
                                      ? ti->second.domain
                                      : kUnknownDomain;
        CauseAgg &ca = ra.byCause[ab.cause % kAbortCauseCount];
        ++ca.count;
        ca.wastedTicks += wasted;
        ca.protocolTicks += ab.dur;
        DomainAgg &da = ra.domains[dom];
        ++da.aborts;
        da.wastedTicks += wasted;

        const auto ei = edges.find(victim);
        if (ei == edges.end() || !ei->second.seen) {
            ++ra.abortsUnresolved;
            continue;
        }
        const Edge &ed = ei->second;
        if (ed.line != 0) {
            LineStat &ls = lineAcc[ed.line];
            ls.line = ed.line;
            ls.nvm = MemLayout::kindOf(ed.line) == MemKind::Nvm;
            ++ls.aborts;
        }
        if (ed.killer != kNoTx) {
            ++ra.abortsByKiller;
            const auto ki = txs.find(ed.killer);
            if (ki != txs.end() && ki->second.seen)
                ++ra.domains[ki->second.domain].kills;
        } else if (static_cast<AbortCause>(ed.cause) ==
                   AbortCause::Capacity) {
            ++ra.abortsCapacity;
        } else if (static_cast<AbortCause>(ed.cause) ==
                   AbortCause::Explicit) {
            ++ra.abortsExplicit;
        } else {
            ++ra.abortsNonTx;
        }
    }

    // Doomed transactions whose abort protocol never ran (e.g. the run
    // ended first). Complete service traces have none.
    for (const auto &[victim, ed] : edges)
        if (ed.seen && !abortEvents.count(victim))
            ++ra.danglingDooms;

    // ---- cascade depth: victim → killer chains among aborted txs ----
    std::unordered_map<TxId, std::uint64_t> depth;
    for (const auto &[victim, ab] : abortEvents) {
        (void)ab;
        std::vector<TxId> chain;
        std::unordered_set<TxId> onPath;
        TxId v = victim;
        std::uint64_t base = 0;
        for (;;) {
            const auto d = depth.find(v);
            if (d != depth.end()) {
                base = d->second;
                break;
            }
            if (!abortEvents.count(v) || onPath.count(v))
                break; // committed killer / cycle guard → depth base 0
            chain.push_back(v);
            onPath.insert(v);
            const auto ei = edges.find(v);
            if (ei == edges.end() || !ei->second.seen ||
                ei->second.killer == kNoTx)
                break;
            v = ei->second.killer;
        }
        for (auto it = chain.rbegin(); it != chain.rend(); ++it)
            depth[*it] = ++base;
    }
    for (const auto &[tx, d] : depth) {
        (void)tx;
        if (d > ra.maxCascadeDepth)
            ra.maxCascadeDepth = d;
    }
    ra.cascadeDepths.assign(ra.maxCascadeDepth + 1, 0);
    for (const auto &[tx, d] : depth) {
        (void)tx;
        ++ra.cascadeDepths[d];
    }

    // ---- request aggregates ----
    for (const RequestPath &r : ra.requests) {
        ra.sojournTicks += r.sojourn();
        ra.stages.add(r.stages);
        if (r.exact())
            ++ra.requestsExact;
        TenantAgg &ta = ra.tenants[r.tenant];
        ++ta.count;
        ta.sojournTicks += r.sojourn();
        ta.stages.add(r.stages);
    }

    return ra;
}

void
mergeRun(RunAnalysis &agg, const RunAnalysis &ra)
{
    agg.events += ra.events;
    agg.commits += ra.commits;
    agg.aborts += ra.aborts;
    agg.abortsByKiller += ra.abortsByKiller;
    agg.abortsCapacity += ra.abortsCapacity;
    agg.abortsNonTx += ra.abortsNonTx;
    agg.abortsExplicit += ra.abortsExplicit;
    agg.abortsUnresolved += ra.abortsUnresolved;
    agg.danglingDooms += ra.danglingDooms;
    for (unsigned c = 0; c < kAbortCauseCount; ++c) {
        agg.byCause[c].count += ra.byCause[c].count;
        agg.byCause[c].wastedTicks += ra.byCause[c].wastedTicks;
        agg.byCause[c].protocolTicks += ra.byCause[c].protocolTicks;
    }
    for (const auto &[dom, da] : ra.domains) {
        DomainAgg &d = agg.domains[dom];
        d.aborts += da.aborts;
        d.wastedTicks += da.wastedTicks;
        d.kills += da.kills;
    }
    if (ra.maxCascadeDepth > agg.maxCascadeDepth)
        agg.maxCascadeDepth = ra.maxCascadeDepth;
    if (agg.cascadeDepths.size() < ra.cascadeDepths.size())
        agg.cascadeDepths.resize(ra.cascadeDepths.size(), 0);
    for (std::size_t d = 0; d < ra.cascadeDepths.size(); ++d)
        agg.cascadeDepths[d] += ra.cascadeDepths[d];
    agg.requestsExact += ra.requestsExact;
    agg.sojournTicks += ra.sojournTicks;
    agg.stages.add(ra.stages);
    for (const auto &[tenant, ta] : ra.tenants) {
        TenantAgg &t = agg.tenants[tenant];
        t.count += ta.count;
        t.sojournTicks += ta.sojournTicks;
        t.stages.add(ta.stages);
    }
    // Per-request lists stay per-run; the aggregate keeps the count
    // via tenants/requestsExact and the merged stage sums.
}

} // namespace

Analysis
analyzeTraces(std::vector<TraceData> files)
{
    // Deterministic run order from contents only: file names carry a
    // process-wide sequence number that varies across --jobs=N.
    std::sort(files.begin(), files.end(),
              [](const TraceData &a, const TraceData &b) {
                  if (a.header.seed != b.header.seed)
                      return a.header.seed < b.header.seed;
                  if (a.events.size() != b.events.size())
                      return a.events.size() < b.events.size();
                  return std::memcmp(a.events.data(), b.events.data(),
                                     a.events.size() * sizeof(Event)) <
                         0;
              });

    Analysis an;
    std::map<Addr, LineStat> aggLines;
    for (const TraceData &f : files) {
        std::map<Addr, LineStat> lines;
        RunAnalysis ra = analyzeRun(f, lines);
        ra.hotLines = topLines(lines);
        for (const auto &[line, ls] : lines) {
            LineStat &al = aggLines[line];
            al.line = ls.line;
            al.nvm = ls.nvm;
            al.aborts += ls.aborts;
            al.sigFalseHits += ls.sigFalseHits;
        }
        mergeRun(an.aggregate, ra);
        an.runs.push_back(std::move(ra));
    }
    an.aggregate.hotLines = topLines(aggLines);
    return an;
}

namespace
{

void
writeStages(exec::JsonWriter &w, const StageTicks &s)
{
    w.key("stage_ticks");
    w.beginObject();
    w.field("queue_wait", static_cast<std::uint64_t>(s.queueWait));
    w.field("exec", static_cast<std::uint64_t>(s.exec));
    w.field("abort_protocol",
            static_cast<std::uint64_t>(s.abortProtocol));
    w.field("backoff", static_cast<std::uint64_t>(s.backoff));
    w.field("commit_protocol",
            static_cast<std::uint64_t>(s.commitProtocol));
    w.field("log_drain", static_cast<std::uint64_t>(s.logDrain));
    w.field("unattributed",
            static_cast<std::uint64_t>(s.unattributed));
    w.endObject();
}

void
writeRun(exec::JsonWriter &w, const RunAnalysis &ra, bool aggregate)
{
    w.beginObject();
    if (!aggregate)
        w.field("seed", ra.seed);
    w.field("events", ra.events);
    w.field("commits", ra.commits);

    w.key("aborts");
    w.beginObject();
    w.field("total", ra.aborts);
    w.key("resolution");
    w.beginObject();
    w.field("killer", ra.abortsByKiller);
    w.field("capacity", ra.abortsCapacity);
    w.field("non_tx", ra.abortsNonTx);
    w.field("explicit", ra.abortsExplicit);
    w.field("unresolved", ra.abortsUnresolved);
    w.endObject();
    w.field("dangling_dooms", ra.danglingDooms);
    w.field("max_cascade_depth", ra.maxCascadeDepth);
    w.key("cascade_depths");
    w.beginArray();
    for (std::size_t d = 1; d < ra.cascadeDepths.size(); ++d)
        w.value(ra.cascadeDepths[d]);
    w.endArray();
    w.key("by_cause");
    w.beginArray();
    for (unsigned c = 0; c < kAbortCauseCount; ++c) {
        const CauseAgg &ca = ra.byCause[c];
        if (!ca.count)
            continue;
        w.beginObject();
        w.field("cause", abortClassName(static_cast<AbortCause>(c)));
        w.field("count", ca.count);
        w.field("wasted_ticks",
                static_cast<std::uint64_t>(ca.wastedTicks));
        w.field("protocol_ticks",
                static_cast<std::uint64_t>(ca.protocolTicks));
        w.endObject();
    }
    w.endArray();
    w.endObject();

    w.key("domains");
    w.beginArray();
    for (const auto &[dom, da] : ra.domains) {
        w.beginObject();
        w.field("domain", static_cast<std::uint64_t>(dom));
        w.field("aborts", da.aborts);
        w.field("wasted_ticks",
                static_cast<std::uint64_t>(da.wastedTicks));
        w.field("kills", da.kills);
        w.endObject();
    }
    w.endArray();

    w.key("hot_lines");
    w.beginArray();
    for (const LineStat &ls : ra.hotLines) {
        w.beginObject();
        w.field("line", hexLine(ls.line));
        w.field("mem", ls.nvm ? "nvm" : "dram");
        w.field("aborts", ls.aborts);
        w.field("sig_false_hits", ls.sigFalseHits);
        w.endObject();
    }
    w.endArray();

    w.key("requests");
    w.beginObject();
    std::uint64_t count = 0;
    for (const auto &[tenant, ta] : ra.tenants) {
        (void)tenant;
        count += ta.count;
    }
    w.field("count", count);
    w.field("exact", ra.requestsExact);
    w.field("sojourn_ticks",
            static_cast<std::uint64_t>(ra.sojournTicks));
    writeStages(w, ra.stages);
    w.key("per_tenant");
    w.beginArray();
    for (const auto &[tenant, ta] : ra.tenants) {
        w.beginObject();
        w.field("tenant", static_cast<std::uint64_t>(tenant));
        w.field("count", ta.count);
        w.field("sojourn_ticks",
                static_cast<std::uint64_t>(ta.sojournTicks));
        writeStages(w, ta.stages);
        w.endObject();
    }
    w.endArray();
    w.endObject();

    w.endObject();
}

} // namespace

std::string
analysisJson(const std::string &figure, const Analysis &a)
{
    exec::JsonWriter w;
    w.beginObject();
    w.field("schema", "uhtm-analysis-v1");
    w.field("figure", figure);
    w.field("runs_n", static_cast<std::uint64_t>(a.runs.size()));
    w.key("runs");
    w.beginArray();
    for (const RunAnalysis &ra : a.runs)
        writeRun(w, ra, false);
    w.endArray();
    w.key("aggregate");
    writeRun(w, a.aggregate, true);
    w.endObject();
    return w.str() + "\n";
}

bool
writeChromeTrace(const std::vector<TraceData> &files,
                 const std::string &out_path, std::string *err)
{
    exec::JsonWriter w;
    w.beginObject();
    w.field("displayTimeUnit", "ns");
    w.key("traceEvents");
    w.beginArray();

    // Tick is a picosecond; trace_event timestamps are microseconds.
    const auto us = [](Tick t) { return static_cast<double>(t) / 1e6; };

    auto emitEvent = [&w](std::uint64_t pid, std::uint64_t tid,
                          const char *ph, const char *name, double ts,
                          double dur, const char *cat,
                          const std::map<std::string, std::string>
                              &args) {
        w.beginObject();
        w.field("pid", pid);
        w.field("tid", tid);
        w.field("ph", ph);
        w.field("name", name);
        w.field("ts", ts);
        if (std::strcmp(ph, "X") == 0)
            w.field("dur", dur);
        if (std::strcmp(ph, "i") == 0)
            w.field("s", "t"); // thread-scoped instant
        w.field("cat", cat);
        if (!args.empty()) {
            w.key("args");
            w.beginObject();
            for (const auto &[k, v] : args)
                w.field(k, v);
            w.endObject();
        }
        w.endObject();
    };

    struct OpenTx
    {
        Tick begin = 0;
        std::uint16_t core = 0;
    };

    std::uint64_t flowId = 0;
    for (std::size_t fi = 0; fi < files.size(); ++fi) {
        const std::uint64_t pid = fi;
        std::unordered_map<TxId, OpenTx> open;
        // Name the process after the trace file for the viewer.
        w.beginObject();
        w.field("pid", pid);
        w.field("ph", "M");
        w.field("name", "process_name");
        w.key("args");
        w.beginObject();
        w.field("name", std::filesystem::path(files[fi].path)
                            .filename()
                            .string());
        w.endObject();
        w.endObject();

        // Flow-event joins: a killer's core at kill time (from its
        // TxBegin) and the victim's abort protocol event.
        std::unordered_map<TxId, std::uint16_t> txCore;
        struct Kill
        {
            TxId victim;
            TxId killer;
            Tick tick;
        };
        std::vector<Kill> kills;
        struct AbortAt
        {
            Tick tick = 0;
            std::uint16_t core = 0;
        };
        std::unordered_map<TxId, AbortAt> abortAt;

        for (const Event &e : files[fi].events) {
            const double ts = us(e.tick);
            const std::uint64_t tid = e.core == kEvNoCore ? 999 : e.core;
            char hexline[32];
            std::snprintf(hexline, sizeof(hexline), "0x%" PRIx64,
                          e.arg);
            switch (e.kind) {
              case EventKind::TxBegin:
                open[e.tx] = OpenTx{e.tick, e.core};
                txCore[e.tx] = e.core;
                break;
              case EventKind::TxConflictBy:
                if (e.arg != kNoTx)
                    kills.push_back(Kill{e.tx, e.arg, e.tick});
                break;
              case EventKind::TxCommitDone:
              case EventKind::TxAbort: {
                const bool aborted = e.kind == EventKind::TxAbort;
                auto it = open.find(e.tx);
                const Tick begin =
                    it != open.end() ? it->second.begin : e.tick;
                if (aborted)
                    abortAt[e.tx] = AbortAt{e.tick, e.core};
                // The protocol duration rides in arg; the span covers
                // begin -> protocol end.
                const Tick end = e.tick + e.arg;
                std::map<std::string, std::string> args;
                args["tx"] = std::to_string(e.tx);
                if (aborted) {
                    args["cause"] = abortClassName(
                        static_cast<AbortCause>(e.extra));
                }
                emitEvent(pid, tid, "X", aborted ? "tx-abort" : "tx",
                          us(begin),
                          us(end - begin) > 0 ? us(end - begin) : 0.001,
                          aborted ? "abort" : "commit", args);
                open.erase(e.tx);
                break;
              }
              case EventKind::TxOverflow:
                emitEvent(pid, tid, "i", "overflow", ts, 0, "overflow",
                          {{"tx", std::to_string(e.tx)},
                           {"line", hexline}});
                break;
              case EventKind::TxSuspend:
                emitEvent(pid, tid, "i", "suspend", ts, 0, "ctxsw",
                          {{"tx", std::to_string(e.tx)}});
                break;
              case EventKind::TxResume:
                emitEvent(pid, tid, "i", "resume", ts, 0, "ctxsw",
                          {{"tx", std::to_string(e.tx)}});
                break;
              case EventKind::SigCheckHit:
                emitEvent(pid, tid, "i",
                          (e.flags & kEvFlag0) ? "sig-false-hit"
                                               : "sig-hit",
                          ts, 0, "signature", {{"line", hexline}});
                break;
              case EventKind::DramCacheEvict:
                emitEvent(pid, tid, "i", "dcache-evict", ts, 0,
                          "dram-cache", {{"line", hexline}});
                break;
              case EventKind::NvmWriteBack:
                emitEvent(pid, tid, "i", "nvm-writeback", ts, 0, "nvm",
                          {{"line", hexline}});
                break;
              default:
                break; // fills/log appends stay out of the timeline
            }
        }

        // Killer → victim conflict edges as flow events: start inside
        // the killer's slice at the kill tick, finish at the victim's
        // abort protocol. Rendered as arrows in Perfetto.
        for (const Kill &k : kills) {
            const auto kc = txCore.find(k.killer);
            const auto va = abortAt.find(k.victim);
            if (kc == txCore.end() || va == abortAt.end())
                continue;
            const std::string id = std::to_string(flowId++);
            w.beginObject();
            w.field("pid", pid);
            w.field("tid",
                    static_cast<std::uint64_t>(kc->second));
            w.field("ph", "s");
            w.field("id", id);
            w.field("name", "kill");
            w.field("cat", "conflict");
            w.field("ts", us(k.tick));
            w.key("args");
            w.beginObject();
            w.field("killer", std::to_string(k.killer));
            w.field("victim", std::to_string(k.victim));
            w.endObject();
            w.endObject();
            w.beginObject();
            w.field("pid", pid);
            w.field("tid",
                    static_cast<std::uint64_t>(va->second.core));
            w.field("ph", "f");
            w.field("bp", "e");
            w.field("id", id);
            w.field("name", "kill");
            w.field("cat", "conflict");
            w.field("ts", us(va->second.tick));
            w.endObject();
        }
    }
    w.endArray();
    w.endObject();

    std::FILE *f = std::fopen(out_path.c_str(), "wb");
    if (!f) {
        if (err)
            *err = format("cannot write %s", out_path.c_str());
        return false;
    }
    const std::string body = w.str() + "\n";
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
    return true;
}

bool
carriesLine(EventKind k)
{
    switch (k) {
      case EventKind::TxOverflow:
      case EventKind::RedoLogAppend:
      case EventKind::UndoLogAppend:
      case EventKind::DramCacheFill:
      case EventKind::DramCacheEvict:
      case EventKind::NvmWriteBack:
      case EventKind::SigCheckHit:
      case EventKind::SigCheckMiss:
      case EventKind::TxConflict:
        return true;
      default:
        return false;
    }
}

bool
TextFilter::matches(const Event &e) const
{
    if (line && !(carriesLine(e.kind) &&
                  lineAlign(e.arg) == lineAlign(*line)))
        return false;
    if (tx && e.tx != *tx &&
        !(e.kind == EventKind::TxConflictBy && e.arg == *tx))
        return false;
    return true;
}

std::uint64_t
writeTraceText(const TraceData &f, const TextFilter &filter,
               std::FILE *out)
{
    const std::string file =
        std::filesystem::path(f.path).filename().string();
    std::uint64_t lines = 0;
    for (const Event &e : f.events) {
        if (!filter.matches(e))
            continue;
        char core[8] = "-";
        if (e.core != kEvNoCore)
            std::snprintf(core, sizeof(core), "%u", e.core);
        std::fprintf(out,
                     carriesLine(e.kind)
                         ? "%s %14" PRIu64 " %-13s core=%s tx=%" PRIu64
                           " arg=0x%" PRIx64 " extra=%" PRIu32 "\n"
                         : "%s %14" PRIu64 " %-13s core=%s tx=%" PRIu64
                           " arg=%" PRIu64 " extra=%" PRIu32 "\n",
                     file.c_str(), static_cast<std::uint64_t>(e.tick),
                     eventKindName(e.kind), core,
                     static_cast<std::uint64_t>(e.tx), e.arg, e.extra);
        ++lines;
    }
    return lines;
}

} // namespace uhtm::obs
