/**
 * @file
 * uhtm_trace: the one reader of the binary lifecycle-event traces
 * recorded by obs::Tracer (src/obs/event.hh, DESIGN.md §9 and §14).
 *
 * Usage:
 *   uhtm_trace <trace.uhtmtrace | dir>... [--figure=NAME] [--out=DIR]
 *              [--chrome=FILE] [--text [--line=ADDR] [--tx=ID]]
 *
 * The default report, across all input files:
 *   - an event-kind inventory;
 *   - the causal abort analysis: every abort resolved to the
 *     transaction that killed it (or to capacity / non-tx / explicit),
 *     cascade depth, wasted work per cause and per conflict domain,
 *     the hottest contended lines and, for service runs, the
 *     per-request critical path whose stages tile the sojourn exactly;
 *   - commit and abort protocol latency histograms.
 *
 * --text replaces the report with one line per event (file, tick,
 * kind, core, tx, arg, extra). --line keeps the line-carrying events
 * of one cache line (any byte address inside it, hex); --tx keeps one
 * transaction's events plus the conflicts it won.
 *
 * --out=DIR writes the deterministic ANALYSIS_<figure>.json sidecar,
 * byte-identical for any --jobs=N because runs are ordered by trace
 * contents, not file names. --chrome writes Chrome trace_event JSON
 * (chrome://tracing, ui.perfetto.dev) with killer→victim flow arrows.
 *
 * Accepts any trace version in [kTraceVersionMin, kTraceVersion]; a
 * record with an out-of-range event kind is a hard error.
 */

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/abort_profile.hh"
#include "obs/analyze.hh"
#include "sim/num_parse.hh"
#include "sim/stats.hh"

using namespace uhtm;
using obs::Event;
using obs::EventKind;

namespace
{

constexpr const char *kUsage =
    "usage: uhtm_trace <trace.uhtmtrace | dir>... [--figure=NAME]\n"
    "                  [--out=DIR] [--chrome=FILE]\n"
    "                  [--text [--line=ADDR] [--tx=ID]]\n";

double
pct(std::uint64_t part, std::uint64_t whole)
{
    return whole ? 100.0 * static_cast<double>(part) /
                       static_cast<double>(whole)
                 : 0.0;
}

void
printHistogram(const char *title, const Distribution &d)
{
    std::printf("\n%s (count=%" PRIu64 ", mean=%.1f ns, stddev=%.1f ns, "
                "max=%.1f ns)\n",
                title, d.count(), d.mean(), d.stddev(), d.max());
    const auto &h = d.histogram();
    std::uint64_t peak = 0;
    for (auto b : h)
        peak = std::max(peak, b);
    if (!peak)
        return;
    for (unsigned i = 0; i < Distribution::kLog2Buckets; ++i) {
        if (!h[i])
            continue;
        const double lo = i == 0 ? 0.0 : static_cast<double>(1ull << (i - 1));
        const int bar =
            static_cast<int>(50.0 * static_cast<double>(h[i]) /
                             static_cast<double>(peak));
        std::printf("  >=%10.0f ns %10" PRIu64 " %.*s\n", lo, h[i],
                    bar > 0 ? bar : (h[i] ? 1 : 0),
                    "##################################################");
    }
}

void
printAnalysis(const obs::Analysis &an)
{
    const obs::RunAnalysis &a = an.aggregate;
    std::printf("\n%zu run(s), %" PRIu64 " commits, %" PRIu64
                " aborts (abort rate %.2f%%)\n",
                an.runs.size(), a.commits, a.aborts,
                pct(a.aborts, a.commits + a.aborts));

    // ---- abort resolution ----
    if (a.aborts) {
        std::printf("\nabort resolution (who killed whom)\n");
        std::printf("  %-22s %10" PRIu64 " %6.2f%%\n", "by transaction",
                    a.abortsByKiller, pct(a.abortsByKiller, a.aborts));
        std::printf("  %-22s %10" PRIu64 " %6.2f%%\n", "capacity",
                    a.abortsCapacity, pct(a.abortsCapacity, a.aborts));
        std::printf("  %-22s %10" PRIu64 " %6.2f%%\n", "non-tx access",
                    a.abortsNonTx, pct(a.abortsNonTx, a.aborts));
        std::printf("  %-22s %10" PRIu64 " %6.2f%%\n", "explicit",
                    a.abortsExplicit, pct(a.abortsExplicit, a.aborts));
        std::printf("  %-22s %10" PRIu64 " %6.2f%%\n", "unresolved",
                    a.abortsUnresolved,
                    pct(a.abortsUnresolved, a.aborts));
        std::printf("  max cascade depth %" PRIu64 "\n",
                    a.maxCascadeDepth);
        if (a.danglingDooms) {
            std::printf("  (%" PRIu64
                        " doomed tx without an abort record)\n",
                        a.danglingDooms);
        }

        std::printf("\n%-26s %10s %16s %16s\n", "abort cause", "count",
                    "wasted ns", "protocol ns");
        for (unsigned c = 0; c < kAbortCauseCount; ++c) {
            const obs::CauseAgg &ca = a.byCause[c];
            if (!ca.count)
                continue;
            std::printf("%-26s %10" PRIu64 " %16.0f %16.0f\n",
                        obs::abortClassName(static_cast<AbortCause>(c)),
                        ca.count, nsFromTicks(ca.wastedTicks),
                        nsFromTicks(ca.protocolTicks));
        }

        std::printf("\n%-26s %10s %16s %10s\n", "domain (tenant)",
                    "aborts", "wasted ns", "kills");
        for (const auto &[dom, da] : a.domains) {
            const std::string name =
                dom == obs::kUnknownDomain ? "unknown"
                                           : "domain" + std::to_string(dom);
            std::printf("%-26s %10" PRIu64 " %16.0f %10" PRIu64 "\n",
                        name.c_str(), da.aborts,
                        nsFromTicks(da.wastedTicks), da.kills);
        }
    }

    // ---- contention heatmap ----
    if (!a.hotLines.empty()) {
        std::printf("\n%-20s %6s %10s %16s\n", "hot line", "mem",
                    "aborts", "sig false hits");
        for (const obs::LineStat &ls : a.hotLines) {
            std::printf("0x%-18" PRIx64 " %6s %10" PRIu64 " %16" PRIu64
                        "\n",
                        static_cast<std::uint64_t>(ls.line),
                        ls.nvm ? "nvm" : "dram", ls.aborts,
                        ls.sigFalseHits);
        }
    }

    // ---- critical path ----
    std::uint64_t requests = 0;
    for (const auto &[tenant, ta] : a.tenants) {
        (void)tenant;
        requests += ta.count;
    }
    if (requests) {
        const Tick sum = a.stages.sum();
        std::printf("\ncritical path over %" PRIu64
                    " request(s), %" PRIu64 " exact (sojourn %.0f ns)\n",
                    requests, a.requestsExact,
                    nsFromTicks(a.sojournTicks));
        const auto row = [&](const char *name, Tick t) {
            std::printf("  %-16s %16.0f ns %6.2f%%\n", name,
                        nsFromTicks(t), pct(t, sum));
        };
        row("queue wait", a.stages.queueWait);
        row("exec", a.stages.exec);
        row("abort protocol", a.stages.abortProtocol);
        row("backoff", a.stages.backoff);
        row("commit protocol", a.stages.commitProtocol);
        row("log drain", a.stages.logDrain);
        row("unattributed", a.stages.unattributed);
    }
}

/** `<prefix>N` parsed in @p base; false (with a message) if malformed. */
bool
numFlag(const std::string &arg, const char *prefix, int base,
        std::uint64_t &out)
{
    const std::string text = arg.substr(std::string(prefix).size());
    if (parseU64(text, out, base))
        return true;
    std::fprintf(stderr, "uhtm_trace: %s needs %s, got '%s'\n", prefix,
                 base == 16 ? "a hex address" : "an unsigned integer",
                 text.c_str());
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> inputs;
    std::string figure = "trace";
    std::string out_dir, chrome_out;
    bool text = false;
    obs::TextFilter filter;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        std::uint64_t v = 0;
        if (arg == "--figure=" || arg == "--out=" || arg == "--chrome=") {
            std::fprintf(stderr, "uhtm_trace: empty value: %s\n",
                         arg.c_str());
            return 2;
        }
        if (arg.rfind("--figure=", 0) == 0) {
            figure = arg.substr(9);
        } else if (arg.rfind("--out=", 0) == 0) {
            out_dir = arg.substr(6);
        } else if (arg.rfind("--chrome=", 0) == 0) {
            chrome_out = arg.substr(9);
        } else if (arg == "--text") {
            text = true;
        } else if (arg.rfind("--line=", 0) == 0) {
            if (!numFlag(arg, "--line=", 16, v))
                return 2;
            filter.line = v;
        } else if (arg.rfind("--tx=", 0) == 0) {
            if (!numFlag(arg, "--tx=", 10, v))
                return 2;
            filter.tx = v;
        } else if (arg == "--help" || arg == "-h") {
            std::printf("%s", kUsage);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "unknown flag %s\n%s", arg.c_str(),
                         kUsage);
            return 2;
        } else {
            inputs.push_back(arg);
        }
    }
    if (inputs.empty()) {
        std::fprintf(stderr, "%s", kUsage);
        return 2;
    }
    if ((filter.line || filter.tx) && !text) {
        std::fprintf(stderr, "uhtm_trace: --line/--tx need --text\n%s",
                     kUsage);
        return 2;
    }

    // One read loop: load every file and tally the inventory and the
    // protocol latency histograms on the way.
    std::vector<obs::TraceData> files;
    std::array<std::uint64_t, obs::kEventKindCount> kinds{};
    std::uint64_t total = 0;
    Distribution commit_ns, abort_ns;
    for (const auto &p : obs::expandTraceInputs(inputs)) {
        obs::TraceData tf;
        std::string err;
        if (!obs::readTrace(p, tf, &err)) {
            std::fprintf(stderr, "uhtm_trace: %s\n", err.c_str());
            return 1;
        }
        for (const Event &e : tf.events) {
            ++kinds[static_cast<unsigned>(e.kind)];
            if (e.kind == EventKind::TxCommitDone)
                commit_ns.sample(nsFromTicks(e.arg));
            else if (e.kind == EventKind::TxAbort)
                abort_ns.sample(nsFromTicks(e.arg));
        }
        total += tf.events.size();
        files.push_back(std::move(tf));
    }
    if (files.empty()) {
        std::fprintf(stderr, "uhtm_trace: no trace files found\n");
        return 1;
    }

    if (!chrome_out.empty()) {
        std::string err;
        if (!obs::writeChromeTrace(files, chrome_out, &err)) {
            std::fprintf(stderr, "uhtm_trace: %s\n", err.c_str());
            return 1;
        }
        if (!text)
            std::printf("wrote %s\n", chrome_out.c_str());
    }

    if (text) {
        for (const obs::TraceData &f : files)
            obs::writeTraceText(f, filter, stdout);
        if (out_dir.empty())
            return 0;
    } else {
        std::printf("%zu trace file(s), %" PRIu64 " events\n",
                    files.size(), total);
        for (unsigned k = 1; k < obs::kEventKindCount; ++k) {
            if (kinds[k]) {
                std::printf("  %-14s %10" PRIu64 "\n",
                            obs::eventKindName(static_cast<EventKind>(k)),
                            kinds[k]);
            }
        }
    }

    const obs::Analysis an = obs::analyzeTraces(std::move(files));
    if (!text) {
        printAnalysis(an);
        printHistogram("commit protocol latency", commit_ns);
        printHistogram("abort protocol latency", abort_ns);
    }

    if (!out_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(out_dir, ec);
        const std::string json_path =
            (std::filesystem::path(out_dir) /
             ("ANALYSIS_" + figure + ".json"))
                .string();
        const std::string body = obs::analysisJson(figure, an);
        std::FILE *f = std::fopen(json_path.c_str(), "wb");
        bool ok = f && std::fwrite(body.data(), 1, body.size(), f) ==
                           body.size();
        if (f && std::fclose(f) != 0)
            ok = false;
        if (!ok) {
            std::fprintf(stderr, "uhtm_trace: cannot write %s\n",
                         json_path.c_str());
            return 1;
        }
        if (!text)
            std::printf("wrote %s\n", json_path.c_str());
    }
    return 0;
}
