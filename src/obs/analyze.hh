/**
 * @file
 * Offline causal analysis of binary lifecycle traces (DESIGN.md §14).
 *
 * Consumes the obs::Tracer files recorded during a run and
 * reconstructs, per run and aggregated:
 *
 *   - the abort-causality graph: who killed whom (TxConflictBy), over
 *     which line (TxConflict), cascade depth and wasted-work ticks per
 *     transaction / conflict domain / abort cause;
 *   - a per-cache-line contention heatmap (top-K hot lines with abort
 *     and signature-false-positive counts, bucketed by DRAM vs NVM
 *     residency);
 *   - the commit-latency critical path of every traffic request
 *     (queue wait → execution attempts → retry backoff → abort
 *     protocol → commit protocol → log drain), whose stage sums tile
 *     the lifecycle sojourn exactly.
 *
 * It also holds the trace reader, the Chrome exporter and the per-event
 * text dump, so `tools/uhtm_trace` is a thin front end over this file.
 *
 * The JSON serialization (analysisJson) is deterministic: runs are
 * ordered by a content-derived key, never by file name (trace file
 * names vary across --jobs=N; contents do not), so the
 * ANALYSIS_<figure>.json sidecar is byte-identical for any worker
 * count and is golden-compared in CI like the METRICS sidecar.
 */

#ifndef UHTM_OBS_ANALYZE_HH
#define UHTM_OBS_ANALYZE_HH

#include <array>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "htm/config.hh"
#include "obs/event.hh"
#include "sim/types.hh"

namespace uhtm::obs
{

/** One parsed trace file (header + full event stream). */
struct TraceData
{
    std::string path;
    TraceFileHeader header{};
    std::vector<Event> events;
};

/**
 * Read one trace file. Accepts any header version in
 * [kTraceVersionMin, kTraceVersion]; strictly validates every record's
 * kind against kEventKindCount (a bad kind is a hard error, not a
 * truncation). Records larger than sizeof(Event) — a forward-compatible
 * payload extension — are read by taking the known 32-byte prefix and
 * skipping the unknown tail. A file that ends inside a record fails
 * with "<path>: truncated record N"; a cut on a record boundary reads
 * as a shorter, complete trace.
 */
bool readTrace(const std::string &path, TraceData &out,
               std::string *err = nullptr);

/** Expand directory arguments into their .uhtmtrace members, sorted. */
std::vector<std::string>
expandTraceInputs(const std::vector<std::string> &args);

/** Hot lines kept per run (and in the aggregate). */
inline constexpr unsigned kHotLines = 8;

/** Per-abort-cause aggregation. */
struct CauseAgg
{
    std::uint64_t count = 0;
    Tick wastedTicks = 0;   ///< begin → abort-protocol-end, summed
    Tick protocolTicks = 0; ///< abort protocol only
};

/** Per-conflict-domain (tenant) aggregation. */
struct DomainAgg
{
    std::uint64_t aborts = 0;
    Tick wastedTicks = 0;
    /** Conflicts this domain's transactions won (killer side). */
    std::uint64_t kills = 0;
};

/** Sentinel domain id for aborts whose TxBegin fell outside the trace
 *  (memory-mode ring wrap); never appears for file-mode traces. */
inline constexpr std::uint32_t kUnknownDomain = 0xffffffffu;

/** One contended cache line. */
struct LineStat
{
    Addr line = 0;
    bool nvm = false;
    std::uint64_t aborts = 0;
    std::uint64_t sigFalseHits = 0;
};

/** Critical-path stage sums (one request, or totals over many). */
struct StageTicks
{
    Tick queueWait = 0;     ///< arrival → execution start
    Tick exec = 0;          ///< in-transaction work, all attempts
    Tick abortProtocol = 0; ///< abort protocol of failed attempts
    Tick backoff = 0;       ///< retry backoff + fallback-lock waits
    Tick commitProtocol = 0; ///< commit protocol minus log drain
    Tick logDrain = 0;      ///< commit stall on redo durability
    Tick unattributed = 0;  ///< residual (0 when the tiling is exact)

    Tick
    sum() const
    {
        return queueWait + exec + abortProtocol + backoff +
               commitProtocol + logDrain + unattributed;
    }

    void
    add(const StageTicks &o)
    {
        queueWait += o.queueWait;
        exec += o.exec;
        abortProtocol += o.abortProtocol;
        backoff += o.backoff;
        commitProtocol += o.commitProtocol;
        logDrain += o.logDrain;
        unattributed += o.unattributed;
    }
};

/** Reconstructed critical path of one traffic request. */
struct RequestPath
{
    std::uint32_t id = 0;     ///< stream index (ReqBegin/ReqEnd extra)
    std::uint32_t tenant = 0;
    std::uint16_t core = 0;
    Tick arrival = 0;
    Tick done = 0;
    std::uint64_t attempts = 0; ///< transactions begun for this request
    StageTicks stages;

    Tick sojourn() const { return done - arrival; }

    /** True iff the stage sums tile the sojourn exactly. */
    bool exact() const { return stages.sum() == sojourn(); }
};

/** Per-tenant request aggregation. */
struct TenantAgg
{
    std::uint64_t count = 0;
    Tick sojournTicks = 0;
    StageTicks stages;
};

/** Everything reconstructed from one run's trace. */
struct RunAnalysis
{
    std::uint64_t seed = 0;
    std::uint64_t events = 0;
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;

    /** Abort resolution classes; they partition `aborts`. */
    std::uint64_t abortsByKiller = 0;  ///< a transaction won the conflict
    std::uint64_t abortsCapacity = 0;  ///< bounded-HTM capacity, no killer
    std::uint64_t abortsNonTx = 0;     ///< non-transactional requester won
    std::uint64_t abortsExplicit = 0;  ///< explicit/test abort
    std::uint64_t abortsUnresolved = 0; ///< no TxConflict event (v1 trace)

    /** Transactions doomed whose abort protocol never ran (dangling
     *  causality edges; 0 for complete file-mode traces). */
    std::uint64_t danglingDooms = 0;

    std::array<CauseAgg, kAbortCauseCount> byCause{};
    std::map<std::uint32_t, DomainAgg> domains;

    /** cascadeDepths[d] = aborts at cascade depth d (d >= 1). */
    std::vector<std::uint64_t> cascadeDepths;
    std::uint64_t maxCascadeDepth = 0;

    std::vector<LineStat> hotLines;

    /** Per-request critical paths (kept in memory for tests/tables;
     *  only aggregates are serialized). */
    std::vector<RequestPath> requests;
    std::uint64_t requestsExact = 0;
    Tick sojournTicks = 0;
    StageTicks stages;
    std::map<std::uint32_t, TenantAgg> tenants;
};

/** Full analysis: per-run results plus the cross-run aggregate. */
struct Analysis
{
    /** Sorted by (seed, event count, event bytes) — a pure function of
     *  trace contents, independent of file names and read order. */
    std::vector<RunAnalysis> runs;
    RunAnalysis aggregate;
};

Analysis analyzeTraces(std::vector<TraceData> files);

/** Deterministic ANALYSIS_<figure>.json body ("uhtm-analysis-v1"). */
std::string analysisJson(const std::string &figure, const Analysis &a);

/**
 * Chrome trace_event export (chrome://tracing, ui.perfetto.dev): the
 * PR 5 lifecycle slices/instants plus killer→victim flow events from
 * the v2 causality edges. pid = input file, tid = core.
 */
bool writeChromeTrace(const std::vector<TraceData> &files,
                      const std::string &out_path,
                      std::string *err = nullptr);

/** True for kinds whose Event::arg is a cache-line address. */
bool carriesLine(EventKind k);

/** Event selection of the text dump; an unset field matches all. */
struct TextFilter
{
    /** Keep line-carrying events on this line; any byte address inside
     *  the line selects it. */
    std::optional<Addr> line;
    /** Keep events of this transaction, plus the TxConflictBy records
     *  that name it as the killer. */
    std::optional<TxId> tx;

    bool matches(const Event &e) const;
};

/**
 * Print one line per event of @p f that @p filter matches: file name,
 * tick, kind, core, tx, arg (hex for line-carrying kinds) and extra.
 * Returns the number of lines written.
 */
std::uint64_t writeTraceText(const TraceData &f, const TextFilter &filter,
                             std::FILE *out);

} // namespace uhtm::obs

#endif // UHTM_OBS_ANALYZE_HH
