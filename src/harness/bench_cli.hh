/**
 * @file
 * Command-line front end of the `uhtm_bench <figure>` driver.
 *
 * Numeric flags are parsed strictly (sim/num_parse.hh): a malformed,
 * signed, empty or out-of-range value is an error, never a default.
 *
 *   --jobs=N      worker threads (0/default: one per hardware thread,
 *                 at most 1024)
 *   --seed=S      sweep seed (default 42)
 *   --out=DIR     write BENCH_<figure>.json into DIR
 *   --filter=SUB  only run jobs whose key contains SUB
 *   --quick       reduced sweep points
 *   --tiny        miniature smoke/sanitizer configs
 *   --tx=N        transactions per worker (--ops= is an alias)
 *   --scanmb=N    fig8 long-scan size in MiB
 *   --policy=SPEC conflict policy (fixed | bounded-retry | karma |
 *                 hytm, with :retries=N,base=NS,max=NS knobs)
 *   --arrival=SPEC service-figure arrival process (fixed|poisson|mmpp
 *                 with :rate=R[,burst=B,occ=F,dwell=NS] knobs)
 *   --zipf-theta=T service-figure key skew (0 = uniform)
 *   --tenants=N   service-figure tenant count (default: sweep)
 *   --rw-mix=F    service-figure base read fraction in [0,1]
 *   --metrics     also write METRICS_<figure>.json next to the bench
 *                 JSON (hierarchical observability metrics sidecar)
 *   --trace=DIR   record binary lifecycle-event traces into DIR
 *                 (one .uhtmtrace file per run; read with uhtm_trace)
 *   --wall        write a TIMING_<figure>.json sidecar (host wall
 *                 clock, events/sec and per-job host seconds, written
 *                 by exec::ResultSink; never golden-compared)
 */

#ifndef UHTM_HARNESS_BENCH_CLI_HH
#define UHTM_HARNESS_BENCH_CLI_HH

#include <string>

#include "harness/figures.hh"

namespace uhtm
{

/** Parsed benchmark command line. */
struct BenchCliOpts
{
    figures::FigureOpts fig;
    /** Scheduler threads; 0 = hardware concurrency. */
    unsigned jobs = 0;
    /** Output directory for BENCH_*.json; empty = no JSON. */
    std::string outDir;
    /** Substring filter on job keys; empty = all. */
    std::string filter;
    /** Also write the METRICS_<figure>.json sidecar (needs --out). */
    bool metrics = false;
    /** Write the TIMING_<figure>.json host-timing sidecar (needs
     *  --out). Host-dependent by nature: excluded from the golden
     *  byte comparisons, which only cover BENCH_* and METRICS_*. */
    bool wall = false;
    /** Binary lifecycle-event trace directory; empty = no tracing. */
    std::string traceDir;
    /** Treat an empty post-filter job list as "skip this figure"
     *  instead of an error. Set by the uhtm_bench "all" loop so
     *  `uhtm_bench --filter=service` runs just the matching figure and
     *  quietly skips the rest. */
    bool skipEmptyFilter = false;
    /** Raw --zipf-theta= / --rw-mix= text, echoed verbatim into the
     *  sweep config (avoids any float re-formatting concerns). */
    std::string zipfThetaSpec;
    std::string rwMixSpec;
};

/**
 * Parse flags from argv[firstArg..). Returns false and sets @p err on
 * an unknown or malformed argument, or on a sidecar flag (--metrics,
 * --wall) without --out.
 */
bool parseBenchArgs(int argc, char **argv, int firstArg,
                    BenchCliOpts &opts, std::string &err);

/** One line describing the shared flags (for usage messages). */
const char *benchFlagsHelp();

/**
 * Run @p figure end-to-end: build jobs, filter, schedule, render the
 * table to stdout, emit JSON when --out was given, and print the
 * host-side sweep summary. Returns a process exit code (non-zero if
 * any job failed).
 */
int runFigure(const figures::Figure &figure, const BenchCliOpts &opts);

} // namespace uhtm

#endif // UHTM_HARNESS_BENCH_CLI_HH
