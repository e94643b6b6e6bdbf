/**
 * @file
 * Figure registry: every reproduced paper figure/table as one function
 * that walks the figure's axes once. At each point it declares the
 * point's single-simulation job and, when that job's result is
 * present, the table row it feeds. Running the function twice gives
 * both halves of a figure:
 *
 *   makeJobs(opts)  — the sweep's independent jobs (what the
 *                     exec::SweepScheduler runs in parallel)
 *   render(...)     — the figure's fixed-width tables, computed from
 *                     the job results by key
 *
 * so the `uhtm_bench` driver, `perfbench` and the in-process tests
 * share one definition of every experiment, and a figure's job keys
 * and its table lookups cannot drift apart.
 */

#ifndef UHTM_HARNESS_FIGURES_HH
#define UHTM_HARNESS_FIGURES_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "exec/job.hh"
#include "htm/config.hh"

namespace uhtm::figures
{

/** Scale / parameter options common to every figure. */
struct FigureOpts
{
    /** Reduced sweep points (the benches' historical --quick). */
    bool quick = false;
    /** Miniature configs for smoke tests and sanitizer CI: tiny
     *  caches, few workers, ~8KB footprints. Implies quick sweeps. */
    bool tiny = false;
    /** Override committed transactions per worker (--tx= / --ops=). */
    std::uint64_t txOverride = 0;
    /** Override long-scan size in MiB (fig8's --scanmb=). */
    std::uint64_t scanMbOverride = 0;
    /** Sweep seed; each job derives its own from (seed, key). */
    std::uint64_t seed = 42;
    /** Conflict policy applied to every job's HtmPolicy (--policy=).
     *  The "policies" figure sweeps its own and ignores the override. */
    PolicyDescriptor policy;
    /** Raw --policy= spec ("" = default fixed policy; echoed into the
     *  sweep config only when set so default bytes stay frozen). */
    std::string policySpec;
    /** Service-figure arrival override (--arrival=, "" = built-in
     *  sweep points). ArrivalSpec text, e.g. "poisson:rate=2e6" or
     *  "mmpp:rate=1e6,burst=4,occ=0.2"; the service figure's
     *  makeJobs throws std::invalid_argument if it does not parse. */
    std::string arrivalSpec;
    /** Service-figure Zipf skew override (--zipf-theta=, < 0 = keep
     *  the figure default of 0.99; 0 selects uniform keys). */
    double zipfTheta = -1.0;
    /** Service-figure tenant-count override (--tenants=, 0 = sweep the
     *  built-in tenant counts). */
    std::uint64_t tenantsOverride = 0;
    /** Service-figure base read fraction (--rw-mix=, < 0 = default). */
    double rwMix = -1.0;
};

class Sweep;

/** One reproduced figure/table. */
struct Figure
{
    std::string name;  ///< subcommand, e.g. "fig6"
    std::string title; ///< banner line
    /** Walks the figure's axes: Sweep::job declares each job, and
     *  Sweep::find / Sweep::row fill the tables from its result. */
    void (*sweep)(const FigureOpts &, Sweep &);

    /** The sweep's jobs, in a fixed order. */
    std::vector<exec::Job> makeJobs(const FigureOpts &opts) const;
    /** Render the text tables (and paper-shape footnotes) to @p out.
     *  Tolerates missing results (e.g. a --filter'ed sweep): absent
     *  rows are left out and absent cells render as "-". */
    void render(const FigureOpts &opts,
                const std::vector<exec::JobResult> &results,
                std::FILE *out) const;
};

/** All figures, in paper order. */
const std::vector<Figure> &all();

/** Look up a figure by name; nullptr if unknown. */
const Figure *find(const std::string &name);

/**
 * First duplicated figure name in @p figures, "" when all unique.
 * all() aborts with a clear error when the registry trips this, so a
 * name collision (which would silently shadow a figure in find() and
 * corrupt golden-file names) fails fast at first use.
 */
std::string duplicateName(const std::vector<Figure> &figures);

} // namespace uhtm::figures

#endif // UHTM_HARNESS_FIGURES_HH
