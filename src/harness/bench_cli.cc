#include "harness/bench_cli.hh"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "exec/result_sink.hh"
#include "exec/scheduler.hh"
#include "obs/tracer.hh"
#include "sim/num_parse.hh"
#include "traffic/arrivals.hh"

namespace uhtm
{

namespace
{

/** Upper bound on --jobs: far above any useful worker count, low
 *  enough that a typo cannot ask for billions of threads. */
constexpr std::uint64_t kMaxJobs = 1024;

/**
 * True if @p arg is `<prefix>VALUE` and VALUE is a valid unsigned
 * integer. A matching prefix with a malformed VALUE returns false and
 * sets @p err, which the caller reports instead of "unknown argument".
 */
bool
u64Flag(const std::string &arg, const char *prefix, std::uint64_t &out,
        std::string &err)
{
    if (arg.rfind(prefix, 0) != 0)
        return false;
    const std::string text = arg.substr(std::strlen(prefix));
    if (parseU64(text, out))
        return true;
    err = arg.substr(0, std::strlen(prefix) - 1) +
          ": not an unsigned integer: '" + text + "'";
    return false;
}

/** u64Flag for a finite floating-point VALUE. */
bool
f64Flag(const std::string &arg, const char *prefix, double &out,
        std::string &err)
{
    if (arg.rfind(prefix, 0) != 0)
        return false;
    const std::string text = arg.substr(std::strlen(prefix));
    if (parseF64(text, out))
        return true;
    err = arg.substr(0, std::strlen(prefix) - 1) + ": not a number: '" +
          text + "'";
    return false;
}

/** Sweep-level settings echoed into the JSON file. */
std::map<std::string, std::string>
sweepConfig(const BenchCliOpts &opts)
{
    std::map<std::string, std::string> cfg;
    cfg["quick"] = opts.fig.quick ? "true" : "false";
    cfg["tiny"] = opts.fig.tiny ? "true" : "false";
    if (opts.fig.txOverride)
        cfg["tx_override"] = std::to_string(opts.fig.txOverride);
    if (opts.fig.scanMbOverride)
        cfg["scan_mb_override"] =
            std::to_string(opts.fig.scanMbOverride);
    if (!opts.filter.empty())
        cfg["filter"] = opts.filter;
    if (!opts.fig.policySpec.empty())
        cfg["policy"] = opts.fig.policy.spec();
    if (!opts.fig.arrivalSpec.empty())
        cfg["arrival"] = opts.fig.arrivalSpec;
    if (opts.fig.zipfTheta >= 0.0)
        cfg["zipf_theta"] = opts.zipfThetaSpec;
    if (opts.fig.tenantsOverride)
        cfg["tenants"] = std::to_string(opts.fig.tenantsOverride);
    if (opts.fig.rwMix >= 0.0)
        cfg["rw_mix"] = opts.rwMixSpec;
    return cfg;
}

} // namespace

const char *
benchFlagsHelp()
{
    return "  --jobs=N      worker threads (default: hardware "
           "concurrency)\n"
           "  --seed=S      sweep seed (default 42)\n"
           "  --out=DIR     write BENCH_<figure>.json into DIR\n"
           "  --filter=SUB  only run jobs whose key contains SUB\n"
           "  --quick       reduced sweep points\n"
           "  --tiny        miniature smoke/sanitizer configs\n"
           "  --tx=N        transactions per worker (--ops= alias)\n"
           "  --scanmb=N    fig8 long-scan size in MiB\n"
           "  --policy=SPEC conflict policy: fixed | bounded-retry | "
           "karma | hytm,\n"
           "                with optional :retries=N,base=NS,max=NS "
           "knobs\n"
           "  --arrival=SPEC service arrival process: fixed | poisson "
           "| mmpp,\n"
           "                with :rate=R[,burst=B,occ=F,dwell=NS] "
           "knobs\n"
           "  --zipf-theta=T service key-popularity skew (0 = uniform, "
           "default 0.99)\n"
           "  --tenants=N   service tenant count (default: built-in "
           "sweep)\n"
           "  --rw-mix=F    service base read fraction in [0,1] "
           "(default 0.5)\n"
           "  --metrics     also write METRICS_<figure>.json (needs "
           "--out)\n"
           "  --trace=DIR   record binary event traces into DIR "
           "(uhtm_trace reads them)\n"
           "  --wall        write TIMING_<figure>.json host-timing "
           "sidecar (needs --out)\n";
}

bool
parseBenchArgs(int argc, char **argv, int firstArg, BenchCliOpts &opts,
               std::string &err)
{
    err.clear();
    for (int i = firstArg; i < argc; ++i) {
        const std::string arg = argv[i];
        std::uint64_t v = 0;
        double f = 0.0;
        if (arg == "--out=" || arg == "--trace=" || arg == "--filter=") {
            err = arg.substr(0, arg.size() - 1) + ": empty value";
            return false;
        }
        if (arg == "--quick") {
            opts.fig.quick = true;
        } else if (arg == "--tiny") {
            opts.fig.tiny = true;
        } else if (u64Flag(arg, "--jobs=", v, err)) {
            if (v > kMaxJobs) {
                err = "--jobs: must be at most " +
                      std::to_string(kMaxJobs);
                return false;
            }
            opts.jobs = static_cast<unsigned>(v);
        } else if (u64Flag(arg, "--seed=", v, err)) {
            opts.fig.seed = v;
        } else if (u64Flag(arg, "--tx=", v, err) ||
                   u64Flag(arg, "--ops=", v, err)) {
            opts.fig.txOverride = v;
        } else if (u64Flag(arg, "--scanmb=", v, err)) {
            opts.fig.scanMbOverride = v;
        } else if (arg.rfind("--out=", 0) == 0) {
            opts.outDir = arg.substr(6);
        } else if (arg.rfind("--filter=", 0) == 0) {
            opts.filter = arg.substr(9);
        } else if (arg.rfind("--policy=", 0) == 0) {
            const std::string spec = arg.substr(9);
            std::string perr;
            if (!PolicyDescriptor::parse(spec, &opts.fig.policy,
                                         &perr)) {
                err = "--policy: " + perr;
                return false;
            }
            opts.fig.policySpec = spec;
        } else if (arg.rfind("--arrival=", 0) == 0) {
            const std::string spec = arg.substr(10);
            traffic::ArrivalSpec as;
            std::string aerr;
            if (!traffic::ArrivalSpec::parse(spec, &as, &aerr)) {
                err = "--arrival: " + aerr;
                return false;
            }
            // Store the canonical round-trip form so the sweep-config
            // echo is byte-stable regardless of how the user spelled
            // the numbers.
            opts.fig.arrivalSpec = as.spec();
        } else if (f64Flag(arg, "--zipf-theta=", f, err)) {
            if (f < 0.0) {
                err = "--zipf-theta: must be >= 0";
                return false;
            }
            opts.fig.zipfTheta = f;
            opts.zipfThetaSpec = arg.substr(std::strlen("--zipf-theta="));
        } else if (u64Flag(arg, "--tenants=", v, err)) {
            if (v == 0 || v > 64) {
                err = "--tenants: must be in [1, 64]";
                return false;
            }
            opts.fig.tenantsOverride = v;
        } else if (f64Flag(arg, "--rw-mix=", f, err)) {
            if (f < 0.0 || f > 1.0) {
                err = "--rw-mix: must be in [0, 1]";
                return false;
            }
            opts.fig.rwMix = f;
            opts.rwMixSpec = arg.substr(std::strlen("--rw-mix="));
        } else if (arg == "--metrics") {
            opts.metrics = true;
        } else if (arg == "--wall") {
            opts.wall = true;
        } else if (arg.rfind("--trace=", 0) == 0) {
            opts.traceDir = arg.substr(8);
        } else {
            if (err.empty())
                err = "unknown argument: " + arg;
            return false;
        }
    }
    // A sidecar without a directory to land in would be silently lost.
    const char *sidecar = opts.metrics ? "--metrics"
                          : opts.wall  ? "--wall"
                                       : nullptr;
    if (sidecar && opts.outDir.empty()) {
        err = std::string(sidecar) + ": needs --out=DIR";
        return false;
    }
    return true;
}

int
runFigure(const figures::Figure &figure, const BenchCliOpts &opts)
{
    std::vector<exec::Job> jobs = figure.makeJobs(opts.fig);
    // A filter that matches the figure's own name selects the whole
    // figure (e.g. `uhtm_bench --filter=service`); otherwise it is a
    // substring filter on the job keys, as before.
    const bool nameMatch =
        !opts.filter.empty() &&
        figure.name.find(opts.filter) != std::string::npos;
    if (!opts.filter.empty() && !nameMatch) {
        std::vector<exec::Job> kept;
        for (auto &j : jobs)
            if (j.key.find(opts.filter) != std::string::npos)
                kept.push_back(std::move(j));
        jobs = std::move(kept);
    }
    if (jobs.empty()) {
        if (opts.skipEmptyFilter) {
            std::printf("%s: no jobs match filter \"%s\", skipping\n",
                        figure.name.c_str(), opts.filter.c_str());
            return 0;
        }
        std::fprintf(stderr, "%s: no jobs match filter \"%s\"\n",
                     figure.name.c_str(), opts.filter.c_str());
        return 1;
    }

    if (!opts.traceDir.empty()) {
        // Fail before running anything: figures that never build a
        // Runner would otherwise "succeed" with no trace at all.
        std::error_code ec;
        std::filesystem::create_directories(opts.traceDir, ec);
        if (ec) {
            std::fprintf(stderr, "--trace: cannot create %s: %s\n",
                         opts.traceDir.c_str(), ec.message().c_str());
            return 1;
        }
        obs::setTraceDir(opts.traceDir);
    }

    exec::SweepScheduler scheduler({opts.jobs, opts.fig.seed});
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<exec::JobResult> results = scheduler.run(jobs);
    const double wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();

    figure.render(opts.fig, results, stdout);

    unsigned failed = 0;
    for (const exec::JobResult &r : results) {
        if (!r.ok) {
            ++failed;
            std::fprintf(stderr, "job %s FAILED: %s\n", r.key.c_str(),
                         r.error.c_str());
        }
    }

    if (!opts.outDir.empty()) {
        exec::ResultSink sink(figure.name, opts.fig.seed,
                              sweepConfig(opts));
        std::string err;
        const std::string path =
            sink.writeTo(opts.outDir, results, &err);
        if (path.empty()) {
            std::fprintf(stderr, "JSON emission failed: %s\n",
                         err.c_str());
            return 1;
        }
        std::printf("wrote %s\n", path.c_str());

        if (opts.metrics) {
            const std::string mpath =
                sink.writeMetricsTo(opts.outDir, results, &err);
            if (mpath.empty()) {
                std::fprintf(stderr, "metrics emission failed: %s\n",
                             err.c_str());
                return 1;
            }
            std::printf("wrote %s\n", mpath.c_str());
        }

        if (opts.wall) {
            const std::string tpath = sink.writeTimingTo(
                opts.outDir, results, wallSeconds, scheduler.threads(),
                &err);
            if (tpath.empty()) {
                std::fprintf(stderr, "timing emission failed: %s\n",
                             err.c_str());
                return 1;
            }
            std::printf("wrote %s\n", tpath.c_str());
        }
    }

    // Host-side summary (never part of the deterministic JSON).
    std::printf("\n[%s] %zu jobs on %u threads in %.2fs wall",
                figure.name.c_str(), results.size(),
                scheduler.threads(), wallSeconds);
    if (opts.wall && wallSeconds > 0.0) {
        // Simulated events executed across the sweep (host-side).
        std::uint64_t events = 0;
        for (const exec::JobResult &r : results)
            events += r.metrics.hostEventsExecuted;
        std::printf(" (%.1fM events/s)",
                    static_cast<double>(events) / wallSeconds / 1e6);
    }
    if (failed)
        std::printf(", %u FAILED", failed);
    std::printf("\n");
    return failed ? 1 : 0;
}

} // namespace uhtm
