/**
 * @file
 * perfbench — host-cost measurement of the three benchmark workloads.
 *
 *   perfbench setup --workload=W --seed=S
 *       Build the workload's jobs and start the sweep; every job returns
 *       at once. Prints the steady-clock time (ns) at which the first
 *       job entered Job::run, so the caller can time process set-up.
 *
 *   perfbench run --workload=W --seed=S --jobs=N --out=DIR
 *       Untraced: one run of the workload's figure sweep. Writes the
 *       sweep's BENCH_<figure>.json and DIR/report.json (host cost,
 *       worker shape, simulated counts).
 *
 *   perfbench trace --workload=W --seed=S --jobs=N --out=DIR
 *       The figure's jobs recomposed from public constructors, with spans
 *       around each layer call (Job::run, Runner construction, workload
 *       constructors + prewarmLlc, Runner::run, SweepScheduler::run,
 *       ResultSink), then the whole-path probe suite. Writes BENCH/METRICS
 *       files (compared job by job with an untraced uhtm_bench run for
 *       fidelity), DIR/spans.json (Chrome trace_event format, job key as
 *       the shared id) and DIR/report.json.
 *
 * Workloads: overflow_read (fig7 --quick), hybrid_write (fig9 --quick),
 * service_many_jobs (the full service sweep).
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "exec/json.hh"
#include "exec/result_sink.hh"
#include "exec/scheduler.hh"
#include "harness/figures.hh"
#include "probes.hh"
#include "traffic/service.hh"
#include "workloads/hog.hh"
#include "workloads/kv_dual.hh"
#include "workloads/kv_hybrid.hh"
#include "workloads/pmdk.hh"

using namespace uhtm;
using Clock = std::chrono::steady_clock;

namespace
{

struct Workload
{
    const char *name;
    const char *figure;
    bool quick;
};

constexpr Workload kWorkloads[] = {
    {"overflow_read", "fig7", true},
    {"hybrid_write", "fig9", true},
    {"service_many_jobs", "service", false},
};

struct Args
{
    std::string mode;
    const Workload *workload = nullptr;
    std::uint64_t seed = 42;
    unsigned jobs = 4;
    std::string out;
};

std::int64_t
steadyNs(Clock::time_point t)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
}

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

struct Usage
{
    double user = 0.0, sys = 0.0;
    std::uint64_t minflt = 0;
};

Usage
usage(int who)
{
    rusage ru{};
    getrusage(who, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
    };
    return {sec(ru.ru_utime), sec(ru.ru_stime),
            static_cast<std::uint64_t>(ru.ru_minflt)};
}

/** Small dense index of the calling pool thread. */
unsigned
workerIndex()
{
    static std::atomic<unsigned> next{0};
    thread_local const unsigned idx = next++;
    return idx;
}

/* ---------------------------------------------------------------- */
/* Thin job wrappers: entry/exit times and worker, nothing inside.  */
/* ---------------------------------------------------------------- */

struct JobTime
{
    Clock::time_point start, end;
    unsigned worker = 0;
};

struct SweepClock
{
    std::atomic<bool> entered{false};
    Clock::time_point firstEntry;
    std::vector<JobTime> jobs;
};

std::vector<exec::Job>
wrapJobs(const std::vector<exec::Job> &jobs, SweepClock &clk,
         bool setupOnly)
{
    clk.jobs.assign(jobs.size(), {});
    std::vector<exec::Job> out;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        out.push_back({jobs[i].key, jobs[i].config,
                       [inner = jobs[i].run, &clk, i,
                        setupOnly](std::uint64_t seed) {
                           JobTime &t = clk.jobs[i];
                           t.start = Clock::now();
                           if (!clk.entered.exchange(true))
                               clk.firstEntry = t.start;
                           RunMetrics m;
                           if (!setupOnly)
                               m = inner(seed);
                           t.end = Clock::now();
                           t.worker = workerIndex();
                           return m;
                       }});
    }
    return out;
}

/** Σ job host seconds ÷ (workers × sweep wall), and sweep wall minus
 *  the moment the first worker ran out of jobs. */
void
execShape(const std::vector<JobTime> &jobs, Clock::time_point t0,
          double wall, unsigned threads, double &util, double &straggler)
{
    double busy = 0.0;
    std::map<unsigned, double> lastEnd;
    for (const JobTime &j : jobs) {
        busy += secondsBetween(j.start, j.end);
        double &e = lastEnd[j.worker];
        e = std::max(e, secondsBetween(t0, j.end));
    }
    util = busy / (threads * wall);
    // A worker that never got a job ran dry at once.
    double firstDry = lastEnd.size() < threads ? 0.0 : wall;
    for (const auto &[worker, end] : lastEnd)
        firstDry = std::min(firstDry, end);
    straggler = wall - firstDry;
}

/* ---------------------------------------------------------------- */
/* Counts from the jobs' RunMetrics / METRICS registry.              */
/* ---------------------------------------------------------------- */

struct Counts
{
    std::map<std::string, double> v;

    void
    add(const exec::JobResult &r)
    {
        const auto &c = r.metrics.registry.counters;
        auto get = [&](const char *name) -> double {
            auto it = c.find(name);
            return it == c.end() ? 0.0 : static_cast<double>(it->second);
        };
        for (const auto &[name, val] : c) {
            if (name.rfind("l1.", 0) != 0)
                continue;
            const bool hit = name.ends_with(".hits");
            if (hit || name.ends_with(".misses")) {
                v["accesses"] += static_cast<double>(val);
                v[hit ? "l1_hits" : "l1_misses"] +=
                    static_cast<double>(val);
            }
        }
        static const std::pair<const char *, const char *> kMap[] = {
            {"llc_hits", "llc.hits"},
            {"llc_misses", "llc.misses"},
            {"llc_evictions", "llc.evictions"},
            {"dram_reads", "dram.reads"},
            {"dram_writes", "dram.writes"},
            {"nvm_reads", "nvm.reads"},
            {"nvm_writes", "nvm.writes"},
            {"dcache_hits", "dram_cache.hits"},
            {"dcache_misses", "dram_cache.misses"},
            {"redo_appends", "log.redo.appends"},
            {"undo_appends", "log.undo.appends"},
            {"commits", "htm.commits"},
            {"aborts", "htm.aborts_total"},
            {"summary_probes", "htm.summary_probes"},
            {"summary_skips", "htm.summary_skips"},
            {"sig_checks", "htm.sig_checks"},
            {"sig_hits", "htm.sig_hits"},
            {"sig_false_hits", "htm.sig_false_hits"},
            {"overflowed_txs", "htm.overflowed_txs"},
        };
        for (const auto &[out, in] : kMap)
            v[out] += get(in);
        v["events"] += static_cast<double>(r.metrics.hostEventsExecuted);
        const auto &d = r.metrics.registry.distributions;
        if (auto it = d.find("htm.tx_footprint_bytes"); it != d.end())
            v["commit_lines"] += static_cast<double>(it->second.count) *
                                 it->second.mean / kLineBytes;
    }
};

/* ---------------------------------------------------------------- */
/* Traced recomposition from public constructors.                    */
/* ---------------------------------------------------------------- */

struct Span
{
    std::string name; ///< "<layer>.<what>", e.g. "harness.build"
    Clock::time_point start, end;
    unsigned worker = 0;
    std::uint64_t minflt = 0; ///< minor faults of this thread inside it
};

/** Spans of one job, filled only by the thread running it. */
class SpanLog
{
  public:
    template <typename F>
    auto
    span(const char *name, F &&f)
    {
        Span s{name, Clock::now(), {}, workerIndex(), 0};
        const std::uint64_t f0 = usage(RUSAGE_THREAD).minflt;
        auto finish = [&] {
            s.end = Clock::now();
            s.minflt = usage(RUSAGE_THREAD).minflt - f0;
            _spans.push_back(std::move(s));
        };
        if constexpr (std::is_void_v<decltype(f())>) {
            f();
            finish();
        } else {
            auto r = f();
            finish();
            return r;
        }
    }

    const std::vector<Span> &spans() const { return _spans; }

  private:
    std::vector<Span> _spans;
};

/** Policy of a system label used by fig7, fig9 and service. */
HtmPolicy
systemPolicy(const std::string &label)
{
    if (label == "LLC-Bounded")
        return HtmPolicy::llcBounded();
    if (label == "Ideal")
        return HtmPolicy::ideal();
    if (label == "Sig-Only")
        return HtmPolicy::signatureOnly(2048);
    const std::size_t us = label.find('_');
    if (us == std::string::npos || us == 0)
        throw std::invalid_argument("unknown system " + label);
    std::string num = label.substr(0, us);
    unsigned scale = 1;
    if (num.back() == 'k') {
        scale = 1024;
        num.pop_back();
    }
    const unsigned bits = static_cast<unsigned>(std::stoul(num)) * scale;
    const std::string kind = label.substr(us + 1);
    if (kind == "sig")
        return HtmPolicy::uhtmSig(bits);
    if (kind == "opt")
        return HtmPolicy::uhtmOpt(bits);
    throw std::invalid_argument("unknown system " + label);
}

using Config = std::map<std::string, std::string>;

/** fig7 --quick job: four PMDK indexes × 4 threads + 2 LLC hogs. */
RunMetrics
recomposeFig7(const Config &cfg, std::uint64_t seed, SpanLog &log)
{
    const std::uint64_t fp = KiB(std::stoull(cfg.at("footprint_kb")));
    HtmPolicy policy = systemPolicy(cfg.at("system"));
    policy.conflict = PolicyDescriptor{};
    MachineConfig machine;
    machine.cores = 4 * 4 + 2;
    auto runner = log.span("harness.build", [&] {
        return std::make_unique<Runner>(machine, policy, seed);
    });
    log.span("harness.prefill", [&] {
        RunControl &rc = runner->control();
        unsigned idx = 0;
        for (IndexKind kind : {IndexKind::HashMap, IndexKind::BTree,
                               IndexKind::RBTree, IndexKind::SkipList}) {
            PmdkParams p;
            p.kind = kind;
            p.placement = MemKind::Nvm;
            p.footprintBytes = fp;
            p.txPerWorker = 6;
            p.seed = seed;
            const DomainId dom = runner->addDomain(
                std::string(indexKindName(kind)) + "." +
                std::to_string(idx++));
            auto bench = std::make_shared<PmdkBenchmark>(
                runner->system(), runner->regions(), p, 4);
            for (unsigned w = 0; w < 4; ++w)
                runner->addWorker(dom, [bench, w, &rc](TxContext &ctx) {
                    return bench->worker(ctx, w, rc);
                });
        }
        for (unsigned h = 0; h < 2; ++h) {
            const DomainId dom =
                runner->addDomain("hog" + std::to_string(h));
            auto hog = std::make_shared<HogApp>(
                runner->system(), runner->regions(), MiB(48), 96);
            runner->addBackground(dom, [hog, &rc](TxContext &ctx) {
                return hog->worker(ctx, rc);
            });
            if (h == 0)
                runner->system().prewarmLlc(hog->base(), hog->lines());
        }
    });
    return log.span("harness.simulate", [&] { return runner->run(); });
}

/** fig9 --quick job: Hybrid-Index (8 workers) + Dual KV (4 pairs). */
RunMetrics
recomposeFig9(const Config &cfg, std::uint64_t seed, SpanLog &log)
{
    const std::uint64_t fp = KiB(std::stoull(cfg.at("footprint_kb")));
    HtmPolicy policy = systemPolicy(cfg.at("system"));
    policy.conflict = PolicyDescriptor{};
    constexpr unsigned kHybridWorkers = 8, kDualPairs = 4;
    MachineConfig machine;
    machine.cores = kHybridWorkers + 2 * kDualPairs;
    auto runner = log.span("harness.build", [&] {
        return std::make_unique<Runner>(machine, policy, seed);
    });
    log.span("harness.prefill", [&] {
        RunControl &rc = runner->control();
        const DomainId hdom = runner->addDomain("hybrid-index");
        HybridKvParams hp;
        hp.footprintBytes = fp;
        hp.txPerWorker = 3;
        hp.seed = seed;
        auto hybrid = std::make_shared<HybridIndexKv>(
            runner->system(), runner->regions(), hp, kHybridWorkers);
        for (unsigned w = 0; w < kHybridWorkers; ++w)
            runner->addWorker(hdom, [hybrid, w, &rc](TxContext &ctx) {
                return hybrid->worker(ctx, w, rc);
            });
        const DomainId ddom = runner->addDomain("dual");
        DualKvParams dp;
        dp.footprintBytes = fp;
        dp.txPerWorker = 3;
        dp.seed = seed + 1;
        auto dual = std::make_shared<DualKv>(
            runner->system(), runner->regions(), dp, kDualPairs);
        for (unsigned p = 0; p < kDualPairs; ++p)
            runner->addWorker(ddom, [dual, p, &rc](TxContext &ctx) {
                return dual->foreground(ctx, p, rc);
            });
        for (unsigned p = 0; p < kDualPairs; ++p)
            runner->addBackground(ddom, [dual, p, &rc](TxContext &ctx) {
                return dual->background(ctx, p, rc);
            });
    });
    return log.span("harness.simulate", [&] { return runner->run(); });
}

/** Full service job: tenants × 2 server threads, open-loop arrivals. */
RunMetrics
recomposeService(const Config &cfg, std::uint64_t seed, SpanLog &log)
{
    HtmPolicy policy = systemPolicy(cfg.at("system"));
    std::string err;
    if (!PolicyDescriptor::parse(cfg.at("policy"), &policy.conflict,
                                 &err))
        throw std::invalid_argument("policy: " + err);
    traffic::ServiceParams params;
    params.tenants = static_cast<unsigned>(std::stoul(cfg.at("tenants")));
    params.workersPerTenant = 2;
    params.requests = 1600;
    if (!traffic::ArrivalSpec::parse(cfg.at("arrival"), &params.arrival,
                                     &err))
        throw std::invalid_argument("arrival: " + err);
    params.seed = seed;
    MachineConfig machine;
    machine.cores = params.tenants * params.workersPerTenant;

    auto runner = log.span("harness.build", [&] {
        return std::make_unique<Runner>(machine, policy, params.seed);
    });
    log.span("harness.prefill", [&] {
        RunControl &rc = runner->control();
        auto svc = std::make_shared<traffic::ServiceWorkload>(
            runner->system(), runner->regions(), params, params.seed);
        for (unsigned t = 0; t < params.tenants; ++t) {
            const DomainId dom =
                runner->addDomain("tenant" + std::to_string(t));
            for (unsigned w = 0; w < params.workersPerTenant; ++w)
                runner->addWorker(dom, [svc, t, w, &rc](TxContext &ctx) {
                    return svc->worker(ctx, t, w, rc);
                });
        }
        runner->addMetricsExporter([svc](obs::MetricsRegistry &reg) {
            svc->tracker().exportTo(reg);
        });
    });
    RunMetrics m =
        log.span("harness.simulate", [&] { return runner->run(); });
    // The figure's per-job latency scalars.
    const auto &dists = m.registry.distributions;
    if (auto it = dists.find("service.sojourn_ns"); it != dists.end()) {
        m.extra.set("service_p50_ns", it->second.quantileUpperBound(0.50));
        m.extra.set("service_p99_ns", it->second.quantileUpperBound(0.99));
        m.extra.set("service_p999_ns",
                    it->second.quantileUpperBound(0.999));
    }
    if (auto it = dists.find("service.queue_wait_ns"); it != dists.end())
        m.extra.set("queue_p99_ns", it->second.quantileUpperBound(0.99));
    if (auto it = m.registry.counters.find("service.requests");
        it != m.registry.counters.end())
        m.extra.set("requests", static_cast<double>(it->second));
    return m;
}

using Recompose = RunMetrics (*)(const Config &, std::uint64_t, SpanLog &);

Recompose
recomposerFor(const Workload &w)
{
    const std::string fig = w.figure;
    if (fig == "fig7")
        return recomposeFig7;
    if (fig == "fig9")
        return recomposeFig9;
    return recomposeService;
}

/* ---------------------------------------------------------------- */
/* Modes.                                                           */
/* ---------------------------------------------------------------- */

figures::FigureOpts
figureOpts(const Args &a)
{
    figures::FigureOpts o;
    o.quick = a.workload->quick;
    o.seed = a.seed;
    return o;
}

/** Sweep-level config exactly as uhtm_bench writes it. */
exec::ResultSink
sinkFor(const Args &a)
{
    return exec::ResultSink(a.workload->figure, a.seed,
                            {{"quick", a.workload->quick ? "true" : "false"},
                             {"tiny", "false"}});
}

bool
writeFile(const std::filesystem::path &p, const std::string &s)
{
    std::FILE *f = std::fopen(p.string().c_str(), "wb");
    if (!f)
        return false;
    const bool ok = std::fwrite(s.data(), 1, s.size(), f) == s.size();
    return std::fclose(f) == 0 && ok;
}

std::vector<exec::Job>
figureJobs(const Args &a)
{
    return figures::find(a.workload->figure)->makeJobs(figureOpts(a));
}

int
modeSetup(const Args &a)
{
    SweepClock clk;
    exec::SweepScheduler sched({a.jobs, a.seed});
    sched.run(wrapJobs(figureJobs(a), clk, true));
    std::printf("first_job_ns %lld\n",
                static_cast<long long>(steadyNs(clk.firstEntry)));
    return 0;
}

std::uint64_t
peakRssKb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<std::uint64_t>(ru.ru_maxrss);
}

/** Write BENCH_<figure>.json and METRICS_<figure>.json into @p dir. */
bool
emit(const exec::ResultSink &sink, const std::string &dir,
     const std::vector<exec::JobResult> &results)
{
    std::string err;
    if (sink.writeTo(dir, results, &err).empty() ||
        sink.writeMetricsTo(dir, results, &err).empty()) {
        std::fprintf(stderr, "perfbench: %s\n", err.c_str());
        return false;
    }
    return true;
}

void
writeCounts(exec::JsonWriter &w, const std::vector<exec::JobResult> &rs)
{
    Counts counts;
    std::uint64_t failed = 0;
    w.key("errors");
    w.beginArray();
    for (const exec::JobResult &r : rs) {
        if (r.ok) {
            counts.add(r);
        } else {
            ++failed;
            w.value(r.key + ": " + r.error);
        }
    }
    w.endArray();
    w.field("jobs", static_cast<std::uint64_t>(rs.size()));
    w.field("jobs_failed", failed);
    w.key("counts");
    w.beginObject();
    for (const auto &[k, v] : counts.v)
        w.field(k, v);
    w.endObject();
}

/** One untraced figure sweep: its host cost, results and counts. */
int
modeRun(const Args &a)
{
    namespace fs = std::filesystem;
    const std::vector<exec::Job> jobs = figureJobs(a);
    exec::SweepScheduler sched({a.jobs, a.seed});
    SweepClock clk;
    const std::vector<exec::Job> wrapped = wrapJobs(jobs, clk, false);
    const Usage u0 = usage(RUSAGE_SELF);
    const auto t0 = Clock::now();
    const std::vector<exec::JobResult> results = sched.run(wrapped);
    const auto t1 = Clock::now();
    const Usage u1 = usage(RUSAGE_SELF);
    const double wall = secondsBetween(t0, t1);
    double util = 0.0, straggler = 0.0;
    execShape(clk.jobs, t0, wall, sched.threads(), util, straggler);
    std::string err;
    if (sinkFor(a).writeTo(a.out, results, &err).empty()) {
        std::fprintf(stderr, "perfbench: %s\n", err.c_str());
        return 1;
    }

    exec::JsonWriter w;
    w.beginObject();
    w.field("workload", std::string(a.workload->name));
    w.field("threads", static_cast<std::uint64_t>(sched.threads()));
    w.field("first_job_ns",
            static_cast<std::uint64_t>(steadyNs(clk.firstEntry)));
    w.field("wall_s", wall);
    w.field("cpu_user_s", u1.user - u0.user);
    w.field("cpu_sys_s", u1.sys - u0.sys);
    w.field("minflt", u1.minflt - u0.minflt);
    w.field("worker_util", util);
    w.field("straggler_s", straggler);
    w.field("peak_rss_kb", peakRssKb());
    writeCounts(w, results);
    w.endObject();
    return writeFile(fs::path(a.out) / "report.json", w.str() + "\n") ? 0
                                                                        : 1;
}

void
writeSpans(const std::filesystem::path &p, Clock::time_point origin,
           const std::vector<std::pair<std::string, Span>> &spans)
{
    exec::JsonWriter w;
    w.beginObject();
    w.key("traceEvents");
    w.beginArray();
    for (const auto &[id, s] : spans) {
        w.beginObject();
        w.field("name", s.name);
        w.field("cat", s.name.substr(0, s.name.find('.')));
        w.field("ph", std::string("X"));
        w.field("ts", secondsBetween(origin, s.start) * 1e6);
        w.field("dur", secondsBetween(s.start, s.end) * 1e6);
        w.field("pid", std::uint64_t(1));
        w.field("tid", static_cast<std::uint64_t>(s.worker));
        w.key("args");
        w.beginObject();
        w.field("id", id);
        w.field("minflt", s.minflt);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    writeFile(p, w.str() + "\n");
}

/** The figure's jobs recomposed from public constructors, with spans
 *  around every layer call, then the probe suite. */
int
modeTrace(const Args &a)
{
    namespace fs = std::filesystem;
    const auto origin = Clock::now();
    const std::vector<exec::Job> jobs = figureJobs(a);
    exec::SweepScheduler sched({a.jobs, a.seed});

    const Recompose recompose = recomposerFor(*a.workload);
    std::vector<SpanLog> logs(jobs.size());
    std::vector<exec::Job> traced;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        traced.push_back({jobs[i].key, jobs[i].config,
                          [cfg = jobs[i].config, recompose, &log = logs[i]](
                              std::uint64_t seed) {
                              return log.span("exec.job", [&] {
                                  return recompose(cfg, seed, log);
                              });
                          }});
    }
    SpanLog top;
    const Usage u0 = usage(RUSAGE_SELF);
    const std::vector<exec::JobResult> results =
        top.span("exec.sweep", [&] { return sched.run(traced); });
    const Usage u1 = usage(RUSAGE_SELF);
    const Span &sweep = top.spans().back();
    std::vector<JobTime> jobTimes;
    for (const SpanLog &log : logs) {
        // exec.job closes last; a job that threw has none.
        if (log.spans().empty() || log.spans().back().name != "exec.job")
            continue;
        const Span &job = log.spans().back();
        jobTimes.push_back({job.start, job.end, job.worker});
    }
    double util = 0.0, straggler = 0.0;
    execShape(jobTimes, sweep.start, secondsBetween(sweep.start, sweep.end),
              sched.threads(), util, straggler);
    const bool emitted = top.span(
        "exec.emit", [&] { return emit(sinkFor(a), a.out, results); });
    if (!emitted)
        return 1;
    const std::vector<perfbench::ProbeResult> probes =
        top.span("probe.suite", [] { return perfbench::runProbes(); });

    std::vector<std::pair<std::string, Span>> all;
    for (const Span &s : top.spans())
        all.emplace_back("sweep", s);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        for (const Span &s : logs[i].spans())
            all.emplace_back(jobs[i].key, s);
    writeSpans(fs::path(a.out) / "spans.json", origin, all);

    exec::JsonWriter w;
    w.beginObject();
    w.field("workload", std::string(a.workload->name));
    w.field("threads", static_cast<std::uint64_t>(sched.threads()));
    for (const Span &s : top.spans())
        w.field(s.name + "_ms", secondsBetween(s.start, s.end) * 1e3);
    w.field("sweep_cpu_user_s", u1.user - u0.user);
    w.field("sweep_cpu_sys_s", u1.sys - u0.sys);
    w.field("worker_util", util);
    w.field("straggler_s", straggler);
    writeCounts(w, results);
    w.key("jobs_spans");
    w.beginArray();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        w.beginObject();
        w.field("key", jobs[i].key);
        for (const Span &s : logs[i].spans()) {
            w.key(s.name);
            w.beginObject();
            w.field("ms", secondsBetween(s.start, s.end) * 1e3);
            w.field("minflt", s.minflt);
            w.endObject();
        }
        w.endObject();
    }
    w.endArray();
    w.key("probes");
    w.beginObject();
    for (const perfbench::ProbeResult &p : probes) {
        w.key(p.name);
        w.beginObject();
        w.field("ns", p.ns);
        w.field("class_frac", p.classFrac);
        w.endObject();
    }
    w.endObject();
    w.field("probe_class_min", perfbench::kProbeClassMin);
    w.endObject();
    return writeFile(fs::path(a.out) / "report.json", w.str() + "\n") ? 0
                                                                        : 1;
}

bool
parseArgs(int argc, char **argv, Args &a, std::string &err)
{
    if (argc < 2) {
        err = "missing mode";
        return false;
    }
    a.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::size_t eq = arg.find('=');
        const std::string k = arg.substr(0, eq);
        const std::string v =
            eq == std::string::npos ? "" : arg.substr(eq + 1);
        char *end = nullptr;
        if (k == "--workload") {
            for (const Workload &w : kWorkloads)
                if (v == w.name)
                    a.workload = &w;
            if (!a.workload) {
                err = "unknown workload " + v;
                return false;
            }
            continue;
        }
        if (k == "--out") {
            a.out = v;
            continue;
        }
        if (v.empty()) {
            err = "bad argument " + arg;
            return false;
        }
        if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (k == "--jobs") {
            a.jobs = static_cast<unsigned>(std::strtoul(v.c_str(), &end, 10));
        } else {
            err = "unknown argument " + arg;
            return false;
        }
        if (*end != '\0') {
            err = "bad number in " + arg;
            return false;
        }
    }
    if (!a.workload) {
        err = "--workload is required";
        return false;
    }
    if (a.mode != "setup" && a.out.empty()) {
        err = "--out is required";
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    std::string err;
    if (!parseArgs(argc, argv, a, err)) {
        std::fprintf(stderr,
                     "perfbench: %s\nusage: perfbench setup|run|trace "
                     "--workload=W [--seed=S] [--seconds=T] [--jobs=N] "
                     "[--out=DIR]\n",
                     err.c_str());
        return 2;
    }
    if (!a.out.empty())
        std::filesystem::create_directories(a.out);
    if (a.mode == "setup")
        return modeSetup(a);
    if (a.mode == "run")
        return modeRun(a);
    if (a.mode == "trace")
        return modeTrace(a);
    std::fprintf(stderr, "perfbench: unknown mode %s\n", a.mode.c_str());
    return 2;
}
