/**
 * @file
 * Experiment runner: builds a machine, places worker and background
 * coroutines on cores/domains, drives the event loop until all workers
 * finish, and extracts throughput metrics.
 */

#ifndef UHTM_HARNESS_RUNNER_HH
#define UHTM_HARNESS_RUNNER_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "htm/tx_context.hh"
#include "obs/metrics.hh"
#include "obs/tracer.hh"
#include "sim/arena.hh"
#include "sim/stats.hh"
#include "workloads/region_alloc.hh"

namespace uhtm
{

/** Shared run-wide control block visible to all workloads. */
struct RunControl
{
    /** Set once all foreground workers finished; background loops and
     *  drain-style consumers exit when they observe it. */
    bool stopBackground = false;

    /** Committed application operations (workloads increment this
     *  after each successfully committed operation). */
    std::uint64_t opsCommitted = 0;

    /** Committed operations per conflict domain (per benchmark). */
    std::map<DomainId, std::uint64_t> domainOps;

    /** Record @p n committed operations for domain @p d. */
    void
    addOps(DomainId d, std::uint64_t n)
    {
        opsCommitted += n;
        domainOps[d] += n;
    }
};

/** Result of one experiment run. */
struct RunMetrics
{
    Tick endTick = 0;          ///< when the last worker finished
    double simSeconds = 0.0;
    std::uint64_t committedTxs = 0;
    std::uint64_t committedOps = 0;
    double txPerSec = 0.0;
    double opsPerSec = 0.0;
    double abortRate = 0.0;
    HtmStats htm; ///< snapshot of the machine's HTM statistics

    /** Committed operations per conflict domain (per benchmark). */
    std::map<DomainId, std::uint64_t> domainOps;
    /** Per-domain commit/abort counters summed over worker contexts. */
    std::map<DomainId, TxContextStats> domainCtx;
    /** Tick at which each domain's last foreground worker finished. */
    std::map<DomainId, Tick> domainEndTick;

    /** Experiment-specific named scalars (e.g. the latency figure's
     *  measured access times). Emitted into the JSON output. */
    StatSet extra;

    /** Hierarchical component metrics collected at end of run. Goes
     *  into the METRICS sidecar only, never the frozen bench JSON. */
    obs::MetricsSnapshot registry;

    /** Host-side: simulator events executed by this run. Reporting
     *  only (events/sec in TIMING sidecars); never serialized into the
     *  frozen bench JSON. */
    std::uint64_t hostEventsExecuted = 0;

    /** Host-side: bytes held by the machine's largest owners at the
     *  end of the run (TIMING sidecar only, like hostEventsExecuted). */
    HtmSystem::MemoryLedger memory;

    /** Per-domain operation throughput over the domain's own runtime
     *  (fixed-work runs end at different times per benchmark). */
    double
    domainOpsPerSec(DomainId d) const
    {
        auto it = domainOps.find(d);
        if (it == domainOps.end())
            return 0.0;
        auto et = domainEndTick.find(d);
        const double secs = et != domainEndTick.end() && et->second > 0
                                ? secondsFromTicks(et->second)
                                : simSeconds;
        return secs > 0 ? static_cast<double>(it->second) / secs : 0.0;
    }
};

/**
 * Builds and drives one simulated machine for one experiment run.
 * Workers are CoTask<void> factories; each gets its own core and
 * TxContext. Background workloads (LLC hogs, log consumers) loop until
 * control().stopBackground is set after the last worker finishes.
 */
class Runner
{
  public:
    using WorkerFn = std::function<CoTask<void>(TxContext &)>;
    /** Workload hook invoked at end of run to add workload-level
     *  metrics (e.g. service latency distributions) to the registry
     *  snapshot, after the system components were collected. */
    using MetricsExporter = std::function<void(obs::MetricsRegistry &)>;

    /** @throws std::runtime_error if tracing is on (obs::traceDir())
     *  and the run's trace file cannot be opened. */
    Runner(MachineConfig mcfg, HtmPolicy policy, std::uint64_t seed = 1);

    HtmSystem &system() { return _sys; }
    EventQueue &eventQueue() { return _eq; }
    RegionAllocator &regions() { return _regions; }
    RunControl &control() { return _control; }

    /** Create a conflict domain (one simulated process). */
    DomainId addDomain(const std::string &name);

    /** Place a foreground worker on the next free core. */
    TxContext &addWorker(DomainId domain, WorkerFn fn);

    /** Place a background workload on the next free core. */
    TxContext &addBackground(DomainId domain, WorkerFn fn);

    /** Register a workload metrics exporter (run in add order). */
    void
    addMetricsExporter(MetricsExporter fn)
    {
        _exporters.push_back(std::move(fn));
    }

    /**
     * Run the experiment: start all tasks, drive events until every
     * foreground worker finishes, stop backgrounds, drain, and report.
     * @throws std::runtime_error if the trace file could not be
     * written completely.
     */
    RunMetrics run();

  private:
    struct Slot
    {
        std::unique_ptr<TxContext> ctx;
        WorkerFn fn;
        bool background = false;
        bool done = false;
        Tick finishTick = 0;
        CoTask<void> task;
    };

    CoTask<void> rootTask(Slot &slot);

    TxContext &addSlot(DomainId domain, WorkerFn fn, bool background);
    bool workersDone() const;

    /** Job arena; first member so every arena-backed object (coroutine
     *  frames in _slots, TxDescs in _sys) is destroyed before it. */
    Arena _arena;
    EventQueue _eq;
    HtmSystem _sys;
    RegionAllocator _regions;
    RunControl _control;
    std::uint64_t _seed;
    CoreId _nextCore = 0;
    std::vector<std::unique_ptr<Slot>> _slots;
    std::vector<MetricsExporter> _exporters;
    /** Lifecycle-event tracer, attached when obs::traceDir() is set. */
    std::unique_ptr<obs::Tracer> _tracer;
};

} // namespace uhtm

#endif // UHTM_HARNESS_RUNNER_HH
