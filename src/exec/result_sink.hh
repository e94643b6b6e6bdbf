/**
 * @file
 * ResultSink: renders a sweep's JobResults into the stable
 * machine-readable trajectory file `BENCH_<name>.json`.
 *
 * Schema (uhtm-bench-v1), one file per figure:
 *
 *   {
 *     "schema": "uhtm-bench-v1",
 *     "bench": "fig6",
 *     "sweep_seed": 42,
 *     "sweep_config": { "quick": "true", ... },
 *     "jobs": [
 *       {
 *         "key": "pmdk/2k_opt",
 *         "seed": 123,               // derived: f(sweep_seed, key)
 *         "config": { ... },         // echoed from the job
 *         "ok": true,
 *         "metrics": {
 *           "sim_seconds": ..., "end_tick": ...,
 *           "committed_txs": ..., "committed_ops": ...,
 *           "tx_per_sec": ..., "ops_per_sec": ..., "abort_rate": ...,
 *           "htm": { counters incl. per-cause aborts },
 *           "latency_ns": { commit/abort protocol distributions },
 *           "domains": [ per-domain ops/commits/aborts ],
 *           "extra": { experiment-specific scalars }
 *         }
 *       }, ...
 *     ]
 *   }
 *
 * Everything in the file is a deterministic function of (code, sweep
 * seed, configs): host wall-clock never appears here (it goes to
 * stdout and the TIMING_* sidecar), so the bytes are identical for
 * --jobs=1 and --jobs=N and two runs of the same binary — which is
 * what lets CI diff the files and track performance trajectories.
 */

#ifndef UHTM_EXEC_RESULT_SINK_HH
#define UHTM_EXEC_RESULT_SINK_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exec/job.hh"

namespace uhtm::exec
{

class ResultSink
{
  public:
    /**
     * @param benchName figure name, becomes "bench" and the file name.
     * @param sweepSeed the sweep's root seed.
     * @param sweepConfig sweep-level settings echoed into the file.
     */
    ResultSink(std::string benchName, std::uint64_t sweepSeed,
               std::map<std::string, std::string> sweepConfig);

    /** Serialize @p results (submission order) to the v1 schema. */
    std::string json(const std::vector<JobResult> &results) const;

    /** File name for this sweep: "BENCH_<name>.json". */
    std::string fileName() const { return "BENCH_" + _name + ".json"; }

    /**
     * Write the JSON into @p dir (created if missing) as fileName().
     * Returns the path written, or an empty string with @p err set.
     */
    std::string writeTo(const std::string &dir,
                        const std::vector<JobResult> &results,
                        std::string *err) const;

    /**
     * Serialize the observability sidecar (schema uhtm-metrics-v1):
     * per-job hierarchical counters/gauges/distributions from
     * RunMetrics::registry plus a deterministic "aggregate" merge over
     * all ok jobs. Lives next to — never inside — the frozen
     * uhtm-bench-v1 file, so bench bytes are identical with metrics on
     * or off.
     */
    std::string metricsJson(const std::vector<JobResult> &results) const;

    /** Sidecar file name: "METRICS_<name>.json". */
    std::string metricsFileName() const
    {
        return "METRICS_" + _name + ".json";
    }

    /** Write the metrics sidecar into @p dir (like writeTo). */
    std::string writeMetricsTo(const std::string &dir,
                               const std::vector<JobResult> &results,
                               std::string *err) const;

    /**
     * Serialize the host-timing sidecar: sweep wall clock, job and
     * thread counts, simulated events executed and events/sec, then a
     * "per_job" array in submission order (key, host_seconds,
     * events_executed, commits, and a "memory" ledger of the bytes
     * held at job end by the architectural store, the durable lag and
     * the redo-log records). The times are host-dependent, so the
     * file is never golden-compared; its key set and row order are
     * the same for every --jobs value.
     */
    std::string timingJson(const std::vector<JobResult> &results,
                           double wallSeconds, unsigned threads) const;

    /** Sidecar file name: "TIMING_<name>.json". */
    std::string timingFileName() const
    {
        return "TIMING_" + _name + ".json";
    }

    /** Write the timing sidecar into @p dir (like writeTo). */
    std::string writeTimingTo(const std::string &dir,
                              const std::vector<JobResult> &results,
                              double wallSeconds, unsigned threads,
                              std::string *err) const;

  private:
    std::string _name;
    std::uint64_t _sweepSeed;
    std::map<std::string, std::string> _sweepConfig;
};

} // namespace uhtm::exec

#endif // UHTM_EXEC_RESULT_SINK_HH
