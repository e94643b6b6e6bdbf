/**
 * @file
 * SweepScheduler: runs a set of independent experiment jobs on a few
 * worker threads and returns their results in submission order.
 *
 * Scheduling contract: jobs are claimed in submission order. Workers
 * share one atomic cursor into the job list; each takes the next
 * unclaimed index, runs it to completion and claims again, until the
 * list is exhausted. No job spawns jobs, so there is nothing to wait
 * for once the cursor passes the end.
 *
 * Determinism contract: a job's seed is a pure function of the sweep
 * seed and the job key, results are collected positionally, and
 * nothing a job can observe depends on the worker that ran it — so a
 * sweep's output (including the serialized JSON) is byte-identical
 * for `--jobs=1` and `--jobs=N`.
 */

#ifndef UHTM_EXEC_SCHEDULER_HH
#define UHTM_EXEC_SCHEDULER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "exec/job.hh"

namespace uhtm::exec
{

/** Sweep-wide execution options. */
struct SweepOptions
{
    /** Worker threads; 0 = one per hardware thread. */
    unsigned jobs = 0;
    /** Root seed; every job derives its own from (this, key). */
    std::uint64_t sweepSeed = 42;
};

class SweepScheduler
{
  public:
    explicit SweepScheduler(SweepOptions opts)
        : _opts(opts), _threads(resolveThreadCount(opts.jobs))
    {
    }

    /** Worker count: `jobs`, or one per hardware thread for 0. */
    unsigned threads() const { return _threads; }

    /**
     * Seed for the job named @p key under @p sweepSeed: FNV-1a of the
     * key mixed with the sweep seed through SplitMix64. Independent of
     * submission order and thread count.
     */
    static std::uint64_t jobSeed(std::uint64_t sweepSeed,
                                 const std::string &key);

    /**
     * Execute every job and return one JobResult per job, in
     * submission order. A throwing job yields ok=false with the
     * exception message; all other jobs still run.
     *
     * Runs min(threads(), jobs.size()) workers: that many minus one
     * new threads plus the calling thread. With one worker every job
     * runs inline on the caller and no thread is started, which keeps
     * `--jobs=1` sanitizer-quiet by construction.
     *
     * @throws std::invalid_argument if two jobs share a key (keys name
     *         results and determine seeds, so duplicates are bugs).
     */
    std::vector<JobResult> run(const std::vector<Job> &jobs);

  private:
    /** 0 means "one per hardware thread" (at least 1). */
    static unsigned resolveThreadCount(unsigned requested);

    SweepOptions _opts;
    unsigned _threads;
};

} // namespace uhtm::exec

#endif // UHTM_EXEC_SCHEDULER_HH
