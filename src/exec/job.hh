/**
 * @file
 * Experiment jobs: the unit of work the execution subsystem schedules.
 *
 * A Job builds and runs one complete simulation (its own EventQueue,
 * HtmSystem, workloads) and returns the RunMetrics. Jobs are
 * independent by construction — nothing in the simulator is shared
 * between two Runner instances — which is what lets a sweep execute
 * them on several worker threads while staying bit-for-bit
 * deterministic.
 */

#ifndef UHTM_EXEC_JOB_HH
#define UHTM_EXEC_JOB_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "harness/runner.hh"

namespace uhtm::exec
{

/** One schedulable experiment: a named closure producing RunMetrics. */
struct Job
{
    /**
     * Unique key within the sweep, e.g. "pmdk/2k_opt". The key names
     * the result in tables, JSON and `--filter`, and — together with
     * the sweep seed — determines the job's RNG seed, so results do
     * not depend on submission order or thread count.
     */
    std::string key;

    /** Configuration echoed verbatim into the JSON output. */
    std::map<std::string, std::string> config;

    /**
     * Build and run the simulation. @p seed is the job's derived seed
     * (SweepScheduler::jobSeed); the closure must draw all randomness
     * from it. May throw; the scheduler records the failure without
     * affecting other jobs.
     */
    std::function<RunMetrics(std::uint64_t seed)> run;
};

/** Outcome of one scheduled job, in submission order. */
struct JobResult
{
    std::string key;
    std::map<std::string, std::string> config;
    /** Seed the job ran with (derived from sweep seed and key). */
    std::uint64_t seed = 0;
    bool ok = false;
    /** what() of the escaped exception when !ok. */
    std::string error;
    RunMetrics metrics;
    /** Host wall-clock time of this job. Reporting only: never part
     *  of the deterministic JSON output. */
    double hostSeconds = 0.0;
};

} // namespace uhtm::exec

#endif // UHTM_EXEC_JOB_HH
