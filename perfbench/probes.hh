/**
 * @file
 * Whole-path host-cost probes: each one drives a public entry point of
 * the simulator (HtmSystem::issueAccess / issueCommit / issueAbort, the
 * EventQueue, a TxContext coroutine) through one outcome class many
 * times and reports host nanoseconds per operation. Every probe also
 * checks from the components' own counters that its operations really
 * took the class it is named after.
 */

#ifndef UHTM_PERFBENCH_PROBES_HH
#define UHTM_PERFBENCH_PROBES_HH

#include <string>
#include <vector>

namespace perfbench
{

struct ProbeResult
{
    std::string name; ///< per-layer metric name, e.g. "mem.access_l1_hit_ns"
    double ns = 0.0;  ///< median host ns per operation (or per line)
    /** Operations of the probed class / operations issued (1.0 when
     *  every timed operation took the named path). */
    double classFrac = 0.0;
};

/** Minimum share of a probe's operations that must take its class. */
inline constexpr double kProbeClassMin = 0.95;

/** Run the whole suite (single host thread, a few hundred ms). */
std::vector<ProbeResult> runProbes();

} // namespace perfbench

#endif // UHTM_PERFBENCH_PROBES_HH
