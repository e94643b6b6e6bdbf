/**
 * @file
 * Crash-point sweep harness.
 *
 * Drives a workload on a fresh machine with the FaultInjector attached
 * and validates crash consistency at every persistence-ordering point:
 *
 *   - sweep(): one instrumented run; at each crash point's completion
 *     tick the CrashOracle checks that per-line recovery would satisfy
 *     durability and atomicity, with a periodic full recovery-image
 *     cross-check (fullImageStride), and once the run has drained,
 *     the oracle's drain rule;
 *   - replay(K): a fresh run with the same seed that actually crashes
 *     at point K (event queue frozen, in-flight writes lost) and runs
 *     the full oracle on the wreckage — the deterministic reproducer
 *     behind the tools/crash_sweep --crash-at flag;
 *   - shrink(): reduces a failing sweep to the smallest crash-point
 *     index that still reproduces a violation under replay.
 *
 * Determinism: runs are seeded and event ordering is deterministic, so
 * point K identifies the same machine instant in sweep and replay.
 */

#ifndef UHTM_HARNESS_CRASH_SWEEP_HH
#define UHTM_HARNESS_CRASH_SWEEP_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "check/crash_oracle.hh"
#include "check/fault_injector.hh"
#include "harness/runner.hh"

namespace uhtm
{

/** Configuration of one crash sweep. */
struct CrashSweepConfig
{
    MachineConfig mcfg = MachineConfig::tiny();
    HtmPolicy policy = HtmPolicy::uhtmOpt(1024);
    std::uint64_t seed = 1;
    /** Full recovery-image cross-check every Nth crash point (N >= 1). */
    std::uint64_t fullImageStride = 64;
    /** Enable the deliberately broken commit-mark ordering (tests). */
    bool breakCommitMarkOrdering = false;
};

/** Outcome of a sweep or a replay. */
struct CrashSweepResult
{
    /** Crash points enumerated (the schedule length). */
    std::uint64_t points = 0;
    /** Oracle checks executed. */
    std::uint64_t checks = 0;
    /** Distinct NVM lines the oracle tracked. */
    std::uint64_t linesTracked = 0;
    /** Per-kind point counts, indexed by PersistPoint. */
    std::vector<std::uint64_t> pointsByKind;
    /** Crash tick of a replayed crash (0 for sweeps). */
    Tick crashTick = 0;
    /** The crash schedule itself (index K -> machine instant). */
    std::vector<PersistEvent> schedule;
    std::vector<CrashOracle::Violation> violations;

    bool passed() const { return violations.empty(); }

    /** Smallest failing crash-point index (kNoPoint if none). */
    std::uint64_t
    minFailingPoint() const
    {
        std::uint64_t best = CrashOracle::kNoPoint;
        for (const auto &v : violations)
            if (v.pointIndex < best)
                best = v.pointIndex;
        return best;
    }
};

/** Enumerates and validates every crash point of one workload. */
class CrashSweepRunner
{
  public:
    /** Installs domains/workers on a fresh Runner. */
    using WorkloadFn = std::function<void(Runner &)>;

    CrashSweepRunner(CrashSweepConfig cfg, WorkloadFn workload)
        : _cfg(cfg), _workload(std::move(workload))
    {
    }

    /** Instrumented run checking every crash point (no real crash). */
    CrashSweepResult sweep();

    /** Fresh run crashing at point @p k, full oracle on the result. */
    CrashSweepResult replay(std::uint64_t k);

    /**
     * Smallest crash-point index of @p failed whose replay still
     * violates an invariant (verified reproducer).
     * @return that index, or CrashOracle::kNoPoint if none replays.
     */
    std::uint64_t shrink(const CrashSweepResult &failed);

    /** @name Canned small-scale workloads
     *  @{ */

    /** Hybrid-Index KV (DRAM B+tree + NVM hash + NVM values). */
    static WorkloadFn kvHybridWorkload(unsigned workers = 3,
                                       std::uint64_t tx_per_worker = 4);

    /** Concurrent inserts into one NVM B+tree (conflict-heavy). */
    static WorkloadFn btreeWorkload(unsigned workers = 3,
                                    std::uint64_t tx_per_worker = 6);

    /** @} */

  private:
    CrashSweepConfig _cfg;
    WorkloadFn _workload;
};

} // namespace uhtm

#endif // UHTM_HARNESS_CRASH_SWEEP_HH
