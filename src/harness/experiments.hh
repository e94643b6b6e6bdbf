/**
 * @file
 * Canned experiment assemblies that the figures' jobs run: the
 * consolidated PMDK runs, the hybrid key-value stores, the Echo store,
 * the contention mix and the service workload, each over a
 * configurable HTM policy (system variant).
 */

#ifndef UHTM_HARNESS_EXPERIMENTS_HH
#define UHTM_HARNESS_EXPERIMENTS_HH

#include <vector>

#include "harness/runner.hh"
#include "traffic/service.hh"
#include "workloads/echo.hh"
#include "workloads/kv_dual.hh"
#include "workloads/kv_hybrid.hh"
#include "workloads/pmdk.hh"

namespace uhtm::experiments
{

/** Options common to consolidated runs. */
struct ConsolidationOpts
{
    unsigned workersPerBench = 4;
    unsigned hogs = 2;
    std::uint64_t hogBytes = MiB(48);
    /** Lines per hog burst (memory-level parallelism). */
    unsigned hogBurst = 96;
    std::uint64_t seed = 1;
};

/**
 * Consolidate several PMDK micro-benchmarks (one conflict domain each)
 * with LLC-hog background applications, as in paper Section V ("we
 * consolidated four benchmarks with four threads" plus two
 * memory-intensive applications).
 */
RunMetrics runPmdkConsolidated(const MachineConfig &machine,
                               const HtmPolicy &policy,
                               const std::vector<PmdkParams> &benches,
                               const ConsolidationOpts &opts);

/** Echo KV store: one master + clients in one domain (opt. hogs). */
RunMetrics runEcho(const MachineConfig &machine, const HtmPolicy &policy,
                   const EchoParams &params, unsigned clients,
                   unsigned hogs, std::uint64_t seed);

/**
 * Figure 9's consolidation: a Hybrid-Index KV store with
 * @p hybridWorkers threads (domain 0) beside a Dual KV store with
 * @p dualPairs foreground/background thread pairs (domain 1).
 */
RunMetrics runHybridAndDual(const MachineConfig &machine,
                            const HtmPolicy &policy,
                            const HybridKvParams &hybrid,
                            unsigned hybridWorkers,
                            const DualKvParams &dual, unsigned dualPairs,
                            std::uint64_t seed);

/**
 * Adversarial high-contention mix for the conflict-policy figure and
 * stress tests: every worker read-modify-writes a tiny pool of shared
 * NVM lines (hotLines = 1 is the lemming scenario where all threads
 * hammer one line) plus a few private NVM lines so commits engage the
 * redo-log drain path.
 */
struct ContentionParams
{
    unsigned workers = 4;
    unsigned txPerWorker = 25;
    /** Shared NVM lines all transactions fight over. */
    unsigned hotLines = 1;
    /** Hot-pool reads per transaction (widens the read set). */
    unsigned readsPerTx = 2;
    /** Private NVM line writes per transaction (redo-log traffic). */
    unsigned privateWritesPerTx = 4;
    std::uint64_t seed = 1;
};

/** Run the contention mix under @p policy (incl. policy.conflict). */
RunMetrics runContention(const MachineConfig &machine,
                         const HtmPolicy &policy,
                         const ContentionParams &params);

/**
 * Open-loop multi-tenant service run (see traffic/service.hh): one
 * conflict domain per tenant, workersPerTenant server threads each,
 * request-lifecycle distributions exported into the metrics registry
 * ("service.*" and "tenant<i>.service.*").
 */
RunMetrics runService(const MachineConfig &machine,
                      const HtmPolicy &policy,
                      const traffic::ServiceParams &params);

} // namespace uhtm::experiments

#endif // UHTM_HARNESS_EXPERIMENTS_HH
