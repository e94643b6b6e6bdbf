/**
 * @file
 * Dual key-value store (cross-referencing-logs style [23], paper
 * Fig. 9b).
 *
 * Two identical hash maps, one in DRAM (serving the foreground) and one
 * in NVM (kept consistent by background threads). Foreground threads
 * commit volatile transactions against the DRAM map and hand the update
 * to their background partner through an out-of-transaction ring (the
 * cross-referencing log); background threads replay the updates into
 * the NVM map with durable transactions.
 *
 * Because the foreground/background hand-off is outside transactions,
 * the aggregated footprint of *active* transactions stays low — which
 * is why the paper observes lower overflow rates for this workload.
 */

#ifndef UHTM_WORKLOADS_KV_DUAL_HH
#define UHTM_WORKLOADS_KV_DUAL_HH

#include <memory>
#include <vector>

#include "harness/runner.hh"
#include "workloads/hashmap.hh"
#include "workloads/ring.hh"

namespace uhtm
{

/** Parameters of a Dual KV instance. */
struct DualKvParams
{
    /** Per-transaction footprint (paper Fig. 9b sweeps 600KB..1.5MB). */
    std::uint64_t footprintBytes = KiB(600);
    /** Value payload of one put. */
    std::uint64_t valueBytes = KiB(1);
    /** Committed foreground transactions per foreground worker. */
    std::uint64_t txPerWorker = 3;
    std::uint64_t keyspace = 1u << 20;
    std::uint64_t prefillKeys = 1u << 16;
    /** Fraction of operations that update an existing key. */
    double updateFraction = 0.9;
    std::uint64_t seed = 1;

    std::uint64_t
    opsPerTx() const
    {
        return std::max<std::uint64_t>(1, footprintBytes / valueBytes);
    }
};

/**
 * Dual key-value store workload. Pair foreground worker i with
 * background worker i; both indices range over [0, pairs).
 */
class DualKv
{
  public:
    DualKv(HtmSystem &sys, RegionAllocator &regions, DualKvParams params,
           unsigned pairs);

    /** Foreground: volatile DRAM transactions + log production. */
    CoTask<void> foreground(TxContext &ctx, unsigned idx, RunControl &rc);

    /** Background: drain the log into durable NVM transactions. */
    CoTask<void> background(TxContext &ctx, unsigned idx, RunControl &rc);

    /**
     * After a full run (log drained) both maps must hold the same keys
     * (values differ: each side stores its own blob addresses).
     */
    bool mapsConsistent(std::string *why) const;

  private:
    std::uint64_t pickKey(unsigned worker, bool update, Rng &rng) const;

    DualKvParams _params;
    unsigned _pairs = 0;
    std::unique_ptr<SimHashMap> _dramMap;
    std::unique_ptr<SimHashMap> _nvmMap;
    std::vector<std::unique_ptr<SimRing>> _logs;
    std::vector<TxAllocator> _dramAllocs;
    std::vector<TxAllocator> _nvmAllocs;
};

} // namespace uhtm

#endif // UHTM_WORKLOADS_KV_DUAL_HH
