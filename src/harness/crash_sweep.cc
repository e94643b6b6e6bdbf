#include "harness/crash_sweep.hh"

#include <cassert>
#include <memory>
#include <set>

#include "workloads/btree.hh"
#include "workloads/kv_hybrid.hh"

namespace uhtm
{

namespace
{

/** What @p fi recorded and @p oracle found. */
CrashSweepResult
resultOf(const FaultInjector &fi, const CrashOracle &oracle)
{
    CrashSweepResult res;
    res.points = fi.pointCount();
    res.checks = oracle.checksRun();
    res.linesTracked = oracle.linesTracked();
    res.pointsByKind.resize(
        static_cast<std::size_t>(PersistPoint::UndoCopyBack) + 1);
    for (const auto &e : fi.events())
        ++res.pointsByKind[static_cast<std::size_t>(e.point)];
    res.crashTick = fi.crashTick();
    res.violations = oracle.violations();
    return res;
}

} // namespace

CrashSweepResult
CrashSweepRunner::sweep()
{
    Runner r(_cfg.mcfg, _cfg.policy, _cfg.seed);
    r.system().setBreakCommitMarkOrdering(_cfg.breakCommitMarkOrdering);

    FaultInjector fi(r.eventQueue());
    CrashOracle oracle(r.system());
    fi.setOracle(&oracle);
    r.system().setFaultInjector(&fi);

    EventQueue &eq = r.eventQueue();
    CrashOracle *op = &oracle;
    assert(_cfg.fullImageStride >= 1 && "fullImageStride must be >= 1");
    fi.setOnPoint([&eq, op, stride = _cfg.fullImageStride](
                      const PersistEvent &ev, const std::uint8_t *) {
        const bool full = ev.index % stride == 0;
        eq.scheduleAt(ev.completeAt, [&eq, op, index = ev.index, full] {
            op->checkCrashAt(eq.now(), full, index);
        });
    });

    _workload(r);
    r.run();

    // Post-run check: with the machine quiesced, recovery must produce
    // exactly the committed state.
    oracle.checkCrashAt(eq.now(), true, CrashOracle::kNoPoint);

    // Quiescent drain: write every dirty DRAM-cache line back, with the
    // injector detached so the schedule gains no point, and check that
    // in-place NVM then equals the store without redo replay.
    r.system().setFaultInjector(nullptr);
    r.system().flushDramCache();
    oracle.checkDrained();

    CrashSweepResult res = resultOf(fi, oracle);
    res.schedule = fi.events();
    return res;
}

CrashSweepResult
CrashSweepRunner::replay(std::uint64_t k)
{
    Runner r(_cfg.mcfg, _cfg.policy, _cfg.seed);
    r.system().setBreakCommitMarkOrdering(_cfg.breakCommitMarkOrdering);

    FaultInjector fi(r.eventQueue());
    CrashOracle oracle(r.system());
    fi.setOracle(&oracle);
    r.system().setFaultInjector(&fi);
    fi.armCrashAt(k);

    _workload(r);
    r.run();

    // If the schedule was shorter than k, nothing crashed and the run
    // finished normally; validate the final state anyway.
    oracle.checkCrashAt(r.eventQueue().now(), true,
                        fi.crashed() ? k : CrashOracle::kNoPoint);
    CrashSweepResult res = resultOf(fi, oracle);

    r.system().setFaultInjector(nullptr);
    r.eventQueue().clearStop();
    return res;
}

std::uint64_t
CrashSweepRunner::shrink(const CrashSweepResult &failed)
{
    std::set<std::uint64_t> candidates;
    for (const auto &v : failed.violations)
        if (v.pointIndex != CrashOracle::kNoPoint)
            candidates.insert(v.pointIndex);
    for (std::uint64_t k : candidates) {
        const CrashSweepResult rep = replay(k);
        if (!rep.passed())
            return k;
    }
    return CrashOracle::kNoPoint;
}

CrashSweepRunner::WorkloadFn
CrashSweepRunner::kvHybridWorkload(unsigned workers,
                                   std::uint64_t tx_per_worker)
{
    return [workers, tx_per_worker](Runner &r) {
        HybridKvParams p;
        p.footprintBytes = KiB(4);
        p.valueBytes = 512;
        p.txPerWorker = tx_per_worker;
        p.keyspace = 1u << 12;
        p.prefillKeys = 128;
        p.updateFraction = 0.75;
        p.seed = 7;
        auto kv = std::make_shared<HybridIndexKv>(r.system(), r.regions(),
                                                  p, workers);
        const DomainId d = r.addDomain("kv");
        RunControl &rc = r.control();
        for (unsigned i = 0; i < workers; ++i) {
            r.addWorker(d, [kv, i, &rc](TxContext &ctx) {
                return kv->worker(ctx, i, rc);
            });
        }
    };
}

namespace
{

CoTask<void>
btreeInsertWorker(std::shared_ptr<SimBTree> tree,
                  std::shared_ptr<std::vector<TxAllocator>> allocs,
                  unsigned idx, std::uint64_t txs, std::uint64_t seed,
                  TxContext &ctx)
{
    Rng rng(seed * 2654435761ull + idx);
    TxAllocator &alloc = (*allocs)[idx];
    for (std::uint64_t i = 0; i < txs; ++i) {
        // A few inserts per transaction; key ranges overlap across
        // workers so conflicts (and aborts) are exercised too.
        std::uint64_t keys[3];
        for (auto &k : keys)
            k = 1 + rng.below(1u << 10);
        const std::uint64_t val =
            (static_cast<std::uint64_t>(idx + 1) << 32) | (i + 1);
        co_await ctx.run([&](TxContext &c) -> CoTask<void> {
            for (auto k : keys)
                co_await tree->insert(c, alloc, k, val);
        });
    }
}

} // namespace

CrashSweepRunner::WorkloadFn
CrashSweepRunner::btreeWorkload(unsigned workers,
                                std::uint64_t tx_per_worker)
{
    return [workers, tx_per_worker](Runner &r) {
        auto tree = std::make_shared<SimBTree>(r.system(), r.regions(),
                                               MemKind::Nvm);
        auto allocs = std::make_shared<std::vector<TxAllocator>>();
        for (unsigned i = 0; i < workers; ++i) {
            allocs->emplace_back(r.system(), r.regions(), MemKind::Nvm,
                                 MiB(1));
        }
        const DomainId d = r.addDomain("btree");
        for (unsigned i = 0; i < workers; ++i) {
            r.addWorker(d,
                        [tree, allocs, i, tx_per_worker](TxContext &ctx) {
                            return btreeInsertWorker(tree, allocs, i,
                                                     tx_per_worker, 11,
                                                     ctx);
                        });
        }
    };
}

} // namespace uhtm
