#include "harness/experiments.hh"

#include <memory>

#include "workloads/hog.hh"

namespace uhtm::experiments
{

namespace
{

/** Attach @p hogs streaming background applications to @p runner. */
void
addHogs(Runner &runner, unsigned hogs, std::uint64_t hog_bytes,
        unsigned burst = 64)
{
    for (unsigned h = 0; h < hogs; ++h) {
        const DomainId dom =
            runner.addDomain("hog" + std::to_string(h));
        auto hog = std::make_shared<HogApp>(
            runner.system(), runner.regions(), hog_bytes, burst);
        RunControl &rc = runner.control();
        runner.addBackground(dom, [hog, &rc](TxContext &ctx) {
            return hog->worker(ctx, rc);
        });
        if (h == 0) {
            // Start at steady state: the hog already owns the LLC, as
            // in the paper's observation that a single graph500-like
            // application keeps the LLC occupied.
            runner.system().prewarmLlc(hog->base(), hog->lines());
        }
    }
}

} // namespace

RunMetrics
runPmdkConsolidated(const MachineConfig &machine, const HtmPolicy &policy,
                    const std::vector<PmdkParams> &benches,
                    const ConsolidationOpts &opts)
{
    Runner runner(machine, policy, opts.seed);
    RunControl &rc = runner.control();
    unsigned bench_idx = 0;
    for (const PmdkParams &params : benches) {
        const DomainId dom = runner.addDomain(
            std::string(indexKindName(params.kind)) + "." +
            std::to_string(bench_idx++));
        auto bench = std::make_shared<PmdkBenchmark>(
            runner.system(), runner.regions(), params,
            opts.workersPerBench);
        for (unsigned w = 0; w < opts.workersPerBench; ++w) {
            runner.addWorker(dom, [bench, w, &rc](TxContext &ctx) {
                return bench->worker(ctx, w, rc);
            });
        }
    }
    addHogs(runner, opts.hogs, opts.hogBytes, opts.hogBurst);
    return runner.run();
}

RunMetrics
runEcho(const MachineConfig &machine, const HtmPolicy &policy,
        const EchoParams &params, unsigned clients, unsigned hogs,
        std::uint64_t seed)
{
    Runner runner(machine, policy, seed);
    RunControl &rc = runner.control();
    const DomainId dom = runner.addDomain("echo");
    auto echo = std::make_shared<EchoKv>(runner.system(),
                                         runner.regions(), params,
                                         clients);
    runner.addWorker(dom, [echo, &rc](TxContext &ctx) {
        return echo->master(ctx, rc);
    });
    for (unsigned c = 0; c < clients; ++c) {
        runner.addBackground(dom, [echo, c, &rc](TxContext &ctx) {
            return echo->client(ctx, c, rc);
        });
    }
    addHogs(runner, hogs, MiB(64));
    return runner.run();
}

RunMetrics
runHybridAndDual(const MachineConfig &machine, const HtmPolicy &policy,
                 const HybridKvParams &hybrid, unsigned hybridWorkers,
                 const DualKvParams &dual, unsigned dualPairs,
                 std::uint64_t seed)
{
    Runner runner(machine, policy, seed);
    RunControl &rc = runner.control();

    const DomainId hybridDom = runner.addDomain("hybrid-index");
    auto hkv = std::make_shared<HybridIndexKv>(
        runner.system(), runner.regions(), hybrid, hybridWorkers);
    for (unsigned w = 0; w < hybridWorkers; ++w) {
        runner.addWorker(hybridDom, [hkv, w, &rc](TxContext &ctx) {
            return hkv->worker(ctx, w, rc);
        });
    }

    const DomainId dualDom = runner.addDomain("dual");
    auto dkv = std::make_shared<DualKv>(runner.system(), runner.regions(),
                                        dual, dualPairs);
    for (unsigned p = 0; p < dualPairs; ++p) {
        runner.addWorker(dualDom, [dkv, p, &rc](TxContext &ctx) {
            return dkv->foreground(ctx, p, rc);
        });
    }
    for (unsigned p = 0; p < dualPairs; ++p) {
        runner.addBackground(dualDom, [dkv, p, &rc](TxContext &ctx) {
            return dkv->background(ctx, p, rc);
        });
    }
    return runner.run();
}

RunMetrics
runContention(const MachineConfig &machine, const HtmPolicy &policy,
              const ContentionParams &params)
{
    Runner runner(machine, policy, params.seed);
    RunControl &rc = runner.control();
    const DomainId dom = runner.addDomain("contend");
    HtmSystem &sys = runner.system();

    const unsigned hot_lines = params.hotLines ? params.hotLines : 1;
    const Addr hot_base = runner.regions().reserve(
        MemKind::Nvm, std::uint64_t(hot_lines) * kLineBytes);
    for (Addr a = 0; a < std::uint64_t(hot_lines) * kLineBytes; a += 8)
        sys.setupWrite64(hot_base + a, 0x1000 + a / kLineBytes);

    for (unsigned w = 0; w < params.workers; ++w) {
        const Addr priv = runner.regions().reserve(
            MemKind::Nvm,
            std::uint64_t(params.privateWritesPerTx + 1) * kLineBytes);
        runner.addWorker(dom, [&params, &rc, hot_base, hot_lines, priv,
                               w](TxContext &ctx) -> CoTask<void> {
            Rng r(params.seed * 31 + w);
            for (unsigned i = 0; i < params.txPerWorker; ++i) {
                // Pick the hot target before run() so every retry of
                // the same logical operation replays the same access
                // pattern (a retried attempt is the same transaction).
                const unsigned hl = r.below(hot_lines);
                co_await ctx.run([&](TxContext &t) -> CoTask<void> {
                    for (unsigned k = 0; k < params.readsPerTx; ++k) {
                        co_await t.read64(hot_base +
                                          ((hl + k) % hot_lines) *
                                              kLineBytes);
                    }
                    const Addr line = hot_base + hl * kLineBytes;
                    const std::uint64_t v = co_await t.read64(line);
                    co_await t.write64(line, v + 1);
                    for (unsigned k = 0; k < params.privateWritesPerTx;
                         ++k)
                        co_await t.write64(priv + k * kLineBytes, i + 1);
                });
                rc.addOps(ctx.domain(), 1);
            }
        });
    }
    return runner.run();
}

RunMetrics
runService(const MachineConfig &machine, const HtmPolicy &policy,
           const traffic::ServiceParams &params)
{
    Runner runner(machine, policy, params.seed);
    RunControl &rc = runner.control();
    auto svc = std::make_shared<traffic::ServiceWorkload>(
        runner.system(), runner.regions(), params, params.seed);
    // One conflict domain per tenant, created in tenant order so the
    // per-domain abort attribution indexes match tenant ids.
    for (unsigned t = 0; t < params.tenants; ++t) {
        const DomainId dom =
            runner.addDomain("tenant" + std::to_string(t));
        for (unsigned w = 0; w < params.workersPerTenant; ++w) {
            runner.addWorker(dom, [svc, t, w, &rc](TxContext &ctx) {
                return svc->worker(ctx, t, w, rc);
            });
        }
    }
    runner.addMetricsExporter([svc](obs::MetricsRegistry &reg) {
        svc->tracker().exportTo(reg);
    });
    return runner.run();
}

} // namespace uhtm::experiments
