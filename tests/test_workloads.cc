/**
 * @file
 * Workload and harness integration tests: the hybrid key-value stores'
 * cross-memory consistency guarantees, Echo end-to-end, the LLC hog,
 * and Runner metrics.
 */

#include <gtest/gtest.h>

#include <memory>

#include "harness/experiments.hh"
#include "workloads/hog.hh"

namespace uhtm
{
namespace
{

MachineConfig
smallMachine()
{
    MachineConfig m = MachineConfig::tiny();
    m.cores = 8;
    return m;
}

TEST(HybridIndexKv, BothIndexesStayConsistent)
{
    Runner runner(smallMachine(), HtmPolicy::uhtmOpt(2048), 5);
    RunControl &rc = runner.control();
    const DomainId dom = runner.addDomain("hybrid");
    HybridKvParams params;
    params.footprintBytes = KiB(8);
    params.txPerWorker = 6;
    params.prefillKeys = 512;
    params.keyspace = 1 << 14;
    auto kv = std::make_shared<HybridIndexKv>(runner.system(),
                                              runner.regions(), params, 4);
    for (unsigned w = 0; w < 4; ++w)
        runner.addWorker(dom, [kv, w, &rc](TxContext &ctx) {
            return kv->worker(ctx, w, rc);
        });
    const RunMetrics m = runner.run();
    EXPECT_EQ(m.committedOps, 4u * 6u * params.opsPerTx());

    // The paper's headline consistency property: a transaction updates
    // the DRAM B+tree and the NVM hash index atomically, so the two
    // indexes must agree key-for-key at any quiescent point.
    std::string why;
    EXPECT_TRUE(kv->indexesConsistent(&why)) << why;
    EXPECT_TRUE(kv->dramIndex().validateFunctional(&why)) << why;
    EXPECT_TRUE(kv->nvmIndex().validateFunctional(&why)) << why;
}

TEST(HybridIndexKv, ScanFractionUsesTheDramIndex)
{
    Runner runner(smallMachine(), HtmPolicy::uhtmOpt(2048), 11);
    RunControl &rc = runner.control();
    const DomainId dom = runner.addDomain("hybrid");
    HybridKvParams params;
    params.footprintBytes = KiB(4);
    params.txPerWorker = 8;
    params.prefillKeys = 1024;
    params.keyspace = 1 << 14;
    params.scanFraction = 0.5; // half the transactions range-scan
    params.scanSpan = 256;
    auto kv = std::make_shared<HybridIndexKv>(runner.system(),
                                              runner.regions(), params, 2);
    for (unsigned w = 0; w < 2; ++w)
        runner.addWorker(dom, [kv, w, &rc](TxContext &ctx) {
            return kv->worker(ctx, w, rc);
        });
    const RunMetrics m = runner.run();
    EXPECT_GT(m.committedOps, 0u);
    EXPECT_EQ(m.htm.commits, 2u * 8u);
    std::string why;
    EXPECT_TRUE(kv->indexesConsistent(&why)) << why;
}

TEST(DualKv, LogDrainsAndMapsConverge)
{
    Runner runner(smallMachine(), HtmPolicy::uhtmOpt(2048), 6);
    RunControl &rc = runner.control();
    const DomainId dom = runner.addDomain("dual");
    DualKvParams params;
    params.footprintBytes = KiB(8);
    params.txPerWorker = 5;
    params.prefillKeys = 512;
    params.keyspace = 1 << 14;
    auto kv = std::make_shared<DualKv>(runner.system(), runner.regions(),
                                       params, 2);
    for (unsigned p = 0; p < 2; ++p)
        runner.addWorker(dom, [kv, p, &rc](TxContext &ctx) {
            return kv->foreground(ctx, p, rc);
        });
    for (unsigned p = 0; p < 2; ++p)
        runner.addBackground(dom, [kv, p, &rc](TxContext &ctx) {
            return kv->background(ctx, p, rc);
        });
    runner.run();

    // Backgrounds drain the cross-referencing logs before exiting, so
    // both stores converge to the same key population.
    std::string why;
    EXPECT_TRUE(kv->mapsConsistent(&why)) << why;
}

TEST(EchoKv, MasterAppliesClientBatchesDurably)
{
    Runner runner(smallMachine(), HtmPolicy::uhtmOpt(2048), 7);
    RunControl &rc = runner.control();
    const DomainId dom = runner.addDomain("echo");
    EchoParams params;
    params.opsPerTx = 8;
    params.txPerMaster = 5;
    params.prefillKeys = 128;
    params.keyspace = 1 << 12;
    auto echo = std::make_shared<EchoKv>(runner.system(),
                                         runner.regions(), params, 3);
    runner.addWorker(dom, [echo, &rc](TxContext &ctx) {
        return echo->master(ctx, rc);
    });
    for (unsigned c = 0; c < 3; ++c)
        runner.addBackground(dom, [echo, c, &rc](TxContext &ctx) {
            return echo->client(ctx, c, rc);
        });
    const RunMetrics m = runner.run();
    EXPECT_EQ(m.committedOps, 5u * 8u);
    std::string why;
    EXPECT_TRUE(echo->table().validateFunctional(&why)) << why;
    EXPECT_GE(echo->table().sizeFunctional(), 128u);

    // Every committed put must be durably recoverable.
    BackingStore recovered = runner.system().recoverAfterCrash();
    EXPECT_GT(recovered.read64(MemLayout::kNvmBase + MiB(1)), 0u)
        << "recovered image must contain the table";
}

TEST(EchoKv, LongRunningScanCommitsUnbounded)
{
    Runner runner(smallMachine(), HtmPolicy::uhtmOpt(2048), 8);
    RunControl &rc = runner.control();
    const DomainId dom = runner.addDomain("echo");
    EchoParams params;
    params.opsPerTx = 2;
    params.txPerMaster = 4;
    params.longTxFraction = 1.0; // every tx is a scan
    params.scanBytes = KiB(256); // >> tiny machine's 64KB LLC
    params.prefillKeys = 64;
    params.prefillValueBytes = KiB(4);
    auto echo = std::make_shared<EchoKv>(runner.system(),
                                         runner.regions(), params, 2);
    runner.addWorker(dom, [echo, &rc](TxContext &ctx) {
        return echo->master(ctx, rc);
    });
    for (unsigned c = 0; c < 2; ++c)
        runner.addBackground(dom, [echo, c, &rc](TxContext &ctx) {
            return echo->client(ctx, c, rc);
        });
    const RunMetrics m = runner.run();
    EXPECT_EQ(echo->longTxCommits(), 4u);
    EXPECT_EQ(m.htm.abortsOf(AbortCause::Capacity), 0u)
        << "UHTM must not capacity-abort scans that dwarf the LLC";
    EXPECT_GT(m.htm.overflowedTxs, 0u);
}

TEST(HogApp, SweepsAndStops)
{
    Runner runner(smallMachine(), HtmPolicy::uhtmOpt(2048), 9);
    RunControl &rc = runner.control();
    const DomainId wdom = runner.addDomain("w");
    const DomainId hdom = runner.addDomain("hog");
    auto hog = std::make_shared<HogApp>(runner.system(), runner.regions(),
                                        KiB(512), 16, ticksFromNs(50));
    runner.addBackground(hdom, [hog, &rc](TxContext &ctx) {
        return hog->worker(ctx, rc);
    });
    // One trivial worker bounds the run.
    runner.addWorker(wdom, [&rc](TxContext &ctx) -> CoTask<void> {
        for (int i = 0; i < 50; ++i)
            co_await ctx.compute(ticksFromNs(1000));
        rc.addOps(ctx.domain(), 50);
    });
    const RunMetrics m = runner.run();
    EXPECT_EQ(m.committedOps, 50u);
    EXPECT_GT(runner.system().llc().stats().misses, 100u)
        << "the hog must stream through the LLC";
    EXPECT_TRUE(runner.control().stopBackground);
}

TEST(Runner, PerDomainMetricsSeparateBenchmarks)
{
    Runner runner(smallMachine(), HtmPolicy::ideal(), 10);
    RunControl &rc = runner.control();
    const DomainId a = runner.addDomain("a");
    const DomainId b = runner.addDomain("b");
    runner.addWorker(a, [&rc](TxContext &ctx) -> CoTask<void> {
        co_await ctx.compute(ticksFromNs(100));
        rc.addOps(ctx.domain(), 3);
    });
    runner.addWorker(b, [&rc](TxContext &ctx) -> CoTask<void> {
        co_await ctx.compute(ticksFromNs(100));
        rc.addOps(ctx.domain(), 5);
    });
    const RunMetrics m = runner.run();
    EXPECT_EQ(m.committedOps, 8u);
    EXPECT_EQ(m.domainOps.at(a), 3u);
    EXPECT_EQ(m.domainOps.at(b), 5u);
    EXPECT_GT(m.domainOpsPerSec(b), m.domainOpsPerSec(a));
}

} // namespace
} // namespace uhtm
