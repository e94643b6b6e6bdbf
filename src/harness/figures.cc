#include "harness/figures.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <stdexcept>

#include "harness/experiments.hh"
#include "harness/report.hh"
#include "workloads/hog.hh"

namespace uhtm::figures
{

namespace
{

using exec::Job;
using exec::JobResult;
using experiments::ConsolidationOpts;

/** Metrics of an ok job by key; nullptr when missing or failed. */
const RunMetrics *
findMetrics(const std::vector<JobResult> &results, const std::string &key)
{
    for (const JobResult &r : results)
        if (r.key == key && r.ok)
            return &r.metrics;
    return nullptr;
}

std::string
kbLabel(std::uint64_t bytes)
{
    return std::to_string(bytes / 1024) + "KB";
}

/** Per-worker transaction count: override > tiny > quick > full. */
std::uint64_t
txCount(const FigureOpts &o, std::uint64_t full, std::uint64_t quick,
        std::uint64_t tiny)
{
    if (o.txOverride)
        return o.txOverride;
    if (o.tiny)
        return tiny;
    if (o.quick)
        return quick;
    return full;
}

bool
reducedSweep(const FigureOpts &o)
{
    return o.quick || o.tiny;
}

/** Machine for @p cores workloads; tiny mode shrinks all caches. */
MachineConfig
machineFor(const FigureOpts &o, unsigned cores)
{
    MachineConfig m = o.tiny ? MachineConfig::tiny() : MachineConfig{};
    m.cores = cores;
    return m;
}

std::vector<IndexKind>
pmdkKinds(const FigureOpts &o)
{
    if (o.tiny)
        return {IndexKind::HashMap, IndexKind::BTree};
    return {IndexKind::HashMap, IndexKind::BTree, IndexKind::RBTree,
            IndexKind::SkipList};
}

unsigned
pmdkWorkers(const FigureOpts &o, unsigned full)
{
    return o.tiny ? std::min(full, 2u) : full;
}

unsigned
hogCount(const FigureOpts &o, unsigned full)
{
    return o.tiny ? std::min(full, 1u) : full;
}

PmdkParams
pmdkParams(const FigureOpts &o, IndexKind kind, std::uint64_t footprint,
           std::uint64_t tx, MemKind placement = MemKind::Nvm)
{
    PmdkParams p;
    p.kind = kind;
    p.placement = placement;
    p.footprintBytes = o.tiny ? KiB(8) : footprint;
    p.txPerWorker = tx;
    if (o.tiny) {
        p.keyspace = 1u << 14;
        p.prefillKeys = 1u << 10;
    }
    return p;
}

/** One consolidated-PMDK simulation (the workhorse of Figs 2/6/7/10). */
Job
consolidatedJob(std::string key, std::map<std::string, std::string> config,
                const FigureOpts &o, HtmPolicy policy,
                std::vector<PmdkParams> benches, unsigned workers,
                unsigned hogs, bool txAwareReplacement = false)
{
    MachineConfig machine = machineFor(
        o, static_cast<unsigned>(benches.size()) * workers + hogs);
    machine.txAwareReplacement = txAwareReplacement;
    policy.conflict = o.policy; // --policy= override (default: fixed)
    ConsolidationOpts copts;
    copts.workersPerBench = workers;
    copts.hogs = hogs;
    if (o.tiny)
        copts.hogBytes = MiB(4);
    return {std::move(key), std::move(config),
            [=](std::uint64_t seed) {
                auto b = benches;
                for (auto &p : b)
                    p.seed = seed;
                auto c = copts;
                c.seed = seed;
                return experiments::runPmdkConsolidated(machine, policy, b,
                                                        c);
            }};
}

Job
echoJob(std::string key, std::map<std::string, std::string> config,
        const FigureOpts &o, HtmPolicy policy, EchoParams params,
        unsigned clients, unsigned hogs)
{
    const MachineConfig machine = machineFor(o, 1 + clients + hogs);
    policy.conflict = o.policy; // --policy= override (default: fixed)
    return {std::move(key), std::move(config),
            [=](std::uint64_t seed) {
                auto p = params;
                p.seed = seed;
                return experiments::runEcho(machine, policy, p, clients,
                                            hogs, seed);
            }};
}

std::map<std::string, std::string>
baseConfig(const std::string &workload, const std::string &system)
{
    return {{"workload", workload}, {"system", system}};
}

/* ------------------------------------------------------------------ */
/* Figure 2: LLC-Bounded vs Ideal under consolidation                 */
/* ------------------------------------------------------------------ */

EchoParams
fig2EchoParams(const FigureOpts &o, std::uint64_t tx)
{
    EchoParams p;
    p.opsPerTx = o.tiny ? 4 : 100; // ~100KB batches at full scale
    p.txPerMaster = (o.tiny ? 2 : 8) * tx;
    if (o.tiny)
        p.prefillKeys = 512;
    return p;
}

std::vector<Job>
fig2Jobs(const FigureOpts &o)
{
    const std::uint64_t tx = txCount(o, 6, 6, 2);
    const unsigned workers = o.tiny ? 4 : 16;
    const unsigned hogs = hogCount(o, 2);
    std::vector<Job> jobs;
    for (IndexKind kind : pmdkKinds(o)) {
        for (auto [sys, policy] :
             {std::pair<const char *, HtmPolicy>{"bounded",
                                                 HtmPolicy::llcBounded()},
              {"ideal", HtmPolicy::ideal()}}) {
            auto config = baseConfig("pmdk", sys);
            config["benchmark"] = indexKindName(kind);
            config["tx_per_worker"] = std::to_string(tx);
            jobs.push_back(consolidatedJob(
                std::string("pmdk/") + indexKindName(kind) + "/" + sys,
                std::move(config), o, policy,
                {pmdkParams(o, kind, KiB(100), tx)}, workers, hogs));
        }
    }
    for (auto [sys, policy] :
         {std::pair<const char *, HtmPolicy>{"bounded",
                                             HtmPolicy::llcBounded()},
          {"ideal", HtmPolicy::ideal()}}) {
        jobs.push_back(echoJob(std::string("echo/") + sys,
                               baseConfig("echo", sys), o, policy,
                               fig2EchoParams(o, tx), o.tiny ? 3 : 15,
                               hogCount(o, 2)));
    }
    return jobs;
}

void
fig2Render(const FigureOpts &o, const std::vector<JobResult> &results,
           std::FILE *out)
{
    printBanner("Figure 2: LLC-Bounded vs Ideal unbounded HTM "
                "(16 threads + 2 LLC hogs, 100KB footprints)",
                out);
    Table table({"benchmark", "bounded tx/s", "ideal tx/s",
                 "ideal/bounded", "bounded abort%", "bounded capacity",
                 "serialized"});
    auto addRow = [&](const std::string &name, const RunMetrics *b,
                      const RunMetrics *i) {
        if (!b && !i)
            return;
        table.addRow(
            {name, b ? Table::num(b->txPerSec, 0) : "-",
             i ? Table::num(i->txPerSec, 0) : "-",
             b && i ? Table::num(i->txPerSec /
                                     std::max(1.0, b->txPerSec),
                                 2)
                    : "-",
             b ? Table::pct(b->abortRate) : "-",
             b ? std::to_string(b->htm.abortsOf(AbortCause::Capacity))
               : "-",
             b ? std::to_string(b->htm.serializedCommits) : "-"});
    };
    for (IndexKind kind : pmdkKinds(o)) {
        const std::string base = std::string("pmdk/") +
                                 indexKindName(kind) + "/";
        addRow(indexKindName(kind), findMetrics(results, base + "bounded"),
               findMetrics(results, base + "ideal"));
    }
    addRow("Echo", findMetrics(results, "echo/bounded"),
           findMetrics(results, "echo/ideal"));
    table.print(out);
    std::fprintf(out,
                 "\nPaper shape: LLC-Bounded up to 6.2x slower than "
                 "Ideal; HashMap (short transactions) shows little "
                 "gap.\n");
}

/* ------------------------------------------------------------------ */
/* Figure 6: throughput across the five systems                       */
/* ------------------------------------------------------------------ */

std::vector<SystemVariant>
fig6Systems()
{
    return {{"LLC-Bounded", HtmPolicy::llcBounded()},
            {"Sig-Only", HtmPolicy::signatureOnly(2048)},
            {"2k_sig", HtmPolicy::uhtmSig(2048)},
            {"2k_opt", HtmPolicy::uhtmOpt(2048)},
            {"Ideal", HtmPolicy::ideal()}};
}

std::vector<Job>
fig6Jobs(const FigureOpts &o)
{
    const std::uint64_t tx = txCount(o, 8, 3, 2);
    const unsigned workers = pmdkWorkers(o, 4);
    const unsigned hogs = hogCount(o, 2);
    std::vector<Job> jobs;
    for (const SystemVariant &sysv : fig6Systems()) {
        std::vector<PmdkParams> benches;
        for (IndexKind kind : pmdkKinds(o))
            benches.push_back(pmdkParams(o, kind, KiB(100), tx));
        auto config = baseConfig("pmdk-consolidated", sysv.label);
        config["tx_per_worker"] = std::to_string(tx);
        jobs.push_back(consolidatedJob("pmdk/" + sysv.label,
                                       std::move(config), o, sysv.policy,
                                       std::move(benches), workers, hogs));

        EchoParams ep;
        ep.opsPerTx = o.tiny ? 4 : 100;
        ep.txPerMaster = (o.tiny ? 2 : 4) * tx;
        if (o.tiny)
            ep.prefillKeys = 512;
        jobs.push_back(echoJob("echo/" + sysv.label,
                               baseConfig("echo", sysv.label), o,
                               sysv.policy, ep, 3, hogCount(o, 2)));
    }
    return jobs;
}

void
fig6Render(const FigureOpts &o, const std::vector<JobResult> &results,
           std::FILE *out)
{
    printBanner("Figure 6: throughput normalized to LLC-Bounded "
                "(4 benchmarks x 4 threads + 2 LLC hogs, 100KB "
                "footprints, persistent data)",
                out);
    const auto systems = fig6Systems();
    const auto kinds = pmdkKinds(o);

    // benchmark name -> system label -> ops/s
    std::map<std::string, std::map<std::string, double>> byBench;
    for (const SystemVariant &sysv : systems) {
        if (const RunMetrics *m = findMetrics(results,
                                              "pmdk/" + sysv.label)) {
            // Domains 0..N-1 are the benchmarks (created in order).
            for (unsigned d = 0; d < kinds.size(); ++d)
                byBench[indexKindName(kinds[d])][sysv.label] =
                    m->domainOpsPerSec(d);
        }
        if (const RunMetrics *m = findMetrics(results,
                                              "echo/" + sysv.label))
            byBench["Echo"][sysv.label] = m->opsPerSec;
    }

    std::vector<std::string> headers = {"benchmark"};
    for (const SystemVariant &sysv : systems)
        headers.push_back(sysv.label);
    Table table(headers);
    for (const auto &[bench, bySystem] : byBench) {
        auto baseIt = bySystem.find("LLC-Bounded");
        const double base =
            baseIt != bySystem.end() ? baseIt->second : 0.0;
        std::vector<std::string> row = {bench};
        for (const SystemVariant &sysv : systems) {
            auto it = bySystem.find(sysv.label);
            if (it == bySystem.end()) {
                row.push_back("-");
                continue;
            }
            row.push_back(Table::num(base > 0 ? it->second / base : 0.0,
                                     2) +
                          " (" + Table::num(it->second, 0) + ")");
        }
        table.addRow(row);
    }
    table.print(out);
    std::fprintf(out,
                 "\nCells: throughput normalized to LLC-Bounded "
                 "(absolute ops/s in parentheses).\n"
                 "Paper shape: Sig-Only worst; UHTM(opt) approaches "
                 "Ideal; HashMap shows little difference.\n");
}

/* ------------------------------------------------------------------ */
/* Figure 7: abort decomposition vs footprint and signature size      */
/* ------------------------------------------------------------------ */

std::vector<std::uint64_t>
fig7Footprints(const FigureOpts &o)
{
    if (o.tiny)
        return {KiB(8)};
    if (o.quick)
        return {KiB(100), KiB(500)};
    return {KiB(100), KiB(200), KiB(300), KiB(400), KiB(500)};
}

std::vector<unsigned>
fig7SigSizes(const FigureOpts &o)
{
    if (o.tiny)
        return {1024};
    if (o.quick)
        return {512, 4096};
    return {512, 1024, 4096};
}

std::vector<SystemVariant>
fig7Systems(const FigureOpts &o)
{
    std::vector<SystemVariant> systems;
    for (unsigned bits : fig7SigSizes(o)) {
        systems.push_back(
            {std::to_string(bits) + "_sig", HtmPolicy::uhtmSig(bits)});
        systems.push_back(
            {std::to_string(bits) + "_opt", HtmPolicy::uhtmOpt(bits)});
    }
    return systems;
}

std::vector<Job>
fig7Jobs(const FigureOpts &o)
{
    const std::uint64_t tx = txCount(o, 6, 6, 2);
    std::vector<Job> jobs;
    for (std::uint64_t fp : fig7Footprints(o)) {
        for (const SystemVariant &sysv : fig7Systems(o)) {
            std::vector<PmdkParams> benches;
            for (IndexKind kind : pmdkKinds(o))
                benches.push_back(pmdkParams(o, kind, fp, tx));
            auto config = baseConfig("pmdk-consolidated", sysv.label);
            config["footprint_kb"] = std::to_string(fp / 1024);
            jobs.push_back(consolidatedJob(
                "fp" + kbLabel(fp) + "/" + sysv.label, std::move(config),
                o, sysv.policy, std::move(benches), pmdkWorkers(o, 4),
                hogCount(o, 2)));
        }
    }
    return jobs;
}

void
fig7Render(const FigureOpts &o, const std::vector<JobResult> &results,
           std::FILE *out)
{
    printBanner("Figure 7: UHTM abort-rate decomposition vs footprint "
                "and signature size (4 benchmarks x 4 threads + 2 hogs)",
                out);
    Table table({"footprint", "system", "abort%", "true", "false-pos",
                 "cross-dom", "capacity", "lock", "sig-fill"});
    for (std::uint64_t fp : fig7Footprints(o)) {
        for (const SystemVariant &sysv : fig7Systems(o)) {
            const RunMetrics *m = findMetrics(
                results, "fp" + kbLabel(fp) + "/" + sysv.label);
            if (!m)
                continue;
            const auto &h = m->htm;
            const double atot = static_cast<double>(h.totalAborts());
            auto share = [&](AbortCause c) {
                return atot > 0 ? Table::pct(h.abortsOf(c) / atot)
                                : std::string("-");
            };
            const double trueAborts = static_cast<double>(
                h.abortsOf(AbortCause::TrueConflictOnChip) +
                h.abortsOf(AbortCause::TrueConflictOffChip));
            table.addRow(
                {kbLabel(fp), sysv.label, Table::pct(m->abortRate),
                 atot > 0 ? Table::pct(trueAborts / atot)
                          : std::string("-"),
                 share(AbortCause::FalsePositive),
                 share(AbortCause::CrossDomainFalse),
                 share(AbortCause::Capacity),
                 share(AbortCause::LockPreempt),
                 h.sigChecks
                     ? Table::pct(static_cast<double>(h.sigFalseHits) /
                                  static_cast<double>(h.sigChecks))
                     : std::string("-")});
        }
    }
    table.print(out);
    std::fprintf(out,
                 "\nShares are fractions of all aborts (true on+off "
                 "chip merged into 'true' via on-chip column; sig-fill "
                 "= false-hit rate of signature checks).\n"
                 "Paper shape: abort rate grows with footprint; larger "
                 "signatures and isolation (_opt) cut false "
                 "positives.\n");
}

/* ------------------------------------------------------------------ */
/* Figure 8: Echo with long-running read-only transactions            */
/* ------------------------------------------------------------------ */

struct Fig8Point
{
    const char *label;
    double fraction;
};

std::vector<Fig8Point>
fig8Fractions(const FigureOpts &o)
{
    if (o.tiny)
        return {{"0%", 0.0}, {"1%", 0.01}};
    return {{"0%", 0.0}, {"0.5%", 0.005}, {"1%", 0.01}, {"2%", 0.02}};
}

std::vector<SystemVariant>
fig8Systems()
{
    return {{"LLC-Bounded", HtmPolicy::llcBounded()},
            {"UHTM(2k_opt)", HtmPolicy::uhtmOpt(2048)},
            {"Ideal", HtmPolicy::ideal()}};
}

std::uint64_t
fig8ScanBytes(const FigureOpts &o)
{
    if (o.scanMbOverride)
        return MiB(o.scanMbOverride);
    if (o.tiny)
        return MiB(1);
    return MiB(o.quick ? 12 : 24);
}

std::vector<Job>
fig8Jobs(const FigureOpts &o)
{
    const std::uint64_t tx = txCount(o, 400, 200, 8);
    std::vector<Job> jobs;
    for (const Fig8Point &pt : fig8Fractions(o)) {
        for (const SystemVariant &sysv : fig8Systems()) {
            EchoParams p;
            p.valueBytes = KiB(1);
            p.opsPerTx = 1;
            p.txPerMaster = tx;
            p.longTxFraction = pt.fraction;
            p.scanBytes = fig8ScanBytes(o);
            p.prefillKeys = o.tiny ? 1024 : 16384;
            p.prefillValueBytes = o.tiny ? KiB(1) : KiB(2);
            auto config = baseConfig("echo-longtx", sysv.label);
            config["long_tx_fraction"] = pt.label;
            config["scan_bytes"] = std::to_string(p.scanBytes);
            // 1 master + 3 clients, no hogs, per the paper.
            jobs.push_back(echoJob(std::string("long") + pt.label + "/" +
                                       sysv.label,
                                   std::move(config), o, sysv.policy, p, 3,
                                   0));
        }
    }
    return jobs;
}

void
fig8Render(const FigureOpts &o, const std::vector<JobResult> &results,
           std::FILE *out)
{
    printBanner("Figure 8: Echo with long-running read-only "
                "transactions (" +
                    std::to_string(fig8ScanBytes(o) / MiB(1)) +
                    "MB scans, 1KB puts)",
                out);
    Table table({"long-tx %", "system", "puts/s", "tx/s", "long commits",
                 "capacity", "abort%"});
    for (const Fig8Point &pt : fig8Fractions(o)) {
        const RunMetrics *bounded = findMetrics(
            results, std::string("long") + pt.label + "/LLC-Bounded");
        const double boundedOps = bounded ? bounded->opsPerSec : 0.0;
        for (const SystemVariant &sysv : fig8Systems()) {
            const RunMetrics *m = findMetrics(
                results,
                std::string("long") + pt.label + "/" + sysv.label);
            if (!m)
                continue;
            std::string label = Table::num(m->opsPerSec, 0);
            if (sysv.label != "LLC-Bounded" && boundedOps > 0)
                label += " (" +
                         Table::num(m->opsPerSec / boundedOps, 2) + "x)";
            table.addRow({pt.label, sysv.label, label,
                          Table::num(m->txPerSec, 0),
                          std::to_string(static_cast<unsigned long>(
                              m->htm.commits)),
                          std::to_string(static_cast<unsigned long>(
                              m->htm.abortsOf(AbortCause::Capacity))),
                          Table::pct(m->abortRate)});
        }
    }
    table.print(out);
    std::fprintf(out,
                 "\nPaper shape: throughput of the LLC-Bounded system "
                 "collapses once long-running transactions appear; "
                 "UHTM sustains it (4.2x at 0.5%% in the paper).\n");
}

/* ------------------------------------------------------------------ */
/* Figure 9: hybrid key-value stores                                  */
/* ------------------------------------------------------------------ */

std::vector<std::uint64_t>
fig9Footprints(const FigureOpts &o)
{
    if (o.tiny)
        return {KiB(16)};
    if (o.quick)
        return {KiB(600), KiB(1536)};
    return {KiB(600), KiB(900), KiB(1200), KiB(1536)};
}

std::vector<SystemVariant>
fig9Systems(const FigureOpts &o)
{
    if (reducedSweep(o))
        return {{"LLC-Bounded", HtmPolicy::llcBounded()},
                {"4k_sig", HtmPolicy::uhtmSig(4096)},
                {"4k_opt", HtmPolicy::uhtmOpt(4096)},
                {"Ideal", HtmPolicy::ideal()}};
    return {{"LLC-Bounded", HtmPolicy::llcBounded()},
            {"512_sig", HtmPolicy::uhtmSig(512)},
            {"512_opt", HtmPolicy::uhtmOpt(512)},
            {"4k_sig", HtmPolicy::uhtmSig(4096)},
            {"4k_opt", HtmPolicy::uhtmOpt(4096)},
            {"Ideal", HtmPolicy::ideal()}};
}

std::vector<Job>
fig9Jobs(const FigureOpts &o)
{
    const std::uint64_t tx = txCount(o, 3, 3, 1);
    const unsigned hybridWorkers = o.tiny ? 2 : 8;
    const unsigned dualPairs = o.tiny ? 1 : 4;
    std::vector<Job> jobs;
    for (std::uint64_t fp : fig9Footprints(o)) {
        for (const SystemVariant &sysv : fig9Systems(o)) {
            const MachineConfig machine =
                machineFor(o, hybridWorkers + 2 * dualPairs);
            HtmPolicy policy = sysv.policy;
            policy.conflict = o.policy; // --policy= override
            const bool tiny = o.tiny;
            auto config = baseConfig("hybrid+dual", sysv.label);
            config["footprint_kb"] = std::to_string(fp / 1024);
            jobs.push_back(
                {"fp" + kbLabel(fp) + "/" + sysv.label, std::move(config),
                 [=](std::uint64_t seed) {
                     Runner runner(machine, policy, seed);
                     RunControl &rc = runner.control();

                     const DomainId hybridDom =
                         runner.addDomain("hybrid-index");
                     HybridKvParams hp;
                     hp.footprintBytes = fp;
                     hp.txPerWorker = tx;
                     hp.seed = seed;
                     if (tiny) {
                         hp.keyspace = 1u << 14;
                         hp.prefillKeys = 1u << 10;
                     }
                     auto hybrid = std::make_shared<HybridIndexKv>(
                         runner.system(), runner.regions(), hp,
                         hybridWorkers);
                     for (unsigned w = 0; w < hybridWorkers; ++w) {
                         runner.addWorker(
                             hybridDom, [hybrid, w, &rc](TxContext &ctx) {
                                 return hybrid->worker(ctx, w, rc);
                             });
                     }

                     const DomainId dualDom = runner.addDomain("dual");
                     DualKvParams dp;
                     dp.footprintBytes = fp;
                     dp.txPerWorker = tx;
                     dp.seed = seed + 1;
                     if (tiny) {
                         dp.keyspace = 1u << 14;
                         dp.prefillKeys = 1u << 10;
                     }
                     auto dual = std::make_shared<DualKv>(
                         runner.system(), runner.regions(), dp, dualPairs);
                     for (unsigned pr = 0; pr < dualPairs; ++pr) {
                         runner.addWorker(
                             dualDom, [dual, pr, &rc](TxContext &ctx) {
                                 return dual->foreground(ctx, pr, rc);
                             });
                     }
                     for (unsigned pr = 0; pr < dualPairs; ++pr) {
                         runner.addBackground(
                             dualDom, [dual, pr, &rc](TxContext &ctx) {
                                 return dual->background(ctx, pr, rc);
                             });
                     }
                     return runner.run();
                 }});
        }
    }
    return jobs;
}

void
fig9Render(const FigureOpts &o, const std::vector<JobResult> &results,
           std::FILE *out)
{
    printBanner("Figure 9: hybrid key-value stores "
                "(Hybrid-Index + Dual consolidated, footprint sweep)",
                out);
    Table table({"footprint", "system", "hybrid ops/s", "dual ops/s",
                 "abort%", "cross-dom aborts"});
    for (std::uint64_t fp : fig9Footprints(o)) {
        for (const SystemVariant &sysv : fig9Systems(o)) {
            const RunMetrics *m = findMetrics(
                results, "fp" + kbLabel(fp) + "/" + sysv.label);
            if (!m)
                continue;
            // Domain 0 is hybrid-index, domain 1 is dual (creation
            // order in the job).
            table.addRow(
                {kbLabel(fp), sysv.label,
                 Table::num(m->domainOpsPerSec(0), 0),
                 Table::num(m->domainOpsPerSec(1), 0),
                 Table::pct(m->abortRate),
                 std::to_string(static_cast<unsigned long>(
                     m->htm.abortsOf(AbortCause::CrossDomainFalse)))});
        }
    }
    table.print(out);
    std::fprintf(out,
                 "\nPaper shape: naive UHTM (_sig) suffers from "
                 "cross-domain false positives; isolation (_opt) "
                 "recovers the loss and beats LLC-Bounded, more so at "
                 "larger footprints.\n");
}

/* ------------------------------------------------------------------ */
/* Figure 10: undo vs redo logging for overflowed DRAM lines          */
/* ------------------------------------------------------------------ */

std::vector<std::uint64_t>
fig10Footprints(const FigureOpts &o)
{
    if (o.tiny)
        return {KiB(16)};
    if (o.quick)
        return {KiB(300), KiB(1200)};
    return {KiB(300), KiB(600), KiB(900), KiB(1200)};
}

std::vector<unsigned>
fig10SigSizes(const FigureOpts &o)
{
    if (reducedSweep(o))
        return {2048};
    return {512, 1024, 4096};
}

std::vector<Job>
fig10Jobs(const FigureOpts &o)
{
    const std::uint64_t tx = txCount(o, 6, 6, 2);
    std::vector<Job> jobs;
    for (std::uint64_t fp : fig10Footprints(o)) {
        for (unsigned bits : fig10SigSizes(o)) {
            for (DramOverflowLog mode :
                 {DramOverflowLog::Undo, DramOverflowLog::Redo}) {
                HtmPolicy pol = HtmPolicy::uhtmOpt(bits);
                pol.dramLog = mode;
                const char *modeName =
                    mode == DramOverflowLog::Undo ? "undo" : "redo";
                std::vector<PmdkParams> benches;
                for (IndexKind kind : pmdkKinds(o)) {
                    PmdkParams p = pmdkParams(o, kind, fp, tx,
                                              MemKind::Dram);
                    // Isolate logging cost (no conflict noise).
                    p.updateFraction = 1.0;
                    benches.push_back(p);
                }
                auto config = baseConfig("pmdk-volatile", modeName);
                config["footprint_kb"] = std::to_string(fp / 1024);
                config["signature_bits"] = std::to_string(bits);
                jobs.push_back(consolidatedJob(
                    "fp" + kbLabel(fp) + "/" + std::to_string(bits) +
                        "/" + modeName,
                    std::move(config), o, pol, std::move(benches),
                    pmdkWorkers(o, 4),
                    0 /* spill comes from the workers themselves */));
            }
        }
    }
    return jobs;
}

void
fig10Render(const FigureOpts &o, const std::vector<JobResult> &results,
            std::FILE *out)
{
    printBanner("Figure 10: volatile transactions — undo vs redo "
                "logging for overflowed DRAM lines",
                out);
    Table table({"footprint", "undo ops/s", "redo ops/s", "undo/redo",
                 "overflowed txs", "undo commit us", "redo commit us"});
    for (std::uint64_t fp : fig10Footprints(o)) {
        double undoOps = 0, redoOps = 0;
        double undoCommitUs = 0, redoCommitUs = 0;
        std::uint64_t overflowed = 0;
        unsigned found = 0;
        const auto sigs = fig10SigSizes(o);
        for (unsigned bits : sigs) {
            const std::string base =
                "fp" + kbLabel(fp) + "/" + std::to_string(bits) + "/";
            const RunMetrics *undo = findMetrics(results, base + "undo");
            const RunMetrics *redo = findMetrics(results, base + "redo");
            if (!undo || !redo)
                continue;
            ++found;
            undoOps += undo->opsPerSec;
            undoCommitUs += undo->htm.commitProtocolNs.mean() / 1000.0;
            overflowed += undo->htm.overflowedTxs;
            redoOps += redo->opsPerSec;
            redoCommitUs += redo->htm.commitProtocolNs.mean() / 1000.0;
        }
        if (!found)
            continue;
        const double n = static_cast<double>(found);
        table.addRow({kbLabel(fp), Table::num(undoOps / n, 0),
                      Table::num(redoOps / n, 0),
                      Table::num(undoOps / std::max(1.0, redoOps), 2),
                      std::to_string(static_cast<unsigned long>(
                          overflowed / found)),
                      Table::num(undoCommitUs / n, 1),
                      Table::num(redoCommitUs / n, 1)});
    }
    table.print(out);
    std::fprintf(out,
                 "\nPaper shape: undo ahead of redo, and the gap widens "
                 "as overflows become frequent (7.5%% at 300KB up to "
                 "44.7%%).\n");
}

/* ------------------------------------------------------------------ */
/* Section IV-D staging: abort-rate reduction per detection stage     */
/* ------------------------------------------------------------------ */

std::vector<SystemVariant>
stagingSystems()
{
    return {{"check-all-traffic", HtmPolicy::signatureOnly(2048)},
            {"LLC-miss-only", HtmPolicy::uhtmSig(2048)},
            {"+isolation", HtmPolicy::uhtmOpt(2048)},
            {"Ideal(precise)", HtmPolicy::ideal()}};
}

std::vector<Job>
stagingJobs(const FigureOpts &o)
{
    const std::uint64_t tx = txCount(o, 6, 3, 2);
    std::vector<Job> jobs;
    for (const SystemVariant &sysv : stagingSystems()) {
        std::vector<PmdkParams> benches;
        for (IndexKind kind : pmdkKinds(o))
            benches.push_back(pmdkParams(o, kind, KiB(100), tx));
        jobs.push_back(consolidatedJob(
            sysv.label, baseConfig("pmdk-consolidated", sysv.label), o,
            sysv.policy, std::move(benches), pmdkWorkers(o, 4),
            hogCount(o, 2)));
    }
    return jobs;
}

void
stagingRender(const FigureOpts &o, const std::vector<JobResult> &results,
              std::FILE *out)
{
    printBanner("Staged conflict detection: abort-rate reduction "
                "(Section IV-D, 100KB footprints; paper: 99% -> 26% -> "
                "9%)",
                out);
    Table table({"detection", "abort%", "FP", "cross-dom", "true",
                 "capacity", "lock", "serialized", "ops/s"});
    for (const SystemVariant &sysv : stagingSystems()) {
        const RunMetrics *m = findMetrics(results, sysv.label);
        if (!m)
            continue;
        const auto &h = m->htm;
        auto count = [&](AbortCause c) {
            return std::to_string(
                static_cast<unsigned long>(h.abortsOf(c)));
        };
        table.addRow(
            {sysv.label, Table::pct(m->abortRate),
             count(AbortCause::FalsePositive),
             count(AbortCause::CrossDomainFalse),
             std::to_string(static_cast<unsigned long>(
                 h.abortsOf(AbortCause::TrueConflictOnChip) +
                 h.abortsOf(AbortCause::TrueConflictOffChip))),
             count(AbortCause::Capacity), count(AbortCause::LockPreempt),
             std::to_string(
                 static_cast<unsigned long>(h.serializedCommits)),
             Table::num(m->opsPerSec, 0)});
    }
    table.print(out);
}

/* ------------------------------------------------------------------ */
/* Ablations (beyond the paper's own sweeps)                          */
/* ------------------------------------------------------------------ */

std::vector<unsigned>
ablationHogCounts(const FigureOpts &o)
{
    if (o.tiny)
        return {0u, 1u};
    return {0u, 1u, 2u, 4u};
}

std::vector<unsigned>
ablationHashCounts(const FigureOpts &o)
{
    if (o.tiny)
        return {4u};
    return {2u, 4u, 8u};
}

std::vector<PmdkParams>
ablationBenches(const FigureOpts &o, std::uint64_t tx)
{
    std::vector<PmdkParams> benches;
    for (IndexKind kind : pmdkKinds(o))
        benches.push_back(pmdkParams(o, kind, KiB(200), tx));
    return benches;
}

std::vector<Job>
ablationJobs(const FigureOpts &o)
{
    const std::uint64_t tx = txCount(o, 5, 3, 2);
    std::vector<Job> jobs;
    for (bool aware : {false, true}) {
        jobs.push_back(consolidatedJob(
            std::string("replacement/") +
                (aware ? "tx-aware" : "plain-lru"),
            baseConfig("pmdk-consolidated",
                       aware ? "tx-aware" : "plain-lru"),
            o, HtmPolicy::uhtmOpt(2048), ablationBenches(o, tx),
            pmdkWorkers(o, 4), hogCount(o, 2), aware));
    }
    for (unsigned hogs : ablationHogCounts(o)) {
        for (auto [sys, policy] :
             {std::pair<const char *, HtmPolicy>{"bounded",
                                                 HtmPolicy::llcBounded()},
              {"uhtm", HtmPolicy::uhtmOpt(2048)}}) {
            jobs.push_back(consolidatedJob(
                "hogs" + std::to_string(hogs) + "/" + sys,
                baseConfig("pmdk-consolidated", sys), o, policy,
                ablationBenches(o, tx), pmdkWorkers(o, 4), hogs));
        }
    }
    for (unsigned hashes : ablationHashCounts(o)) {
        HtmPolicy pol = HtmPolicy::uhtmOpt(2048);
        pol.signatureHashes = hashes;
        jobs.push_back(consolidatedJob(
            "hashes" + std::to_string(hashes),
            baseConfig("pmdk-consolidated",
                       "2k_opt/" + std::to_string(hashes) + "h"),
            o, pol, ablationBenches(o, tx), pmdkWorkers(o, 4),
            hogCount(o, 2)));
    }
    return jobs;
}

void
ablationRender(const FigureOpts &o, const std::vector<JobResult> &results,
               std::FILE *out)
{
    printBanner("Ablation 1: tx-aware LLC replacement "
                "(UHTM 2k_opt, 200KB footprints, 2 hogs)",
                out);
    {
        Table table({"replacement", "ops/s", "overflowed txs", "abort%"});
        for (bool aware : {false, true}) {
            const RunMetrics *m = findMetrics(
                results, std::string("replacement/") +
                             (aware ? "tx-aware" : "plain-lru"));
            if (!m)
                continue;
            table.addRow({aware ? "prefer non-tx victims" : "plain LRU",
                          Table::num(m->opsPerSec, 0),
                          std::to_string(static_cast<unsigned long>(
                              m->htm.overflowedTxs)),
                          Table::pct(m->abortRate)});
        }
        table.print(out);
    }

    printBanner("Ablation 2: background-application count "
                "(LLC-Bounded vs UHTM 2k_opt)",
                out);
    {
        Table table({"hogs", "bounded ops/s", "uhtm ops/s",
                     "uhtm/bounded", "bounded capacity"});
        for (unsigned hogs : ablationHogCounts(o)) {
            const std::string base = "hogs" + std::to_string(hogs) + "/";
            const RunMetrics *b = findMetrics(results, base + "bounded");
            const RunMetrics *u = findMetrics(results, base + "uhtm");
            if (!b && !u)
                continue;
            table.addRow(
                {std::to_string(hogs),
                 b ? Table::num(b->opsPerSec, 0) : "-",
                 u ? Table::num(u->opsPerSec, 0) : "-",
                 b && u ? Table::num(u->opsPerSec /
                                         std::max(1.0, b->opsPerSec),
                                     2)
                        : "-",
                 b ? std::to_string(static_cast<unsigned long>(
                         b->htm.abortsOf(AbortCause::Capacity)))
                   : "-"});
        }
        table.print(out);
    }

    printBanner("Ablation 3: signature hash-function count "
                "(2k-bit signatures)",
                out);
    {
        Table table(
            {"hashes", "ops/s", "abort%", "false-positive aborts"});
        for (unsigned hashes : ablationHashCounts(o)) {
            const RunMetrics *m = findMetrics(
                results, "hashes" + std::to_string(hashes));
            if (!m)
                continue;
            table.addRow(
                {std::to_string(hashes), Table::num(m->opsPerSec, 0),
                 Table::pct(m->abortRate),
                 std::to_string(static_cast<unsigned long>(
                     m->htm.abortsOf(AbortCause::FalsePositive) +
                     m->htm.abortsOf(AbortCause::CrossDomainFalse)))});
        }
        table.print(out);
    }
}

/* ------------------------------------------------------------------ */
/* Table III latency sanity check                                     */
/* ------------------------------------------------------------------ */

/** Measure the completion delta of one non-transactional access. */
Tick
measureAccess(HtmSystem &sys, CoreId core, Addr addr, bool write)
{
    const Tick start = sys.eventQueue().now();
    const AccessResult r =
        sys.issueAccess(core, 0, addr, write, false, 0xab);
    return r.completeAt - start;
}

std::vector<Job>
latencyJobs(const FigureOpts &o)
{
    return {{"latency",
             baseConfig("latency-probe", "2k_opt"),
             [](std::uint64_t) {
                 EventQueue eq;
                 HtmSystem sys(eq, MachineConfig{},
                               HtmPolicy::uhtmOpt(2048));
                 sys.createDomain("p0");

                 const Addr dram = MemLayout::kDramBase + MiB(2);
                 const Addr nvm = MemLayout::kNvmBase + MiB(2);

                 RunMetrics m;
                 auto &x = m.extra;
                 // Cold DRAM read: L1 + LLC + DRAM.
                 x.set("dram_read_ns",
                       nsFromTicks(measureAccess(sys, 0, dram, false)));
                 // Now hot in L1.
                 x.set("l1_hit_ns",
                       nsFromTicks(measureAccess(sys, 0, dram, false)));
                 // Hot in LLC but not in core 1's L1.
                 x.set("llc_hit_ns",
                       nsFromTicks(measureAccess(sys, 1, dram, false)));
                 // Cold NVM read (also fills the DRAM cache).
                 x.set("nvm_read_ns",
                       nsFromTicks(measureAccess(sys, 0, nvm, false)));
                 // Second cold NVM line read by another core.
                 x.set("nvm_read2_ns",
                       nsFromTicks(
                           measureAccess(sys, 2, nvm + MiB(4), false)));
                 // NVM line served from the DRAM cache (evict L1+LLC
                 // first).
                 sys.l1(0).invalidate(lineAlign(nvm));
                 sys.llc().invalidate(lineAlign(nvm));
                 x.set("nvm_via_dram_cache_ns",
                       nsFromTicks(measureAccess(sys, 0, nvm, false)));

                 const MachineConfig &cfg = sys.machine();
                 x.set("cfg_l1_ns", nsFromTicks(cfg.l1Latency));
                 x.set("cfg_llc_ns",
                       nsFromTicks(cfg.l1Latency + cfg.llcLatency));
                 x.set("cfg_dram_read_ns",
                       nsFromTicks(cfg.l1Latency + cfg.llcLatency +
                                   cfg.dramReadLatency));
                 x.set("cfg_nvm_read_ns",
                       nsFromTicks(cfg.l1Latency + cfg.llcLatency +
                                   cfg.nvmReadLatency));
                 x.set("cfg_nvm_write_ns",
                       nsFromTicks(cfg.nvmWriteLatency));
                 x.set("cfg_dram_rw_ns",
                       nsFromTicks(cfg.dramReadLatency));
                 return m;
             }}};
}

void
latencyRender(const FigureOpts &, const std::vector<JobResult> &results,
              std::FILE *out)
{
    printBanner("Table III: measured vs configured latencies", out);
    const RunMetrics *m = findMetrics(results, "latency");
    if (!m)
        return;
    const auto &x = m->extra;
    Table table({"access", "measured ns", "configured ns"});
    table.addRow({"L1 hit", Table::num(x.get("l1_hit_ns"), 1),
                  Table::num(x.get("cfg_l1_ns"), 1)});
    table.addRow({"LLC hit (L1 miss)", Table::num(x.get("llc_hit_ns"), 1),
                  Table::num(x.get("cfg_llc_ns"), 1)});
    table.addRow({"DRAM read (all miss)",
                  Table::num(x.get("dram_read_ns"), 1),
                  Table::num(x.get("cfg_dram_read_ns"), 1)});
    table.addRow({"NVM read (all miss)",
                  Table::num(x.get("nvm_read_ns"), 1),
                  Table::num(x.get("cfg_nvm_read_ns"), 1)});
    table.addRow({"NVM read #2", Table::num(x.get("nvm_read2_ns"), 1),
                  Table::num(x.get("cfg_nvm_read_ns"), 1)});
    table.addRow({"NVM via DRAM cache",
                  Table::num(x.get("nvm_via_dram_cache_ns"), 1),
                  Table::num(x.get("cfg_dram_read_ns"), 1)});
    table.print(out);
    std::fprintf(out,
                 "\nNVM write latency (ADR write-pending queue): "
                 "configured %.0fns; DRAM %.0fns read/write.\n",
                 x.get("cfg_nvm_write_ns"), x.get("cfg_dram_rw_ns"));
}

/* ------------------------------------------------------------------ */
/* Conflict-policy sweep: adaptive contention management              */
/* ------------------------------------------------------------------ */

/** The four policy kinds with their parse-time default knobs. */
std::vector<std::pair<std::string, PolicyDescriptor>>
policySweep()
{
    std::vector<std::pair<std::string, PolicyDescriptor>> out;
    for (const char *spec : {"fixed", "bounded-retry", "karma", "hytm"}) {
        PolicyDescriptor d;
        std::string err;
        const bool ok = PolicyDescriptor::parse(spec, &d, &err);
        (void)ok;
        out.emplace_back(spec, d);
    }
    return out;
}

/** Adversarial mixes: all-threads-one-line, and a small hot pool. */
std::vector<std::pair<std::string, unsigned>>
policyMixes()
{
    return {{"lemming", 1u}, {"mixed", 8u}};
}

std::vector<Job>
policiesJobs(const FigureOpts &o)
{
    const unsigned workers = o.tiny ? 4 : 8;
    const std::uint64_t tx = txCount(o, 200, 60, 25);
    std::vector<Job> jobs;
    for (const auto &[mix, hot] : policyMixes()) {
        for (const auto &[pname, desc] : policySweep()) {
            HtmPolicy policy = HtmPolicy::uhtmOpt(2048);
            policy.conflict = desc;
            const MachineConfig machine = machineFor(o, workers);
            experiments::ContentionParams params;
            params.workers = workers;
            params.txPerWorker = static_cast<unsigned>(tx);
            params.hotLines = hot;
            auto config = baseConfig("contention", "2k_opt");
            config["mix"] = mix;
            config["policy"] = desc.spec();
            jobs.push_back(
                {mix + "/" + pname, std::move(config),
                 [=](std::uint64_t seed) {
                     auto p = params;
                     p.seed = seed;
                     RunMetrics m = experiments::runContention(machine,
                                                               policy, p);
                     // Figure-level scalars: goodput is ops_per_sec,
                     // starvation is the worst per-operation attempt
                     // count, tail latency comes from the metrics
                     // registry's commit-protocol distribution.
                     std::uint64_t max_att = 0;
                     for (const auto &[dom, cs] : m.domainCtx)
                         max_att = std::max(max_att, cs.maxAttempts);
                     m.extra.set("max_attempts_per_op",
                                 static_cast<double>(max_att));
                     m.extra.set("fallback_aborts",
                                 static_cast<double>(m.htm.abortsOf(
                                     AbortCause::Fallback)));
                     const auto it = m.registry.distributions.find(
                         "htm.commit_protocol_ns");
                     if (it != m.registry.distributions.end())
                         m.extra.set(
                             "commit_p99_ns",
                             it->second.quantileUpperBound(0.99));
                     return m;
                 }});
        }
    }
    return jobs;
}

void
policiesRender(const FigureOpts &, const std::vector<JobResult> &results,
               std::FILE *out)
{
    printBanner("Conflict policies: goodput, p99 commit latency and "
                "starvation under adversarial contention (UHTM 2k_opt)",
                out);
    Table table({"mix", "policy", "ops/s", "abort%", "p99 commit ns",
                 "max attempts", "serialized", "fallback aborts"});
    for (const auto &[mix, hot] : policyMixes()) {
        (void)hot;
        for (const auto &[pname, desc] : policySweep()) {
            (void)desc;
            const RunMetrics *m =
                findMetrics(results, mix + "/" + pname);
            if (!m)
                continue;
            table.addRow(
                {mix, pname, Table::num(m->opsPerSec, 0),
                 Table::pct(m->abortRate),
                 Table::num(m->extra.get("commit_p99_ns"), 0),
                 Table::num(m->extra.get("max_attempts_per_op"), 0),
                 std::to_string(static_cast<unsigned long>(
                     m->htm.serializedCommits)),
                 Table::num(m->extra.get("fallback_aborts"), 0)});
        }
    }
    table.print(out);
    std::fprintf(
        out,
        "\nExpected shape: under the lemming mix the fixed policy burns "
        "time in capped backoff; bounded-retry and hytm serialize (or "
        "drain and retry) quickly and win on goodput, while karma "
        "bounds every operation's attempt count without the lock.\n");
}

/* ------------------------------------------------------------------ */
/* Service figure: open-loop multi-tenant traffic, tail latency        */
/* ------------------------------------------------------------------ */

/** One point of the arrival-rate sweep. */
struct ServicePoint
{
    std::string label;
    traffic::ArrivalSpec spec;
};

traffic::ArrivalSpec
poissonAt(double rate)
{
    traffic::ArrivalSpec s;
    s.kind = traffic::ArrivalKind::Poisson;
    s.ratePerSec = rate;
    return s;
}

traffic::ArrivalSpec
mmppAt(double rate)
{
    traffic::ArrivalSpec s;
    s.kind = traffic::ArrivalKind::Mmpp;
    s.ratePerSec = rate;
    return s; // burst factor/occupancy/dwell keep their defaults
}

std::vector<ServicePoint>
serviceArrivals(const FigureOpts &o)
{
    if (!o.arrivalSpec.empty()) {
        // CLI override (--arrival=): one custom point. The CLI checks
        // the spec when it parses arguments; a figure driven
        // programmatically with a bad string is rejected here.
        traffic::ArrivalSpec s;
        std::string err;
        if (!traffic::ArrivalSpec::parse(o.arrivalSpec, &s, &err))
            throw std::invalid_argument("service: bad arrival spec '" +
                                        o.arrivalSpec + "': " + err);
        return {{"custom", s}};
    }
    if (o.tiny)
        return {{"1M", poissonAt(1e6)}};
    if (o.quick)
        return {{"1M", poissonAt(1e6)}, {"mmpp-1M", mmppAt(1e6)}};
    return {{"200k", poissonAt(2e5)},
            {"1M", poissonAt(1e6)},
            {"5M", poissonAt(5e6)},
            {"mmpp-1M", mmppAt(1e6)}};
}

std::vector<unsigned>
serviceTenants(const FigureOpts &o)
{
    if (o.tenantsOverride)
        return {static_cast<unsigned>(o.tenantsOverride)};
    if (o.tiny || o.quick)
        return {2u};
    return {2u, 4u};
}

traffic::ServiceParams
serviceParams(const FigureOpts &o, unsigned tenants,
              const traffic::ArrivalSpec &arrival)
{
    traffic::ServiceParams p;
    p.tenants = tenants;
    p.workersPerTenant = o.tiny ? 1 : 2;
    p.requests = txCount(o, 1600, 240, 48);
    p.arrival = arrival;
    if (o.zipfTheta >= 0.0)
        p.zipfTheta = o.zipfTheta;
    if (o.rwMix >= 0.0)
        p.rwMix = o.rwMix;
    if (o.tiny) {
        p.keyspacePerTenant = 1u << 10;
        p.prefillKeys = 1u << 7;
        p.valueBytes = 128;
    }
    return p;
}

std::vector<Job>
serviceJobs(const FigureOpts &o)
{
    std::vector<Job> jobs;
    for (unsigned tenants : serviceTenants(o)) {
        for (const ServicePoint &pt : serviceArrivals(o)) {
            for (const SystemVariant &sysv : fig6Systems()) {
                // Like the policies figure, this one sweeps conflict
                // policies itself and ignores the --policy= override.
                for (const auto &[pname, desc] : policySweep()) {
                    HtmPolicy policy = sysv.policy;
                    policy.conflict = desc;
                    const traffic::ServiceParams params =
                        serviceParams(o, tenants, pt.spec);
                    const MachineConfig machine = machineFor(
                        o, tenants * params.workersPerTenant);
                    auto config = baseConfig("service", sysv.label);
                    config["policy"] = pname;
                    config["tenants"] = std::to_string(tenants);
                    config["arrival"] = params.arrival.spec();
                    jobs.push_back(
                        {"t" + std::to_string(tenants) + "/" + pt.label +
                             "/" + sysv.label + "/" + pname,
                         std::move(config), [=](std::uint64_t seed) {
                             auto p = params;
                             p.seed = seed;
                             RunMetrics m = experiments::runService(
                                 machine, policy, p);
                             // Per-job latency scalars for the BENCH
                             // file; registry gauges would sum across
                             // the sweep's merge, so percentiles live
                             // in extra.
                             const auto &dists = m.registry.distributions;
                             if (auto it = dists.find("service.sojourn_ns");
                                 it != dists.end()) {
                                 m.extra.set(
                                     "service_p50_ns",
                                     it->second.quantileUpperBound(0.50));
                                 m.extra.set(
                                     "service_p99_ns",
                                     it->second.quantileUpperBound(0.99));
                                 m.extra.set("service_p999_ns",
                                             it->second.quantileUpperBound(
                                                 0.999));
                             }
                             if (auto it =
                                     dists.find("service.queue_wait_ns");
                                 it != dists.end()) {
                                 m.extra.set(
                                     "queue_p99_ns",
                                     it->second.quantileUpperBound(0.99));
                             }
                             if (auto it = m.registry.counters.find(
                                     "service.requests");
                                 it != m.registry.counters.end()) {
                                 m.extra.set("requests",
                                             static_cast<double>(
                                                 it->second));
                             }
                             return m;
                         }});
                }
            }
        }
    }
    return jobs;
}

void
serviceRender(const FigureOpts &o, const std::vector<JobResult> &results,
              std::FILE *out)
{
    printBanner("Service: open-loop multi-tenant traffic — commit "
                "latency percentiles per system and conflict policy",
                out);
    Table table({"tenants", "arrival", "system", "policy", "ops/s",
                 "abort%", "p50 ns", "p99 ns", "p999 ns", "queue p99"});
    for (unsigned tenants : serviceTenants(o)) {
        for (const ServicePoint &pt : serviceArrivals(o)) {
            for (const SystemVariant &sysv : fig6Systems()) {
                for (const auto &[pname, desc] : policySweep()) {
                    (void)desc;
                    const RunMetrics *m = findMetrics(
                        results, "t" + std::to_string(tenants) + "/" +
                                     pt.label + "/" + sysv.label + "/" +
                                     pname);
                    if (!m)
                        continue;
                    table.addRow(
                        {std::to_string(tenants), pt.label, sysv.label,
                         pname, Table::num(m->opsPerSec, 0),
                         Table::pct(m->abortRate),
                         Table::num(m->extra.get("service_p50_ns"), 0),
                         Table::num(m->extra.get("service_p99_ns"), 0),
                         Table::num(m->extra.get("service_p999_ns"), 0),
                         Table::num(m->extra.get("queue_p99_ns"), 0)});
                }
            }
        }
    }
    table.print(out);
    std::fprintf(
        out,
        "\nOpen-loop arrivals: requests are timestamped by the arrival "
        "process regardless of service progress, so queue wait and the "
        "p99/p999 sojourn expose tail latency that closed-loop "
        "throughput hides. Expected shape: percentiles explode once "
        "the arrival rate nears the system's service rate, earlier for "
        "LLC-Bounded than for UHTM.\n");
}

} // namespace

std::string
duplicateName(const std::vector<Figure> &figures)
{
    for (std::size_t i = 0; i < figures.size(); ++i)
        for (std::size_t j = i + 1; j < figures.size(); ++j)
            if (figures[i].name == figures[j].name)
                return figures[i].name;
    return "";
}

const std::vector<Figure> &
all()
{
    static const std::vector<Figure> figures = {
        {"fig2", "LLC-Bounded vs Ideal unbounded HTM under consolidation",
         fig2Jobs, fig2Render},
        {"fig6", "throughput of the five systems, normalized to "
                 "LLC-Bounded",
         fig6Jobs, fig6Render},
        {"fig7", "abort-rate decomposition vs footprint and signature "
                 "size",
         fig7Jobs, fig7Render},
        {"fig8", "Echo with long-running read-only transactions",
         fig8Jobs, fig8Render},
        {"fig9", "hybrid key-value stores (Hybrid-Index + Dual)",
         fig9Jobs, fig9Render},
        {"fig10", "undo vs redo logging for overflowed DRAM lines",
         fig10Jobs, fig10Render},
        {"staging", "staged conflict detection abort-rate reduction "
                    "(Section IV-D)",
         stagingJobs, stagingRender},
        {"ablation", "tx-aware replacement, hog-count and hash-count "
                     "ablations",
         ablationJobs, ablationRender},
        {"latency", "Table III: measured vs configured access latencies",
         latencyJobs, latencyRender},
        {"policies", "conflict policies under adversarial contention "
                     "(goodput, p99 commit latency, starvation)",
         policiesJobs, policiesRender},
        {"service", "open-loop multi-tenant service traffic "
                    "(tail latency vs arrival rate and tenant count)",
         serviceJobs, serviceRender},
    };
    // A registry collision would make find() silently shadow a figure
    // and two figures fight over one golden file; fail fast instead.
    static const bool checked = [] {
        const std::string dup = duplicateName(figures);
        if (!dup.empty()) {
            std::fprintf(stderr,
                         "figure registry: duplicate figure name '%s' — "
                         "every figure must have a unique subcommand and "
                         "golden-file name\n",
                         dup.c_str());
            std::abort();
        }
        return true;
    }();
    (void)checked;
    return figures;
}

const Figure *
find(const std::string &name)
{
    for (const Figure &f : all())
        if (f.name == name)
            return &f;
    return nullptr;
}

} // namespace uhtm::figures
