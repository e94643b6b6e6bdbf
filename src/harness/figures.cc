#include "harness/figures.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <stdexcept>
#include <tuple>

#include "harness/experiments.hh"
#include "harness/report.hh"

namespace uhtm::figures
{

/**
 * What a figure function talks to. A figure walks its axes once; at
 * each point it declares the job and, if that job's result is there,
 * adds the table row. makeJobs() runs it on a Sweep without results,
 * where find() is always null and nothing prints; render() runs it on
 * the sweep's results, prints the tables and drops the jobs.
 */
class Sweep
{
  public:
    Sweep() = default;
    Sweep(const std::vector<exec::JobResult> &results, std::FILE *out)
        : _results(&results), _out(out)
    {
    }

    void
    job(exec::Job job)
    {
        _jobs.push_back(std::move(job));
    }

    /** Metrics of the ok job @p key; nullptr when missing or failed. */
    const RunMetrics *
    find(const std::string &key) const
    {
        if (_results)
            for (const exec::JobResult &r : *_results)
                if (r.key == key && r.ok)
                    return &r.metrics;
        return nullptr;
    }

    /** Print @p banner and open a table; row() fills it. */
    void
    table(const std::string &banner, std::vector<std::string> headers)
    {
        flush();
        if (!_out)
            return;
        printBanner(banner, _out);
        _table.emplace(std::move(headers));
    }

    void
    row(std::vector<std::string> cells)
    {
        _table->addRow(std::move(cells));
    }

    /** Print @p text below the open table. */
    void
    note(const std::string &text)
    {
        flush();
        if (_out)
            std::fputs(text.c_str(), _out);
    }

    /** Print the open table, if any. */
    void
    flush()
    {
        if (_table)
            _table->print(_out);
        _table.reset();
    }

    std::vector<exec::Job>
    takeJobs()
    {
        return std::move(_jobs);
    }

  private:
    const std::vector<exec::JobResult> *_results = nullptr;
    std::FILE *_out = nullptr;
    std::optional<Table> _table;
    std::vector<exec::Job> _jobs;
};

namespace
{

using exec::Job;
using experiments::ConsolidationOpts;
using Sizes = std::vector<std::uint64_t>;
using Counts = std::vector<unsigned>;

std::string
kbLabel(std::uint64_t bytes)
{
    return std::to_string(bytes / 1024) + "KB";
}

/** The full, quick or tiny value of a scale-dependent choice. */
template <typename T>
T
byScale(const FigureOpts &o, T full, T quick, T tiny)
{
    return o.tiny ? tiny : o.quick ? quick : full;
}

/** Per-worker transaction count: the --tx= override, else byScale. */
std::uint64_t
txCount(const FigureOpts &o, std::uint64_t full, std::uint64_t quick,
        std::uint64_t tiny)
{
    return o.txOverride ? o.txOverride : byScale(o, full, quick, tiny);
}

/** Threads per consolidated PMDK benchmark. */
unsigned
benchWorkers(const FigureOpts &o)
{
    return byScale(o, 4u, 4u, 2u);
}

/** LLC-hog background applications beside the benchmarks. */
unsigned
llcHogs(const FigureOpts &o)
{
    return byScale(o, 2u, 2u, 1u);
}

/** Machine for @p cores workloads; tiny mode shrinks all caches. */
MachineConfig
machineFor(const FigureOpts &o, unsigned cores)
{
    MachineConfig m = o.tiny ? MachineConfig::tiny() : MachineConfig{};
    m.cores = cores;
    return m;
}

/** The consolidated PMDK benchmarks (two of the four at tiny scale),
 *  persistent, @p footprint bytes per transaction. */
std::vector<PmdkParams>
pmdkBenches(const FigureOpts &o, std::uint64_t footprint, std::uint64_t tx)
{
    using enum IndexKind;
    std::vector<PmdkParams> benches;
    for (IndexKind kind :
         byScale<std::vector<IndexKind>>(o,
                                         {HashMap, BTree, RBTree, SkipList},
                                         {HashMap, BTree, RBTree, SkipList},
                                         {HashMap, BTree})) {
        PmdkParams p;
        p.kind = kind;
        p.footprintBytes = byScale(o, footprint, footprint, KiB(8));
        p.txPerWorker = tx;
        if (o.tiny) {
            p.keyspace = 1u << 14;
            p.prefillKeys = 1u << 10;
        }
        benches.push_back(p);
    }
    return benches;
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

/** Echo with batched puts: ~100KB transactions at full scale. */
EchoParams
batchEcho(const FigureOpts &o, std::uint64_t txPerMaster)
{
    EchoParams p;
    p.opsPerTx = byScale(o, 100u, 100u, 4u);
    p.txPerMaster = txPerMaster;
    if (o.tiny)
        p.prefillKeys = 512;
    return p;
}

std::map<std::string, std::string>
baseConfig(const std::string &workload, const std::string &system)
{
    return {{"workload", workload}, {"system", system}};
}

/** The five systems of Figure 6 (the service figure sweeps them too). */
std::vector<SystemVariant>
fiveSystems()
{
    return {{"LLC-Bounded", HtmPolicy::llcBounded()},
            {"Sig-Only", HtmPolicy::signatureOnly(2048)},
            {"2k_sig", HtmPolicy::uhtmSig(2048)},
            {"2k_opt", HtmPolicy::uhtmOpt(2048)},
            {"Ideal", HtmPolicy::ideal()}};
}

/* ------------------------------------------------------------------ */
/* Figure 2: LLC-Bounded vs Ideal under consolidation                 */
/* ------------------------------------------------------------------ */

void
fig2(const FigureOpts &o, Sweep &s)
{
    const std::uint64_t tx = txCount(o, 6, 6, 2);
    const std::pair<const char *, HtmPolicy> systems[] = {
        {"bounded", HtmPolicy::llcBounded()}, {"ideal", HtmPolicy::ideal()}};
    s.table("Figure 2: LLC-Bounded vs Ideal unbounded HTM "
            "(16 threads + 2 LLC hogs, 100KB footprints)",
            {"benchmark", "bounded tx/s", "ideal tx/s", "ideal/bounded",
             "bounded abort%", "bounded capacity", "serialized"});
    // One row per benchmark: its bounded and ideal runs side by side.
    auto addRow = [&](const std::string &name, const std::string &base) {
        const RunMetrics *b = s.find(base + "bounded");
        const RunMetrics *i = s.find(base + "ideal");
        if (!b && !i)
            return;
        s.row({name, b ? Table::num(b->txPerSec, 0) : "-",
               i ? Table::num(i->txPerSec, 0) : "-",
               b && i ? Table::num(i->txPerSec / std::max(1.0, b->txPerSec),
                                   2)
                      : "-",
               b ? Table::pct(b->abortRate) : "-",
               b ? std::to_string(b->htm.abortsOf(AbortCause::Capacity))
                 : "-",
               b ? std::to_string(b->htm.serializedCommits) : "-"});
    };
    for (const PmdkParams &bench : pmdkBenches(o, KiB(100), tx)) {
        const std::string name = indexKindName(bench.kind);
        for (const auto &[sys, policy] : systems) {
            auto config = baseConfig("pmdk", sys);
            config["benchmark"] = name;
            config["tx_per_worker"] = std::to_string(tx);
            s.job(consolidatedJob("pmdk/" + name + "/" + sys,
                                  std::move(config), o, policy, {bench},
                                  byScale(o, 16u, 16u, 4u), llcHogs(o)));
        }
        addRow(name, "pmdk/" + name + "/");
    }
    for (const auto &[sys, policy] : systems)
        s.job(echoJob(std::string("echo/") + sys, baseConfig("echo", sys),
                      o, policy, batchEcho(o, byScale(o, 8u, 8u, 2u) * tx),
                      byScale(o, 15u, 15u, 3u), llcHogs(o)));
    addRow("Echo", "echo/");
    s.note("\nPaper shape: LLC-Bounded up to 6.2x slower than Ideal; "
           "HashMap (short transactions) shows little gap.\n");
}

/* ------------------------------------------------------------------ */
/* Figure 6: throughput across the five systems                       */
/* ------------------------------------------------------------------ */

void
fig6(const FigureOpts &o, Sweep &s)
{
    const std::uint64_t tx = txCount(o, 8, 3, 2);
    const std::vector<SystemVariant> systems = fiveSystems();
    const std::vector<PmdkParams> benches = pmdkBenches(o, KiB(100), tx);
    // benchmark name -> system label -> ops/s
    std::map<std::string, std::map<std::string, double>> byBench;
    for (const SystemVariant &sysv : systems) {
        auto config = baseConfig("pmdk-consolidated", sysv.label);
        config["tx_per_worker"] = std::to_string(tx);
        s.job(consolidatedJob("pmdk/" + sysv.label, std::move(config), o,
                              sysv.policy, benches, benchWorkers(o),
                              llcHogs(o)));
        s.job(echoJob("echo/" + sysv.label, baseConfig("echo", sysv.label),
                      o, sysv.policy,
                      batchEcho(o, byScale(o, 4u, 4u, 2u) * tx), 3,
                      llcHogs(o)));
        if (const RunMetrics *m = s.find("pmdk/" + sysv.label)) {
            // Domains 0..N-1 are the benchmarks (created in order).
            for (unsigned d = 0; d < benches.size(); ++d)
                byBench[indexKindName(benches[d].kind)][sysv.label] =
                    m->domainOpsPerSec(d);
        }
        if (const RunMetrics *m = s.find("echo/" + sysv.label))
            byBench["Echo"][sysv.label] = m->opsPerSec;
    }

    std::vector<std::string> headers = {"benchmark"};
    for (const SystemVariant &sysv : systems)
        headers.push_back(sysv.label);
    s.table("Figure 6: throughput normalized to LLC-Bounded "
            "(4 benchmarks x 4 threads + 2 LLC hogs, 100KB "
            "footprints, persistent data)",
            headers);
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
        s.row(row);
    }
    s.note("\nCells: throughput normalized to LLC-Bounded "
           "(absolute ops/s in parentheses).\n"
           "Paper shape: Sig-Only worst; UHTM(opt) approaches "
           "Ideal; HashMap shows little difference.\n");
}

/* ------------------------------------------------------------------ */
/* Figure 7: abort decomposition vs footprint and signature size      */
/* ------------------------------------------------------------------ */

void
fig7(const FigureOpts &o, Sweep &s)
{
    const std::uint64_t tx = txCount(o, 6, 6, 2);
    s.table("Figure 7: UHTM abort-rate decomposition vs footprint "
            "and signature size (4 benchmarks x 4 threads + 2 hogs)",
            {"footprint", "system", "abort%", "true", "false-pos",
             "cross-dom", "capacity", "lock", "sig-fill"});
    for (std::uint64_t fp :
         byScale<Sizes>(o,
                        {KiB(100), KiB(200), KiB(300), KiB(400), KiB(500)},
                        {KiB(100), KiB(500)}, {KiB(8)})) {
        for (unsigned bits :
             byScale<Counts>(o, {512, 1024, 4096}, {512, 4096}, {1024})) {
            for (const SystemVariant &sysv :
                 {SystemVariant{std::to_string(bits) + "_sig",
                                HtmPolicy::uhtmSig(bits)},
                  SystemVariant{std::to_string(bits) + "_opt",
                                HtmPolicy::uhtmOpt(bits)}}) {
                const std::string key = "fp" + kbLabel(fp) + "/" + sysv.label;
                auto config = baseConfig("pmdk-consolidated", sysv.label);
                config["footprint_kb"] = std::to_string(fp / 1024);
                s.job(consolidatedJob(key, std::move(config), o,
                                      sysv.policy, pmdkBenches(o, fp, tx),
                                      benchWorkers(o), llcHogs(o)));
                const RunMetrics *m = s.find(key);
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
                s.row({kbLabel(fp), sysv.label, Table::pct(m->abortRate),
                       atot > 0 ? Table::pct(trueAborts / atot)
                                : std::string("-"),
                       share(AbortCause::FalsePositive),
                       share(AbortCause::CrossDomainFalse),
                       share(AbortCause::Capacity),
                       share(AbortCause::LockPreempt),
                       h.sigChecks ? Table::pct(
                                         static_cast<double>(h.sigFalseHits) /
                                         static_cast<double>(h.sigChecks))
                                   : std::string("-")});
            }
        }
    }
    s.note("\nShares are fractions of all aborts (true on+off "
           "chip merged into 'true' via on-chip column; sig-fill "
           "= false-hit rate of signature checks).\n"
           "Paper shape: abort rate grows with footprint; larger "
           "signatures and isolation (_opt) cut false "
           "positives.\n");
}

/* ------------------------------------------------------------------ */
/* Figure 8: Echo with long-running read-only transactions            */
/* ------------------------------------------------------------------ */

void
fig8(const FigureOpts &o, Sweep &s)
{
    const std::uint64_t tx = txCount(o, 400, 200, 8);
    const std::uint64_t scanBytes =
        o.scanMbOverride ? MiB(o.scanMbOverride)
                         : byScale(o, MiB(24), MiB(12), MiB(1));
    using Fractions = std::vector<std::pair<const char *, double>>;
    const Fractions fractions = {
        {"0%", 0.0}, {"0.5%", 0.005}, {"1%", 0.01}, {"2%", 0.02}};
    s.table("Figure 8: Echo with long-running read-only transactions (" +
                std::to_string(scanBytes / MiB(1)) + "MB scans, 1KB puts)",
            {"long-tx %", "system", "puts/s", "tx/s", "long commits",
             "capacity", "abort%"});
    for (const auto &[label, fraction] : byScale<Fractions>(
             o, fractions, fractions, {{"0%", 0.0}, {"1%", 0.01}})) {
        const std::string base = std::string("long") + label + "/";
        const RunMetrics *bounded = s.find(base + "LLC-Bounded");
        for (const SystemVariant &sysv :
             {SystemVariant{"LLC-Bounded", HtmPolicy::llcBounded()},
              SystemVariant{"UHTM(2k_opt)", HtmPolicy::uhtmOpt(2048)},
              SystemVariant{"Ideal", HtmPolicy::ideal()}}) {
            EchoParams p;
            p.valueBytes = KiB(1);
            p.opsPerTx = 1;
            p.txPerMaster = tx;
            p.longTxFraction = fraction;
            p.scanBytes = scanBytes;
            p.prefillKeys = byScale(o, 16384u, 16384u, 1024u);
            p.prefillValueBytes = byScale(o, KiB(2), KiB(2), KiB(1));
            auto config = baseConfig("echo-longtx", sysv.label);
            config["long_tx_fraction"] = label;
            config["scan_bytes"] = std::to_string(p.scanBytes);
            // 1 master + 3 clients, no hogs, per the paper.
            s.job(echoJob(base + sysv.label, std::move(config), o,
                          sysv.policy, p, 3, 0));
            const RunMetrics *m = s.find(base + sysv.label);
            if (!m)
                continue;
            std::string puts = Table::num(m->opsPerSec, 0);
            if (sysv.label != "LLC-Bounded" && bounded &&
                bounded->opsPerSec > 0)
                puts += " (" +
                        Table::num(m->opsPerSec / bounded->opsPerSec, 2) +
                        "x)";
            s.row({label, sysv.label, puts, Table::num(m->txPerSec, 0),
                   std::to_string(
                       static_cast<unsigned long>(m->htm.commits)),
                   std::to_string(static_cast<unsigned long>(
                       m->htm.abortsOf(AbortCause::Capacity))),
                   Table::pct(m->abortRate)});
        }
    }
    s.note("\nPaper shape: throughput of the LLC-Bounded system "
           "collapses once long-running transactions appear; "
           "UHTM sustains it (4.2x at 0.5% in the paper).\n");
}

/* ------------------------------------------------------------------ */
/* Figure 9: hybrid key-value stores                                  */
/* ------------------------------------------------------------------ */

void
fig9(const FigureOpts &o, Sweep &s)
{
    const std::uint64_t tx = txCount(o, 3, 3, 1);
    const unsigned hybridWorkers = byScale(o, 8u, 8u, 2u);
    const unsigned dualPairs = byScale(o, 4u, 4u, 1u);
    const MachineConfig machine =
        machineFor(o, hybridWorkers + 2 * dualPairs);
    using Systems = std::vector<SystemVariant>;
    const Systems reduced = {{"LLC-Bounded", HtmPolicy::llcBounded()},
                             {"4k_sig", HtmPolicy::uhtmSig(4096)},
                             {"4k_opt", HtmPolicy::uhtmOpt(4096)},
                             {"Ideal", HtmPolicy::ideal()}};
    const Systems systems =
        byScale<Systems>(o,
                         {{"LLC-Bounded", HtmPolicy::llcBounded()},
                          {"512_sig", HtmPolicy::uhtmSig(512)},
                          {"512_opt", HtmPolicy::uhtmOpt(512)},
                          {"4k_sig", HtmPolicy::uhtmSig(4096)},
                          {"4k_opt", HtmPolicy::uhtmOpt(4096)},
                          {"Ideal", HtmPolicy::ideal()}},
                         reduced, reduced);
    s.table("Figure 9: hybrid key-value stores "
            "(Hybrid-Index + Dual consolidated, footprint sweep)",
            {"footprint", "system", "hybrid ops/s", "dual ops/s", "abort%",
             "cross-dom aborts"});
    for (std::uint64_t fp :
         byScale<Sizes>(o, {KiB(600), KiB(900), KiB(1200), KiB(1536)},
                        {KiB(600), KiB(1536)}, {KiB(16)})) {
        HybridKvParams hp;
        hp.footprintBytes = fp;
        hp.txPerWorker = tx;
        DualKvParams dp;
        dp.footprintBytes = fp;
        dp.txPerWorker = tx;
        if (o.tiny) {
            hp.keyspace = dp.keyspace = 1u << 14;
            hp.prefillKeys = dp.prefillKeys = 1u << 10;
        }
        for (const SystemVariant &sysv : systems) {
            HtmPolicy policy = sysv.policy;
            policy.conflict = o.policy; // --policy= override
            const std::string key = "fp" + kbLabel(fp) + "/" + sysv.label;
            auto config = baseConfig("hybrid+dual", sysv.label);
            config["footprint_kb"] = std::to_string(fp / 1024);
            s.job({key, std::move(config), [=](std::uint64_t seed) {
                       auto h = hp;
                       h.seed = seed;
                       auto d = dp;
                       d.seed = seed + 1;
                       return experiments::runHybridAndDual(
                           machine, policy, h, hybridWorkers, d, dualPairs,
                           seed);
                   }});
            const RunMetrics *m = s.find(key);
            if (!m)
                continue;
            // Domain 0 is hybrid-index, domain 1 is dual.
            s.row({kbLabel(fp), sysv.label,
                   Table::num(m->domainOpsPerSec(0), 0),
                   Table::num(m->domainOpsPerSec(1), 0),
                   Table::pct(m->abortRate),
                   std::to_string(static_cast<unsigned long>(
                       m->htm.abortsOf(AbortCause::CrossDomainFalse)))});
        }
    }
    s.note("\nPaper shape: naive UHTM (_sig) suffers from "
           "cross-domain false positives; isolation (_opt) "
           "recovers the loss and beats LLC-Bounded, more so at "
           "larger footprints.\n");
}

/* ------------------------------------------------------------------ */
/* Figure 10: undo vs redo logging for overflowed DRAM lines          */
/* ------------------------------------------------------------------ */

void
fig10(const FigureOpts &o, Sweep &s)
{
    const std::uint64_t tx = txCount(o, 6, 6, 2);
    s.table("Figure 10: volatile transactions — undo vs redo "
            "logging for overflowed DRAM lines",
            {"footprint", "undo ops/s", "redo ops/s", "undo/redo",
             "overflowed txs", "undo commit us", "redo commit us"});
    for (std::uint64_t fp :
         byScale<Sizes>(o, {KiB(300), KiB(600), KiB(900), KiB(1200)},
                        {KiB(300), KiB(1200)}, {KiB(16)})) {
        // Each column averages over the signature sizes.
        double undoOps = 0, redoOps = 0;
        double undoCommitUs = 0, redoCommitUs = 0;
        std::uint64_t overflowed = 0;
        unsigned found = 0;
        for (unsigned bits :
             byScale<Counts>(o, {512, 1024, 4096}, {2048}, {2048})) {
            const std::string base =
                "fp" + kbLabel(fp) + "/" + std::to_string(bits) + "/";
            for (DramOverflowLog mode :
                 {DramOverflowLog::Undo, DramOverflowLog::Redo}) {
                HtmPolicy pol = HtmPolicy::uhtmOpt(bits);
                pol.dramLog = mode;
                const char *modeName =
                    mode == DramOverflowLog::Undo ? "undo" : "redo";
                std::vector<PmdkParams> benches = pmdkBenches(o, fp, tx);
                for (PmdkParams &p : benches) {
                    p.placement = MemKind::Dram;
                    // Isolate logging cost (no conflict noise).
                    p.updateFraction = 1.0;
                }
                auto config = baseConfig("pmdk-volatile", modeName);
                config["footprint_kb"] = std::to_string(fp / 1024);
                config["signature_bits"] = std::to_string(bits);
                s.job(consolidatedJob(
                    base + modeName, std::move(config), o, pol,
                    std::move(benches), benchWorkers(o),
                    0 /* spill comes from the workers themselves */));
            }
            const RunMetrics *undo = s.find(base + "undo");
            const RunMetrics *redo = s.find(base + "redo");
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
        s.row({kbLabel(fp), Table::num(undoOps / n, 0),
               Table::num(redoOps / n, 0),
               Table::num(undoOps / std::max(1.0, redoOps), 2),
               std::to_string(
                   static_cast<unsigned long>(overflowed / found)),
               Table::num(undoCommitUs / n, 1),
               Table::num(redoCommitUs / n, 1)});
    }
    s.note("\nPaper shape: undo ahead of redo, and the gap widens "
           "as overflows become frequent (7.5% at 300KB up to "
           "44.7%).\n");
}

/* ------------------------------------------------------------------ */
/* Section IV-D staging: abort-rate reduction per detection stage     */
/* ------------------------------------------------------------------ */

void
staging(const FigureOpts &o, Sweep &s)
{
    const std::uint64_t tx = txCount(o, 6, 3, 2);
    s.table("Staged conflict detection: abort-rate reduction "
            "(Section IV-D, 100KB footprints; paper: 99% -> 26% -> 9%)",
            {"detection", "abort%", "FP", "cross-dom", "true", "capacity",
             "lock", "serialized", "ops/s"});
    for (const SystemVariant &sysv :
         {SystemVariant{"check-all-traffic", HtmPolicy::signatureOnly(2048)},
          SystemVariant{"LLC-miss-only", HtmPolicy::uhtmSig(2048)},
          SystemVariant{"+isolation", HtmPolicy::uhtmOpt(2048)},
          SystemVariant{"Ideal(precise)", HtmPolicy::ideal()}}) {
        s.job(consolidatedJob(
            sysv.label, baseConfig("pmdk-consolidated", sysv.label), o,
            sysv.policy, pmdkBenches(o, KiB(100), tx), benchWorkers(o),
            llcHogs(o)));
        const RunMetrics *m = s.find(sysv.label);
        if (!m)
            continue;
        const auto &h = m->htm;
        auto count = [&](AbortCause c) {
            return std::to_string(static_cast<unsigned long>(h.abortsOf(c)));
        };
        s.row({sysv.label, Table::pct(m->abortRate),
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
}

/* ------------------------------------------------------------------ */
/* Ablations (beyond the paper's own sweeps)                          */
/* ------------------------------------------------------------------ */

void
ablation(const FigureOpts &o, Sweep &s)
{
    const std::uint64_t tx = txCount(o, 5, 3, 2);
    const std::vector<PmdkParams> benches = pmdkBenches(o, KiB(200), tx);

    s.table("Ablation 1: tx-aware LLC replacement "
            "(UHTM 2k_opt, 200KB footprints, 2 hogs)",
            {"replacement", "ops/s", "overflowed txs", "abort%"});
    for (bool aware : {false, true}) {
        const std::string name = aware ? "tx-aware" : "plain-lru";
        s.job(consolidatedJob("replacement/" + name,
                              baseConfig("pmdk-consolidated", name), o,
                              HtmPolicy::uhtmOpt(2048), benches,
                              benchWorkers(o), llcHogs(o), aware));
        if (const RunMetrics *m = s.find("replacement/" + name))
            s.row({aware ? "prefer non-tx victims" : "plain LRU",
                   Table::num(m->opsPerSec, 0),
                   std::to_string(
                       static_cast<unsigned long>(m->htm.overflowedTxs)),
                   Table::pct(m->abortRate)});
    }

    s.table("Ablation 2: background-application count "
            "(LLC-Bounded vs UHTM 2k_opt)",
            {"hogs", "bounded ops/s", "uhtm ops/s", "uhtm/bounded",
             "bounded capacity"});
    for (unsigned hogs : byScale<Counts>(o, {0, 1, 2, 4}, {0, 1, 2, 4},
                                         {0, 1})) {
        const std::string base = "hogs" + std::to_string(hogs) + "/";
        for (const auto &[sys, policy] :
             {std::pair<const char *, HtmPolicy>{"bounded",
                                                 HtmPolicy::llcBounded()},
              {"uhtm", HtmPolicy::uhtmOpt(2048)}})
            s.job(consolidatedJob(base + sys,
                                  baseConfig("pmdk-consolidated", sys), o,
                                  policy, benches, benchWorkers(o), hogs));
        const RunMetrics *b = s.find(base + "bounded");
        const RunMetrics *u = s.find(base + "uhtm");
        if (!b && !u)
            continue;
        s.row({std::to_string(hogs), b ? Table::num(b->opsPerSec, 0) : "-",
               u ? Table::num(u->opsPerSec, 0) : "-",
               b && u ? Table::num(u->opsPerSec / std::max(1.0, b->opsPerSec),
                                   2)
                      : "-",
               b ? std::to_string(static_cast<unsigned long>(
                       b->htm.abortsOf(AbortCause::Capacity)))
                 : "-"});
    }

    s.table("Ablation 3: signature hash-function count "
            "(2k-bit signatures)",
            {"hashes", "ops/s", "abort%", "false-positive aborts"});
    for (unsigned hashes : byScale<Counts>(o, {2, 4, 8}, {2, 4, 8}, {4})) {
        HtmPolicy pol = HtmPolicy::uhtmOpt(2048);
        pol.signatureHashes = hashes;
        const std::string key = "hashes" + std::to_string(hashes);
        s.job(consolidatedJob(
            key,
            baseConfig("pmdk-consolidated",
                       "2k_opt/" + std::to_string(hashes) + "h"),
            o, pol, benches, benchWorkers(o), llcHogs(o)));
        if (const RunMetrics *m = s.find(key))
            s.row({std::to_string(hashes), Table::num(m->opsPerSec, 0),
                   Table::pct(m->abortRate),
                   std::to_string(static_cast<unsigned long>(
                       m->htm.abortsOf(AbortCause::FalsePositive) +
                       m->htm.abortsOf(AbortCause::CrossDomainFalse)))});
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

RunMetrics
probeLatencies()
{
    EventQueue eq;
    HtmSystem sys(eq, MachineConfig{}, HtmPolicy::uhtmOpt(2048));
    sys.createDomain("p0");

    const Addr dram = MemLayout::kDramBase + MiB(2);
    const Addr nvm = MemLayout::kNvmBase + MiB(2);

    RunMetrics m;
    auto &x = m.extra;
    // Cold DRAM read: L1 + LLC + DRAM.
    x.set("dram_read_ns", nsFromTicks(measureAccess(sys, 0, dram, false)));
    // Now hot in L1.
    x.set("l1_hit_ns", nsFromTicks(measureAccess(sys, 0, dram, false)));
    // Hot in LLC but not in core 1's L1.
    x.set("llc_hit_ns", nsFromTicks(measureAccess(sys, 1, dram, false)));
    // Cold NVM read (also fills the DRAM cache).
    x.set("nvm_read_ns", nsFromTicks(measureAccess(sys, 0, nvm, false)));
    // Second cold NVM line read by another core.
    x.set("nvm_read2_ns",
          nsFromTicks(measureAccess(sys, 2, nvm + MiB(4), false)));
    // NVM line served from the DRAM cache (evict L1+LLC first).
    sys.l1(0).invalidate(lineAlign(nvm));
    sys.llc().invalidate(lineAlign(nvm));
    x.set("nvm_via_dram_cache_ns",
          nsFromTicks(measureAccess(sys, 0, nvm, false)));

    const MachineConfig &cfg = sys.machine();
    x.set("cfg_l1_ns", nsFromTicks(cfg.l1Latency));
    x.set("cfg_llc_ns", nsFromTicks(cfg.l1Latency + cfg.llcLatency));
    x.set("cfg_dram_read_ns",
          nsFromTicks(cfg.l1Latency + cfg.llcLatency + cfg.dramReadLatency));
    x.set("cfg_nvm_read_ns",
          nsFromTicks(cfg.l1Latency + cfg.llcLatency + cfg.nvmReadLatency));
    x.set("cfg_nvm_write_ns", nsFromTicks(cfg.nvmWriteLatency));
    x.set("cfg_dram_rw_ns", nsFromTicks(cfg.dramReadLatency));
    return m;
}

void
latency(const FigureOpts &, Sweep &s)
{
    s.job({"latency", baseConfig("latency-probe", "2k_opt"),
           [](std::uint64_t) { return probeLatencies(); }});
    s.table("Table III: measured vs configured latencies",
            {"access", "measured ns", "configured ns"});
    const RunMetrics *m = s.find("latency");
    if (!m)
        return;
    const auto &x = m->extra;
    for (const auto &[access, measured, configured] :
         {std::tuple{"L1 hit", "l1_hit_ns", "cfg_l1_ns"},
          {"LLC hit (L1 miss)", "llc_hit_ns", "cfg_llc_ns"},
          {"DRAM read (all miss)", "dram_read_ns", "cfg_dram_read_ns"},
          {"NVM read (all miss)", "nvm_read_ns", "cfg_nvm_read_ns"},
          {"NVM read #2", "nvm_read2_ns", "cfg_nvm_read_ns"},
          {"NVM via DRAM cache", "nvm_via_dram_cache_ns",
           "cfg_dram_read_ns"}})
        s.row({access, Table::num(x.get(measured), 1),
               Table::num(x.get(configured), 1)});
    s.note("\nNVM write latency (ADR write-pending queue): configured " +
           Table::num(x.get("cfg_nvm_write_ns"), 0) + "ns; DRAM " +
           Table::num(x.get("cfg_dram_rw_ns"), 0) + "ns read/write.\n");
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

void
policies(const FigureOpts &o, Sweep &s)
{
    const unsigned workers = byScale(o, 8u, 8u, 4u);
    const std::uint64_t tx = txCount(o, 200, 60, 25);
    const MachineConfig machine = machineFor(o, workers);
    s.table("Conflict policies: goodput, p99 commit latency and "
            "starvation under adversarial contention (UHTM 2k_opt)",
            {"mix", "policy", "ops/s", "abort%", "p99 commit ns",
             "max attempts", "serialized", "fallback aborts"});
    // Adversarial mixes: all-threads-one-line, and a small hot pool.
    for (const auto &[mix, hot] :
         {std::pair<std::string, unsigned>{"lemming", 1u}, {"mixed", 8u}}) {
        for (const auto &[pname, desc] : policySweep()) {
            HtmPolicy policy = HtmPolicy::uhtmOpt(2048);
            policy.conflict = desc;
            experiments::ContentionParams params;
            params.workers = workers;
            params.txPerWorker = static_cast<unsigned>(tx);
            params.hotLines = hot;
            auto config = baseConfig("contention", "2k_opt");
            config["mix"] = mix;
            config["policy"] = desc.spec();
            s.job({mix + "/" + pname, std::move(config),
                   [=](std::uint64_t seed) {
                       auto p = params;
                       p.seed = seed;
                       RunMetrics m =
                           experiments::runContention(machine, policy, p);
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
                           m.extra.set("commit_p99_ns",
                                       it->second.quantileUpperBound(0.99));
                       return m;
                   }});
            const RunMetrics *m = s.find(mix + "/" + pname);
            if (!m)
                continue;
            s.row({mix, pname, Table::num(m->opsPerSec, 0),
                   Table::pct(m->abortRate),
                   Table::num(m->extra.get("commit_p99_ns"), 0),
                   Table::num(m->extra.get("max_attempts_per_op"), 0),
                   std::to_string(
                       static_cast<unsigned long>(m->htm.serializedCommits)),
                   Table::num(m->extra.get("fallback_aborts"), 0)});
        }
    }
    s.note("\nExpected shape: under the lemming mix the fixed policy burns "
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
arrivalAt(traffic::ArrivalKind kind, double rate)
{
    traffic::ArrivalSpec s;
    s.kind = kind;
    s.ratePerSec = rate;
    return s; // MMPP burst factor/occupancy/dwell keep their defaults
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
    using traffic::ArrivalKind;
    const ServicePoint poisson1M{"1M", arrivalAt(ArrivalKind::Poisson, 1e6)};
    const ServicePoint mmpp1M{"mmpp-1M", arrivalAt(ArrivalKind::Mmpp, 1e6)};
    return byScale<std::vector<ServicePoint>>(
        o,
        {{"200k", arrivalAt(ArrivalKind::Poisson, 2e5)},
         poisson1M,
         {"5M", arrivalAt(ArrivalKind::Poisson, 5e6)},
         mmpp1M},
        {poisson1M, mmpp1M}, {poisson1M});
}

traffic::ServiceParams
serviceParams(const FigureOpts &o, unsigned tenants,
              const traffic::ArrivalSpec &arrival)
{
    traffic::ServiceParams p;
    p.tenants = tenants;
    p.workersPerTenant = byScale(o, 2u, 2u, 1u);
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

/** Per-job latency scalars for the BENCH file; registry gauges would
 *  sum across the sweep's merge, so percentiles live in extra. */
RunMetrics
withServiceScalars(RunMetrics m)
{
    const auto &dists = m.registry.distributions;
    if (auto it = dists.find("service.sojourn_ns"); it != dists.end()) {
        m.extra.set("service_p50_ns", it->second.quantileUpperBound(0.50));
        m.extra.set("service_p99_ns", it->second.quantileUpperBound(0.99));
        m.extra.set("service_p999_ns",
                    it->second.quantileUpperBound(0.999));
    }
    if (auto it = dists.find("service.queue_wait_ns"); it != dists.end())
        m.extra.set("queue_p99_ns", it->second.quantileUpperBound(0.99));
    if (auto it = m.registry.counters.find("service.requests");
        it != m.registry.counters.end())
        m.extra.set("requests", static_cast<double>(it->second));
    return m;
}

void
service(const FigureOpts &o, Sweep &s)
{
    s.table("Service: open-loop multi-tenant traffic — commit "
            "latency percentiles per system and conflict policy",
            {"tenants", "arrival", "system", "policy", "ops/s", "abort%",
             "p50 ns", "p99 ns", "p999 ns", "queue p99"});
    const Counts tenantCounts =
        o.tenantsOverride
            ? Counts{static_cast<unsigned>(o.tenantsOverride)}
            : byScale<Counts>(o, {2, 4}, {2}, {2});
    for (unsigned tenants : tenantCounts) {
        for (const ServicePoint &pt : serviceArrivals(o)) {
            for (const SystemVariant &sysv : fiveSystems()) {
                // Like the policies figure, this one sweeps conflict
                // policies itself and ignores the --policy= override.
                for (const auto &[pname, desc] : policySweep()) {
                    HtmPolicy policy = sysv.policy;
                    policy.conflict = desc;
                    const traffic::ServiceParams params =
                        serviceParams(o, tenants, pt.spec);
                    const MachineConfig machine = machineFor(
                        o, tenants * params.workersPerTenant);
                    // Appending to "t" (not `"t" + std::string`)
                    // keeps GCC 12's -Wrestrict false positive away.
                    std::string key = "t";
                    key += std::to_string(tenants) + "/" + pt.label + "/" +
                           sysv.label + "/" + pname;
                    auto config = baseConfig("service", sysv.label);
                    config["policy"] = pname;
                    config["tenants"] = std::to_string(tenants);
                    config["arrival"] = params.arrival.spec();
                    s.job({key, std::move(config), [=](std::uint64_t seed) {
                               auto p = params;
                               p.seed = seed;
                               return withServiceScalars(
                                   experiments::runService(machine, policy,
                                                           p));
                           }});
                    const RunMetrics *m = s.find(key);
                    if (!m)
                        continue;
                    s.row({std::to_string(tenants), pt.label, sysv.label,
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
    s.note("\nOpen-loop arrivals: requests are timestamped by the arrival "
           "process regardless of service progress, so queue wait and the "
           "p99/p999 sojourn expose tail latency that closed-loop "
           "throughput hides. Expected shape: percentiles explode once "
           "the arrival rate nears the system's service rate, earlier for "
           "LLC-Bounded than for UHTM.\n");
}

} // namespace

std::vector<exec::Job>
Figure::makeJobs(const FigureOpts &opts) const
{
    Sweep s;
    sweep(opts, s);
    return s.takeJobs();
}

void
Figure::render(const FigureOpts &opts,
               const std::vector<exec::JobResult> &results,
               std::FILE *out) const
{
    Sweep s(results, out);
    sweep(opts, s);
    s.flush();
}

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
         fig2},
        {"fig6", "throughput of the five systems, normalized to "
                 "LLC-Bounded",
         fig6},
        {"fig7", "abort-rate decomposition vs footprint and signature "
                 "size",
         fig7},
        {"fig8", "Echo with long-running read-only transactions", fig8},
        {"fig9", "hybrid key-value stores (Hybrid-Index + Dual)", fig9},
        {"fig10", "undo vs redo logging for overflowed DRAM lines", fig10},
        {"staging", "staged conflict detection abort-rate reduction "
                    "(Section IV-D)",
         staging},
        {"ablation", "tx-aware replacement, hog-count and hash-count "
                     "ablations",
         ablation},
        {"latency", "Table III: measured vs configured access latencies",
         latency},
        {"policies", "conflict policies under adversarial contention "
                     "(goodput, p99 commit latency, starvation)",
         policies},
        {"service", "open-loop multi-tenant service traffic "
                    "(tail latency vs arrival rate and tenant count)",
         service},
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
