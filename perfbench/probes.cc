#include "probes.hh"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>

#include "htm/htm_system.hh"
#include "htm/tx_context.hh"
#include "sim/task.hh"

namespace perfbench
{

using namespace uhtm;

namespace
{

using Clock = std::chrono::steady_clock;

constexpr unsigned kRounds = 5;

double
nsSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
}

/** Median over kRounds of (host ns of round(r)) / opsPerRound. */
double
medianNsPerOp(std::uint64_t opsPerRound,
              const std::function<void(unsigned)> &round)
{
    std::vector<double> v;
    for (unsigned r = 0; r < kRounds; ++r) {
        const auto t0 = Clock::now();
        round(r);
        v.push_back(nsSince(t0) / static_cast<double>(opsPerRound));
    }
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

/** A quiet machine with one conflict domain; the clock is advanced to
 *  each access's completion so controller queues stay realistic. */
struct Machine
{
    explicit Machine(HtmPolicy policy)
        : sys(eq, config(), std::move(policy)),
          dom(sys.createDomain("probe"))
    {
    }

    static MachineConfig
    config()
    {
        MachineConfig m;
        m.cores = 8;
        return m;
    }

    void
    access(CoreId core, Addr a, bool write)
    {
        const AccessResult r =
            sys.issueAccess(core, dom, a, write, false, 0x5a);
        eq.runUntil(r.completeAt);
    }

    void
    readLines(CoreId core, Addr base, std::uint64_t lines)
    {
        for (std::uint64_t i = 0; i < lines; ++i)
            access(core, base + i * kLineBytes, false);
    }

    EventQueue eq;
    HtmSystem sys;
    DomainId dom;
};

double
frac(std::uint64_t part, std::uint64_t whole)
{
    return whole ? static_cast<double>(part) / static_cast<double>(whole)
                 : 0.0;
}

constexpr Addr kDram = MemLayout::kDramBase;
constexpr Addr kNvm = MemLayout::kNvmBase;
constexpr std::uint64_t kStream = 131072; // lines per streaming round

ProbeResult
probeL1Hit()
{
    auto m = std::make_unique<Machine>(HtmPolicy::uhtmOpt(2048));
    const Addr base = kDram + MiB(2);
    m->readLines(0, base, 64);
    const std::uint64_t n = 200000;
    const std::uint64_t h0 = m->sys.l1(0).stats().hits;
    const double ns = medianNsPerOp(n, [&](unsigned) {
        for (std::uint64_t i = 0; i < n; ++i)
            m->access(0, base + (i & 63) * kLineBytes, false);
    });
    return {"mem.access_l1_hit_ns", ns,
            frac(m->sys.l1(0).stats().hits - h0, n * kRounds)};
}

ProbeResult
probeLlcHit()
{
    auto m = std::make_unique<Machine>(HtmPolicy::uhtmOpt(2048));
    const Addr base = kDram + MiB(64);
    const std::uint64_t lines = 32768; // 2 MiB: fits the LLC, not the L1
    m->sys.prewarmLlc(base, lines);
    const std::uint64_t h0 = m->sys.llc().stats().hits;
    const double ns = medianNsPerOp(lines, [&](unsigned) {
        m->readLines(0, base, lines);
    });
    return {"mem.access_llc_hit_ns", ns,
            frac(m->sys.llc().stats().hits - h0, lines * kRounds)};
}

ProbeResult
probeDramMiss()
{
    auto m = std::make_unique<Machine>(HtmPolicy::uhtmOpt(2048));
    m->sys.prewarmLlc(kDram + MiB(128), m->sys.llc().capacityLines());
    const std::uint64_t r0 = m->sys.dramCtrl().stats().reads;
    const double ns = medianNsPerOp(kStream, [&](unsigned r) {
        m->readLines(0, kDram + MiB(512) + r * MiB(16), kStream);
    });
    return {"mem.access_dram_miss_ns", ns,
            frac(m->sys.dramCtrl().stats().reads - r0, kStream * kRounds)};
}

ProbeResult
probeNvmDramCacheHit()
{
    auto m = std::make_unique<Machine>(HtmPolicy::uhtmOpt(2048));
    // 24 MiB: larger than the LLC (so a cyclic walk always misses it),
    // smaller than the 64 MiB DRAM cache (so every line stays there).
    const Addr base = kNvm + MiB(64);
    const std::uint64_t lines = MiB(24) / kLineBytes;
    m->readLines(0, base, lines);
    std::uint64_t pos = 0;
    const std::uint64_t h0 = m->sys.dramCache().stats().hits;
    const double ns = medianNsPerOp(kStream, [&](unsigned) {
        for (std::uint64_t i = 0; i < kStream; ++i) {
            m->access(0, base + pos * kLineBytes, false);
            pos = (pos + 1) % lines;
        }
    });
    return {"mem.access_nvm_dcache_hit_ns", ns,
            frac(m->sys.dramCache().stats().hits - h0, kStream * kRounds)};
}

ProbeResult
probeNvmMiss()
{
    auto m = std::make_unique<Machine>(HtmPolicy::uhtmOpt(2048));
    const std::uint64_t r0 = m->sys.nvmCtrl().stats().reads;
    const double ns = medianNsPerOp(kStream, [&](unsigned r) {
        m->readLines(0, kNvm + MiB(1024) + r * MiB(16), kStream);
    });
    return {"mem.access_nvm_miss_ns", ns,
            frac(m->sys.nvmCtrl().stats().reads - r0, kStream * kRounds)};
}

/**
 * LLC misses of a non-transactional core while kLive transactions of
 * the same domain are live and overflowed (their lines were pushed out
 * of the LLC into their signatures), so every miss runs the off-chip
 * conflict check.
 */
ProbeResult
probeOffChipCheck()
{
    constexpr unsigned kLive = 4;
    auto m = std::make_unique<Machine>(HtmPolicy::uhtmOpt(2048));
    for (CoreId c = 1; c <= kLive; ++c) {
        m->sys.beginTx(c, m->dom, 0);
        const Addr mine = kNvm + MiB(512) + c * KiB(64);
        for (unsigned j = 0; j < 16; ++j)
            m->access(c, mine + j * kLineBytes, j >= 8);
    }
    // Stream 20 MiB through the LLC to evict every transactional line.
    m->readLines(0, kDram + MiB(256), MiB(20) / kLineBytes);
    const std::uint64_t p0 = m->sys.stats().summaryProbes;
    const bool overflowed = m->sys.stats().overflowedTxs == kLive;
    const double ns = medianNsPerOp(kStream, [&](unsigned r) {
        m->readLines(0, kDram + MiB(1024) + r * MiB(16), kStream);
    });
    unsigned live = 0;
    for (CoreId c = 1; c <= kLive; ++c)
        live += m->sys.currentTx(c) && !m->sys.abortPending(c) ? 1 : 0;
    const double cls =
        overflowed ? frac(m->sys.stats().summaryProbes - p0,
                          kStream * kRounds) *
                         frac(live, kLive)
                   : 0.0;
    return {"htm.access_offchip_check_ns", ns, cls};
}

/** Transactional stores to L1-resident NVM lines (redo append each). */
ProbeResult
probeTxNvmWrite()
{
    constexpr unsigned kLines = 32, kIters = 2000;
    auto m = std::make_unique<Machine>(HtmPolicy::uhtmOpt(2048));
    const Addr base = kNvm + MiB(256);
    m->readLines(0, base, kLines);
    const std::uint64_t a0 = m->sys.redoLog().stats().appends;
    std::vector<double> v;
    for (unsigned r = 0; r < kRounds; ++r) {
        double ns = 0.0;
        for (unsigned it = 0; it < kIters; ++it) {
            m->sys.beginTx(0, m->dom, 0);
            const auto t0 = Clock::now();
            for (unsigned j = 0; j < kLines; ++j)
                m->access(0, base + j * kLineBytes, true);
            ns += nsSince(t0);
            m->eq.runUntil(m->sys.issueCommit(0));
        }
        v.push_back(ns / (kLines * kIters));
    }
    std::sort(v.begin(), v.end());
    return {"htm.tx_nvm_write_ns", v[v.size() / 2],
            frac(m->sys.redoLog().stats().appends - a0,
                 std::uint64_t(kLines) * kIters * kRounds)};
}

/** Commit (or abort) protocol of a transaction that wrote kLines
 *  lines, half DRAM and half NVM; reported per line. */
ProbeResult
probeFinish(bool commit)
{
    constexpr unsigned kLines = 32, kIters = 2000;
    auto m = std::make_unique<Machine>(HtmPolicy::uhtmOpt(2048));
    const Addr dram = kDram + MiB(8), nvm = kNvm + MiB(8);
    const std::uint64_t c0 = m->sys.stats().commits;
    const std::uint64_t a0 = m->sys.stats().totalAborts();
    std::vector<double> v;
    for (unsigned r = 0; r < kRounds; ++r) {
        double ns = 0.0;
        for (unsigned it = 0; it < kIters; ++it) {
            TxDesc *tx = m->sys.beginTx(0, m->dom, 0);
            for (unsigned j = 0; j < kLines / 2; ++j) {
                m->access(0, dram + j * kLineBytes, true);
                m->access(0, nvm + j * kLineBytes, true);
            }
            if (!commit)
                m->sys.requestAbortForTest(tx);
            const auto t0 = Clock::now();
            const Tick done =
                commit ? m->sys.issueCommit(0) : m->sys.issueAbort(0);
            ns += nsSince(t0);
            m->eq.runUntil(done);
        }
        v.push_back(ns / (kLines * kIters));
    }
    std::sort(v.begin(), v.end());
    const std::uint64_t done = commit
                                   ? m->sys.stats().commits - c0
                                   : m->sys.stats().totalAborts() - a0;
    return {commit ? "htm.commit_ns_per_line" : "htm.abort_ns_per_line",
            v[v.size() / 2], frac(done, std::uint64_t(kIters) * kRounds)};
}

/** Schedule + dispatch of a trivial event, 64 pending at a time. */
ProbeResult
probeEvent()
{
    constexpr std::uint64_t kBatches = 8192, kBatch = 64;
    EventQueue eq;
    std::uint64_t fired = 0;
    const double ns = medianNsPerOp(kBatches * kBatch, [&](unsigned) {
        for (std::uint64_t b = 0; b < kBatches; ++b) {
            for (std::uint64_t j = 0; j < kBatch; ++j)
                eq.schedule(1 + (j * 37) % 997, [&fired] { ++fired; });
            eq.run();
        }
    });
    return {"sim.event_ns", ns, frac(fired, kBatches * kBatch * kRounds)};
}

Task
readLoop(TxContext &ctx, Addr base, std::uint64_t n)
{
    for (std::uint64_t i = 0; i < n; ++i)
        co_await ctx.read64(base + (i & 63) * kLineBytes);
}

/** One co_await'ed MemOp (L1 hit) from a TxContext coroutine: issue,
 *  suspend, completion event, resume. */
ProbeResult
probeMemOpRoundTrip()
{
    auto m = std::make_unique<Machine>(HtmPolicy::uhtmOpt(2048));
    TxContext ctx(m->sys, 0, m->dom);
    const Addr base = kDram + MiB(2);
    m->readLines(0, base, 64);
    const std::uint64_t n = 200000;
    const std::uint64_t h0 = m->sys.l1(0).stats().hits;
    bool finished = true;
    const double ns = medianNsPerOp(n, [&](unsigned) {
        Task t = readLoop(ctx, base, n);
        t.start();
        m->eq.run();
        finished = finished && t.done();
    });
    return {"sim.memop_roundtrip_ns", ns,
            finished ? frac(m->sys.l1(0).stats().hits - h0, n * kRounds)
                     : 0.0};
}

} // namespace

std::vector<ProbeResult>
runProbes()
{
    return {probeEvent(),          probeMemOpRoundTrip(),
            probeL1Hit(),          probeLlcHit(),
            probeDramMiss(),       probeNvmDramCacheHit(),
            probeNvmMiss(),        probeOffChipCheck(),
            probeTxNvmWrite(),     probeFinish(true),
            probeFinish(false)};
}

} // namespace perfbench
