/**
 * @file
 * Component micro-benchmarks (google-benchmark): the hot structures of
 * the simulator itself — bloom signatures, cache allocation, backing
 * store, line maps and the log areas. Event dispatch and the L1 hit
 * path are timed end to end by perfbench/probes.cc instead.
 */

#include <benchmark/benchmark.h>

#include "htm/signature.hh"
#include "htm/tss.hh"
#include "mem/backing_store.hh"
#include "mem/cache.hh"
#include "mem/redo_log.hh"
#include "mem/undo_log.hh"
#include "sim/line_map.hh"
#include "sim/random.hh"
#include "sim/small_vec.hh"

using namespace uhtm;

static void
BM_SignatureInsert(benchmark::State &state)
{
    BloomSignature sig(static_cast<unsigned>(state.range(0)), 4);
    Rng rng(1);
    for (auto _ : state)
        sig.insert(rng.next() << kLineShift);
}
BENCHMARK(BM_SignatureInsert)->Arg(512)->Arg(2048)->Arg(4096);

static void
BM_SignatureCheck(benchmark::State &state)
{
    BloomSignature sig(static_cast<unsigned>(state.range(0)), 4);
    Rng rng(1);
    for (int i = 0; i < 1000; ++i)
        sig.insert(rng.next() << kLineShift);
    std::uint64_t hits = 0;
    for (auto _ : state)
        hits += sig.mayContain(rng.next() << kLineShift);
    benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_SignatureCheck)->Arg(512)->Arg(2048)->Arg(4096);

static void
BM_CacheAllocateEvict(benchmark::State &state)
{
    Cache cache("bm", KiB(64), 8);
    bool had;
    Addr a = 0;
    for (auto _ : state) {
        cache.install(cache.victimFor(a, had), a);
        a += kLineBytes;
    }
}
BENCHMARK(BM_CacheAllocateEvict);

static void
BM_BackingStoreWrite64(benchmark::State &state)
{
    BackingStore store;
    Rng rng(3);
    for (auto _ : state)
        store.write64((rng.next() % MiB(64)) & ~7ull, 42);
}
BENCHMARK(BM_BackingStoreWrite64);

static void
BM_UndoLogAppendRestore(benchmark::State &state)
{
    UndoLogArea log(MiB(256));
    std::array<std::uint8_t, kLineBytes> data{};
    std::uint64_t tx = 1;
    for (auto _ : state) {
        for (Addr line = 0; line < 64 * kLineBytes; line += kLineBytes)
            log.append(tx, line, data);
        benchmark::DoNotOptimize(log.restore(tx));
        ++tx;
    }
}
BENCHMARK(BM_UndoLogAppendRestore);

static void
BM_RedoLogAppendReplay(benchmark::State &state)
{
    RedoLogArea log(MiB(256));
    BackingStore image;
    std::array<std::uint8_t, kLineBytes> data{};
    std::uint64_t tx = 1;
    for (auto _ : state) {
        for (Addr line = 0; line < 64 * kLineBytes; line += kLineBytes)
            log.append(tx, line, data, 100);
        log.commit(tx, 200);
        ++tx;
        if ((tx & 0xff) == 0) {
            log.replayCommitted(image, 1u << 30);
            log.reset();
        }
    }
}
BENCHMARK(BM_RedoLogAppendReplay);

// ---- hot-path structures (see DESIGN.md "Hot-path architecture") ----

/** LineMap emplace/find: the TxDesc write-buffer access pattern. */
static void
BM_LineMapEmplaceFind(benchmark::State &state)
{
    const std::uint64_t lines = static_cast<std::uint64_t>(state.range(0));
    for (auto _ : state) {
        LineMap<std::uint64_t> m;
        Rng rng(11);
        for (std::uint64_t i = 0; i < lines; ++i) {
            const Addr line = (rng.next() % lines) << kLineShift;
            auto it = m.find(line);
            if (it == m.end())
                m.emplace(line, i);
            else
                benchmark::DoNotOptimize(it->second);
        }
        benchmark::DoNotOptimize(m.size());
    }
}
BENCHMARK(BM_LineMapEmplaceFind)->Arg(64)->Arg(1024)->Arg(16384);

/** LineSet membership churn: the read/write-set pattern. */
static void
BM_LineSetInsertContains(benchmark::State &state)
{
    const std::uint64_t lines = static_cast<std::uint64_t>(state.range(0));
    for (auto _ : state) {
        LineSet s;
        Rng rng(13);
        std::uint64_t members = 0;
        for (std::uint64_t i = 0; i < lines * 4; ++i) {
            const Addr line = (rng.next() % lines) << kLineShift;
            members += s.contains(line) ? 1 : 0;
            s.insert(line);
        }
        benchmark::DoNotOptimize(members);
    }
}
BENCHMARK(BM_LineSetInsertContains)->Arg(64)->Arg(4096);

/** LineMap erase churn (overflow-list maintenance pattern). */
static void
BM_LineMapChurn(benchmark::State &state)
{
    LineMap<std::uint64_t> m;
    Rng rng(17);
    for (auto _ : state) {
        const Addr line = (rng.next() % 4096) << kLineShift;
        if (!m.emplace(line, 1).second)
            m.erase(line);
    }
    benchmark::DoNotOptimize(m.size());
}
BENCHMARK(BM_LineMapChurn);

/** Page-local sequential reads: exercises the MRU page memo. */
static void
BM_BackingStoreSequentialRead64(benchmark::State &state)
{
    BackingStore store;
    for (Addr a = 0; a < MiB(1); a += 8)
        store.write64(a, a);
    Addr a = 0;
    std::uint64_t sum = 0;
    for (auto _ : state) {
        sum += store.read64(a);
        a = (a + 8) % MiB(1);
    }
    benchmark::DoNotOptimize(sum);
}
BENCHMARK(BM_BackingStoreSequentialRead64);

/** Line reads (the functional half of every simulated store). */
static void
BM_BackingStoreReadLine(benchmark::State &state)
{
    BackingStore store;
    for (Addr a = 0; a < MiB(1); a += 8)
        store.write64(a, a);
    Rng rng(19);
    std::array<std::uint8_t, kLineBytes> buf;
    for (auto _ : state) {
        store.readLine((rng.next() % (MiB(1) / kLineBytes)) << kLineShift,
                       buf.data());
        benchmark::DoNotOptimize(buf);
    }
}
BENCHMARK(BM_BackingStoreReadLine);

/** CacheLine copy cost with <=2 readers: SmallVec stays inline. */
static void
BM_CacheLineCopyWithReaders(benchmark::State &state)
{
    CacheLine src;
    src.tag = 0x1000;
    for (int i = 0; i < static_cast<int>(state.range(0)); ++i)
        src.addTxReader(static_cast<TxId>(i + 1));
    for (auto _ : state) {
        CacheLine copy = src;
        benchmark::DoNotOptimize(copy.txReaders.size());
    }
}
BENCHMARK(BM_CacheLineCopyWithReaders)->Arg(0)->Arg(2)->Arg(6);

/**
 * The LLC-miss conflict-check fast path: one summary probe short-cuts
 * the per-transaction signature walk. Arg = active transactions.
 */
static void
BM_SummaryProbeMiss(benchmark::State &state)
{
    const int txs = static_cast<int>(state.range(0));
    Tss tss;
    tss.configureSummaries(2048, 4);
    const DomainId dom = tss.createDomain("bm");
    std::vector<std::unique_ptr<TxDesc>> descs;
    Rng rng(23);
    for (int i = 0; i < txs; ++i) {
        descs.push_back(std::make_unique<TxDesc>(
            static_cast<TxId>(i + 1), static_cast<CoreId>(i), dom, 2048,
            4));
        tss.add(descs.back().get());
        for (int j = 0; j < 32; ++j) {
            const Addr line = (rng.next() & 0xffff) << kLineShift;
            descs.back()->writeSig.insert(line);
            tss.noteSigInsert(dom, line);
        }
    }
    // Probe lines outside the inserted range: mostly summary misses.
    std::uint64_t hits = 0;
    for (auto _ : state) {
        const Addr line = ((rng.next() & 0xffff) | 0x100000) << kLineShift;
        hits += tss.summaryMayContain(dom, line);
    }
    benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_SummaryProbeMiss)->Arg(4)->Arg(16)->Arg(64);

/** The walk the summary probe replaces, for comparison. */
static void
BM_PerTxSignatureWalk(benchmark::State &state)
{
    const int txs = static_cast<int>(state.range(0));
    std::vector<std::unique_ptr<TxDesc>> descs;
    Rng rng(23);
    for (int i = 0; i < txs; ++i) {
        descs.push_back(std::make_unique<TxDesc>(
            static_cast<TxId>(i + 1), static_cast<CoreId>(i), 0, 2048, 4));
        for (int j = 0; j < 32; ++j)
            descs.back()->writeSig.insert((rng.next() & 0xffff)
                                          << kLineShift);
    }
    std::uint64_t hits = 0;
    for (auto _ : state) {
        const Addr line = ((rng.next() & 0xffff) | 0x100000) << kLineShift;
        for (const auto &d : descs) {
            hits += d->readSig.mayContain(line) ||
                    d->writeSig.mayContain(line);
        }
    }
    benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_PerTxSignatureWalk)->Arg(4)->Arg(16)->Arg(64);

BENCHMARK_MAIN();
