/**
 * @file
 * Golden-JSON determinism gate: every figure's --tiny sweep, serialized
 * exactly the way `uhtm_bench` does it (same seed, same sweep-config
 * echo), must be byte-identical to the goldens committed under
 * bench/golden/tiny/: the results (BENCH_<figure>.json) and the
 * per-job metrics registries (METRICS_<figure>.json). This pins two
 * properties at once:
 *
 *   - determinism: results do not depend on worker count, container
 *     iteration order, hash seeds or allocator state;
 *   - optimization safety: hot-path rewrites (flat containers, summary
 *     signatures, page memos) must not change any simulated outcome.
 *
 * The same results, rendered, must also match the committed text
 * tables TABLE_<figure>.txt byte for byte, and every figure's job list
 * (keys and configs, no simulation) at full, quick and tiny scale and
 * under every FigureOpts override must match bench/golden/jobs.txt.
 *
 * If a change is *intended* to alter results, regenerate the goldens
 * (and the bench/baseline/ files) with:
 *   ./build/tools/uhtm_bench all --tiny --jobs=4 --seed=42 \
 *       --metrics --out=bench/golden/tiny
 * and the rendered tables (dropping the trailing "[figure] N jobs"
 * summary) with:
 *   for f in $(./build/tools/uhtm_bench --list | cut -d' ' -f1); do
 *     ./build/tools/uhtm_bench "$f" --tiny --jobs=4 --seed=42 |
 *         head -n -2 > "bench/golden/tiny/TABLE_$f.txt"
 *   done
 * If a change is intended to alter the job lists, GoldenJobs writes
 * the list it built to jobs.txt.actual in its working directory
 * (build/tests) on a mismatch; copy that over bench/golden/jobs.txt.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "exec/result_sink.hh"
#include "exec/scheduler.hh"
#include "harness/figures.hh"

#ifndef UHTM_SOURCE_DIR
#error "tests/CMakeLists.txt must define UHTM_SOURCE_DIR"
#endif

namespace uhtm
{
namespace
{

std::string
goldenPath(const std::string &fileName)
{
    return std::string(UHTM_SOURCE_DIR) + "/bench/golden/tiny/" +
           fileName;
}

/** What @p fig renders for @p results, as `uhtm_bench` prints it. */
std::string
renderText(const figures::Figure &fig, const figures::FigureOpts &opts,
           const std::vector<exec::JobResult> &results)
{
    std::FILE *f = std::tmpfile();
    if (!f)
        return "";
    fig.render(opts, results, f);
    std::string text(static_cast<std::size_t>(std::ftell(f)), '\0');
    std::rewind(f);
    text.resize(std::fread(text.data(), 1, text.size(), f));
    std::fclose(f);
    return text;
}

bool
readFile(const std::string &path, std::string *out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    *out = ss.str();
    return true;
}

class GoldenFigure : public ::testing::TestWithParam<std::string>
{
};

TEST_P(GoldenFigure, TinyJsonMatchesCommittedGolden)
{
    const figures::Figure *fig = figures::find(GetParam());
    ASSERT_NE(fig, nullptr);

    // Mirror tools/uhtm_bench `--tiny --seed=42` exactly: same opts,
    // same sweep-config echo (bench_cli.cc always emits quick+tiny).
    figures::FigureOpts opts;
    opts.tiny = true;
    opts.seed = 42;
    const auto jobs = fig->makeJobs(opts);
    ASSERT_FALSE(jobs.empty());

    exec::SweepScheduler sched({2, opts.seed});
    const auto results = sched.run(jobs);
    for (const auto &r : results) {
        ASSERT_TRUE(r.ok) << r.key << ": " << r.error;
        EXPECT_EQ(r.metrics.htm.lostUpdates, 0u)
            << r.key << ": a commit overwrote an update it never saw";
        EXPECT_EQ(r.metrics.htm.inclusionViolations, 0u)
            << r.key << ": a transactional L1 hit had no LLC copy";
    }

    const exec::ResultSink sink(
        fig->name, opts.seed,
        {{"quick", "false"}, {"tiny", "true"}});
    const std::string json = sink.json(results);

    std::string golden;
    ASSERT_TRUE(readFile(goldenPath(sink.fileName()), &golden))
        << "missing golden " << goldenPath(sink.fileName())
        << " — regenerate with: ./build/tools/uhtm_bench all --tiny "
           "--jobs=4 --seed=42 --metrics --out=bench/golden/tiny";

    ASSERT_EQ(json.size(), golden.size())
        << "golden size mismatch for " << fig->name;
    EXPECT_TRUE(json == golden)
        << "byte-level mismatch against " << goldenPath(sink.fileName())
        << " — simulated results changed; if intended, regenerate the "
           "goldens and bench/baseline/";

    std::string goldenMetrics;
    ASSERT_TRUE(readFile(goldenPath(sink.metricsFileName()), &goldenMetrics))
        << "missing golden " << goldenPath(sink.metricsFileName())
        << " — see this file's header for the regeneration command";
    EXPECT_TRUE(sink.metricsJson(results) == goldenMetrics)
        << "byte-level mismatch against "
        << goldenPath(sink.metricsFileName())
        << " — a counter changed; if intended, regenerate the goldens";

    const std::string tableFile = "TABLE_" + fig->name + ".txt";
    std::string goldenTable;
    ASSERT_TRUE(readFile(goldenPath(tableFile), &goldenTable))
        << "missing golden " << goldenPath(tableFile)
        << " — see this file's header for the regeneration command";
    EXPECT_EQ(renderText(*fig, opts, results), goldenTable)
        << "rendered table differs from " << goldenPath(tableFile);
}

std::vector<std::string>
figureNames()
{
    std::vector<std::string> names;
    for (const auto &f : figures::all())
        names.push_back(f.name);
    return names;
}

INSTANTIATE_TEST_SUITE_P(Bench, GoldenFigure,
                         ::testing::ValuesIn(figureNames()),
                         [](const auto &info) { return info.param; });

/** "<figure> <key> <name>=<value>..." per job of every figure. */
std::string
jobLines(const figures::FigureOpts &opts)
{
    std::string out;
    for (const auto &fig : figures::all()) {
        for (const exec::Job &job : fig.makeJobs(opts)) {
            out += fig.name + " " + job.key;
            for (const auto &[name, value] : job.config)
                out += " " + name + "=" + value;
            out += "\n";
        }
    }
    return out;
}

TEST(GoldenJobs, EveryScaleMatchesCommittedList)
{
    // Only tiny sweeps run in tier 1; this pins the full and quick
    // axes (footprints, systems, signature sizes, hog and tenant
    // counts, arrival points) and the override paths without
    // simulating anything.
    std::string list;
    for (const char *scale : {"full", "quick", "tiny"}) {
        figures::FigureOpts opts;
        opts.quick = scale == std::string("quick");
        opts.tiny = scale == std::string("tiny");
        list += std::string("# ") + scale + "\n" + jobLines(opts);
        opts.txOverride = 7;
        opts.scanMbOverride = 3;
        opts.tenantsOverride = 3;
        opts.zipfTheta = 0.5;
        opts.rwMix = 0.25;
        opts.arrivalSpec = "mmpp:rate=2e6,burst=4,occ=0.2";
        list += std::string("# ") + scale + " with every override\n" +
                jobLines(opts);
    }

    const std::string path =
        std::string(UHTM_SOURCE_DIR) + "/bench/golden/jobs.txt";
    std::string golden;
    const bool found = readFile(path, &golden);
    if (list != golden)
        std::ofstream("jobs.txt.actual", std::ios::binary) << list;
    ASSERT_TRUE(found) << "missing golden " << path;
    EXPECT_EQ(list, golden) << "full list written to jobs.txt.actual";
}

} // namespace
} // namespace uhtm
