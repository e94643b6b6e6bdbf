/**
 * @file
 * Benchmark smoke tests: every figure in the registry builds its jobs
 * at --tiny scale, runs them on a 2-thread scheduler, renders its text
 * table and serializes to JSON — in-process, fast enough for tier 1.
 * This is what keeps `uhtm_bench` from rotting while the simulator
 * underneath it evolves.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "exec/result_sink.hh"
#include "exec/scheduler.hh"
#include "harness/bench_cli.hh"
#include "harness/figures.hh"

namespace uhtm
{
namespace
{

figures::FigureOpts
tinyOpts()
{
    figures::FigureOpts o;
    o.tiny = true;
    o.seed = 42;
    return o;
}

class EveryFigure : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EveryFigure, TinySweepRunsRendersAndSerializes)
{
    const figures::Figure *fig = figures::find(GetParam());
    ASSERT_NE(fig, nullptr);

    const auto opts = tinyOpts();
    const std::vector<exec::Job> jobs = fig->makeJobs(opts);
    ASSERT_FALSE(jobs.empty());

    exec::SweepScheduler sched({2, opts.seed});
    const auto results = sched.run(jobs);
    ASSERT_EQ(results.size(), jobs.size());
    for (const auto &r : results)
        EXPECT_TRUE(r.ok) << r.key << ": " << r.error;

    // Render the text table into a scratch file, not the test log.
    std::FILE *sinkFile = std::tmpfile();
    ASSERT_NE(sinkFile, nullptr);
    fig->render(opts, results, sinkFile);
    EXPECT_GT(std::ftell(sinkFile), 0) << "render produced no output";
    std::fclose(sinkFile);

    const exec::ResultSink sink(fig->name, opts.seed, {{"tiny", "true"}});
    const std::string json = sink.json(results);
    EXPECT_EQ(json.find("{\n  \"schema\": \"uhtm-bench-v1\""), 0u);
    EXPECT_NE(json.find("\"bench\": \"" + fig->name + "\""),
              std::string::npos);
}

std::vector<std::string>
figureNames()
{
    std::vector<std::string> names;
    for (const auto &f : figures::all())
        names.push_back(f.name);
    return names;
}

INSTANTIATE_TEST_SUITE_P(Bench, EveryFigure,
                         ::testing::ValuesIn(figureNames()),
                         [](const auto &info) { return info.param; });

/** Render must tolerate filtered sweeps with most keys missing. */
TEST(BenchSmoke, RenderToleratesFilteredResults)
{
    const auto opts = tinyOpts();
    for (const auto &fig : figures::all()) {
        auto jobs = fig.makeJobs(opts);
        jobs.resize(1); // as if --filter matched a single job
        exec::SweepScheduler sched({1, opts.seed});
        const auto results = sched.run(jobs);
        std::FILE *sinkFile = std::tmpfile();
        ASSERT_NE(sinkFile, nullptr);
        fig.render(opts, results, sinkFile); // must not crash
        std::fclose(sinkFile);
    }
}

/** Unsigned value of every `"<name>": N` field at @p indent spaces. */
std::vector<std::uint64_t>
u64Fields(const std::string &json, const std::string &name, int indent)
{
    std::string tag = "\n";
    tag.append(static_cast<std::size_t>(indent), ' ');
    tag += "\"" + name + "\": ";
    std::vector<std::uint64_t> out;
    for (std::size_t p = json.find(tag); p != std::string::npos;
         p = json.find(tag, p + 1))
        out.push_back(std::stoull(json.substr(p + tag.size())));
    return out;
}

/** The "per_job" rows' keys, in file order. */
std::vector<std::string>
rowKeys(const std::string &json)
{
    const std::string tag = "\n      \"key\": \"";
    std::vector<std::string> keys;
    for (std::size_t p = json.find(tag); p != std::string::npos;
         p = json.find(tag, p + 1)) {
        const std::size_t b = p + tag.size();
        keys.push_back(json.substr(b, json.find('"', b) - b));
    }
    return keys;
}

/** Run tiny fig6 through the CLI path with --wall; TIMING_* text. */
std::string
runTimed(const std::string &dir, unsigned threads)
{
    const figures::Figure *fig = figures::find("fig6");
    EXPECT_NE(fig, nullptr);
    BenchCliOpts opts;
    opts.fig = tinyOpts();
    opts.jobs = threads;
    opts.outDir = dir;
    opts.wall = true;
    EXPECT_EQ(runFigure(*fig, opts), 0);
    std::ifstream in(std::filesystem::path(dir) / "TIMING_fig6.json");
    EXPECT_TRUE(in.good()) << dir;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** TIMING_<figure>.json: one row per job, in submission order, for
 *  every --jobs value; the top-level counts agree with the rows. */
TEST(BenchSmoke, TimingSidecarRowsMatchJobsAtAnyThreadCount)
{
    const std::string base = ::testing::TempDir();
    std::vector<std::string> keys[2];
    const unsigned threads[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
        const std::string json = runTimed(
            base + "/uhtm_timing_j" + std::to_string(threads[i]),
            threads[i]);
        EXPECT_NE(json.find("\n  \"wall_seconds\": "), std::string::npos);
        keys[i] = rowKeys(json);
        EXPECT_GT(keys[i].size(), 1u) << "need a multi-job figure";

        const auto jobs = u64Fields(json, "jobs", 2);
        ASSERT_EQ(jobs.size(), 1u);
        EXPECT_EQ(jobs[0], keys[i].size());

        const auto total = u64Fields(json, "events_executed", 2);
        const auto rows = u64Fields(json, "events_executed", 6);
        ASSERT_EQ(total.size(), 1u);
        EXPECT_EQ(rows.size(), keys[i].size());
        std::uint64_t sum = 0;
        for (std::uint64_t e : rows)
            sum += e;
        EXPECT_EQ(total[0], sum);
        EXPECT_GT(sum, 0u);
    }
    EXPECT_EQ(keys[0], keys[1]);
}

} // namespace
} // namespace uhtm
