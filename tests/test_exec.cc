/**
 * @file
 * Experiment-execution subsystem tests: SweepScheduler claims jobs in
 * submission order and runs every job exactly once with key-derived
 * seeds and exception isolation, parallel and serial execution
 * produce identical metrics and byte-identical JSON, and the JSON
 * writer / ResultSink emit the exact uhtm-bench-v1 golden bytes for a known input.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <functional>
#include <limits>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>

#include "exec/json.hh"
#include "exec/result_sink.hh"
#include "exec/scheduler.hh"
#include "harness/experiments.hh"

namespace uhtm::exec
{
namespace
{

Job
countingJob(const std::string &key, std::atomic<int> &counter)
{
    Job j;
    j.key = key;
    j.run = [&counter](std::uint64_t) {
        counter.fetch_add(1);
        return RunMetrics{};
    };
    return j;
}

TEST(SweepScheduler, RunsEveryJobOnceInSubmissionOrder)
{
    std::atomic<int> counter{0};
    std::vector<Job> jobs;
    for (int i = 0; i < 23; ++i)
        jobs.push_back(countingJob("job" + std::to_string(i), counter));

    SweepScheduler sched({4, 42});
    const auto results = sched.run(jobs);
    EXPECT_EQ(counter.load(), 23);
    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(results[i].key, jobs[i].key);
        EXPECT_TRUE(results[i].ok);
    }
}

/** @p n jobs keyed "job<i>"; job i calls @p body(i). */
std::vector<Job>
indexedJobs(std::size_t n, std::function<void(std::size_t)> body)
{
    std::vector<Job> jobs(n);
    for (std::size_t i = 0; i < n; ++i) {
        jobs[i].key = "job" + std::to_string(i);
        jobs[i].run = [body, i](std::uint64_t) {
            body(i);
            return RunMetrics{};
        };
    }
    return jobs;
}

TEST(SweepScheduler, ResolvesThreadCount)
{
    EXPECT_EQ(SweepScheduler({1, 42}).threads(), 1u);
    EXPECT_EQ(SweepScheduler({7, 42}).threads(), 7u);
    EXPECT_EQ(SweepScheduler({0, 42}).threads(),
              std::max(1u, std::thread::hardware_concurrency()));
}

TEST(SweepScheduler, RunsEveryJobExactlyOnce)
{
    constexpr std::size_t kN = 237;
    std::vector<std::atomic<int>> hits(kN);
    const auto results = SweepScheduler({4, 42}).run(
        indexedJobs(kN, [&](std::size_t i) { hits[i].fetch_add(1); }));
    ASSERT_EQ(results.size(), kN);
    for (std::size_t i = 0; i < kN; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "job " << i;
        EXPECT_TRUE(results[i].ok) << "job " << i;
    }
}

TEST(SweepScheduler, SingleThreadRunsInline)
{
    SweepScheduler sched({1, 42});
    EXPECT_EQ(sched.threads(), 1u);
    const auto caller = std::this_thread::get_id();
    std::vector<std::thread::id> ran(3);
    sched.run(indexedJobs(ran.size(), [&](std::size_t i) {
        ran[i] = std::this_thread::get_id();
    }));
    for (const auto &id : ran)
        EXPECT_EQ(id, caller);
}

TEST(SweepScheduler, ClaimsJobsInSubmissionOrder)
{
    // Job 0 holds one of two workers until the last job has finished,
    // so the other worker alone claims jobs 1..n-1: in submission
    // order, one after the other.
    constexpr std::size_t kN = 8;
    std::mutex m;
    std::condition_variable lastDone;
    bool done = false;
    std::vector<std::size_t> started;
    const auto results =
        SweepScheduler({2, 42}).run(indexedJobs(kN, [&](std::size_t i) {
            std::unique_lock<std::mutex> lock(m);
            if (i == 0) {
                if (!lastDone.wait_for(lock, std::chrono::seconds(30),
                                       [&] { return done; }))
                    throw std::runtime_error("job n-1 never finished");
                return;
            }
            started.push_back(i);
            if (i == kN - 1) {
                done = true;
                lastDone.notify_all();
            }
        }));
    for (const auto &r : results)
        EXPECT_TRUE(r.ok) << r.key << ": " << r.error;
    std::vector<std::size_t> inOrder(kN - 1);
    std::iota(inOrder.begin(), inOrder.end(), 1);
    EXPECT_EQ(started, inOrder);
}

TEST(SweepScheduler, SeedDependsOnKeyNotSubmissionOrderOrThreads)
{
    // Same key -> same seed, regardless of sweep composition.
    const std::uint64_t direct = SweepScheduler::jobSeed(42, "b");

    std::atomic<int> c{0};
    std::vector<Job> fwd = {countingJob("a", c), countingJob("b", c),
                            countingJob("c", c)};
    std::vector<Job> rev = {countingJob("c", c), countingJob("b", c)};

    const auto r1 = SweepScheduler({1, 42}).run(fwd);
    const auto r2 = SweepScheduler({4, 42}).run(rev);
    EXPECT_EQ(r1[1].seed, direct);
    EXPECT_EQ(r2[1].seed, direct);

    // Distinct keys -> distinct seeds; distinct sweep seeds too.
    std::set<std::uint64_t> seeds;
    for (const auto &r : r1)
        seeds.insert(r.seed);
    EXPECT_EQ(seeds.size(), r1.size());
    EXPECT_NE(SweepScheduler::jobSeed(43, "b"), direct);
}

TEST(SweepScheduler, ExceptionInOneJobDoesNotLoseOthers)
{
    std::atomic<int> c{0};
    std::vector<Job> jobs = {countingJob("ok1", c), countingJob("ok2", c)};
    Job bad;
    bad.key = "bad";
    bad.run = [](std::uint64_t) -> RunMetrics {
        throw std::runtime_error("boom");
    };
    jobs.insert(jobs.begin() + 1, bad);
    jobs.push_back(countingJob("ok3", c));

    const auto results = SweepScheduler({4, 42}).run(jobs);
    ASSERT_EQ(results.size(), 4u);
    EXPECT_EQ(c.load(), 3);
    EXPECT_TRUE(results[0].ok);
    EXPECT_FALSE(results[1].ok);
    EXPECT_EQ(results[1].error, "boom");
    EXPECT_TRUE(results[2].ok);
    EXPECT_TRUE(results[3].ok);
}

TEST(SweepScheduler, DuplicateKeysThrow)
{
    std::atomic<int> c{0};
    std::vector<Job> jobs = {countingJob("same", c), countingJob("same", c)};
    EXPECT_THROW(SweepScheduler({1, 42}).run(jobs), std::invalid_argument);
}

/** Miniature but real simulation jobs: three Echo runs on distinct
 *  system presets, small enough for a unit test. */
std::vector<Job>
miniSimJobs()
{
    const std::vector<SystemVariant> systems = {
        {"bounded", HtmPolicy::llcBounded()},
        {"uhtm", HtmPolicy::uhtmOpt(1024)},
        {"ideal", HtmPolicy::ideal()},
    };
    std::vector<Job> jobs;
    for (const auto &sys : systems) {
        Job j;
        j.key = "echo/" + sys.label;
        j.config = {{"system", sys.label}};
        HtmPolicy policy = sys.policy;
        j.run = [policy](std::uint64_t seed) {
            EchoParams p;
            p.txPerMaster = 2;
            p.opsPerTx = 8;
            p.keyspace = 1 << 14;
            p.prefillKeys = 1 << 9;
            p.seed = seed;
            return experiments::runEcho(MachineConfig::tiny(), policy, p,
                                        /*clients=*/2, /*hogs=*/0, seed);
        };
        jobs.push_back(std::move(j));
    }
    return jobs;
}

TEST(SweepScheduler, ParallelMatchesSerialOnRealSimulations)
{
    const auto serial = SweepScheduler({1, 42}).run(miniSimJobs());
    const auto parallel = SweepScheduler({4, 42}).run(miniSimJobs());

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        ASSERT_TRUE(serial[i].ok) << serial[i].key << ": "
                                  << serial[i].error;
        ASSERT_TRUE(parallel[i].ok);
        EXPECT_EQ(serial[i].seed, parallel[i].seed);
        EXPECT_EQ(serial[i].metrics.endTick, parallel[i].metrics.endTick);
        EXPECT_EQ(serial[i].metrics.committedTxs,
                  parallel[i].metrics.committedTxs);
        EXPECT_EQ(serial[i].metrics.committedOps,
                  parallel[i].metrics.committedOps);
        EXPECT_EQ(serial[i].metrics.htm.txBegins,
                  parallel[i].metrics.htm.txBegins);
        EXPECT_EQ(serial[i].metrics.htm.totalAborts(),
                  parallel[i].metrics.htm.totalAborts());
        EXPECT_EQ(serial[i].metrics.opsPerSec, parallel[i].metrics.opsPerSec);
    }

    // The full serialized file must be byte-identical as well — this is
    // the property CI relies on to diff BENCH_*.json across runs.
    const ResultSink sink("exec-test", 42, {{"tiny", "true"}});
    EXPECT_EQ(sink.json(serial), sink.json(parallel));

    // Work happened: the simulations committed transactions.
    EXPECT_GT(serial[0].metrics.committedTxs, 0u);
}

TEST(JsonWriter, FormatsNestedStructures)
{
    JsonWriter w;
    w.beginObject();
    w.field("str", "a\"b\\c\nd");
    w.field("int", std::uint64_t{18446744073709551615ull});
    w.field("neg_double", -1.5);
    w.field("flag", true);
    w.key("arr");
    w.beginArray();
    w.value(std::uint64_t{1});
    w.value("two");
    w.beginObject();
    w.endObject();
    w.endArray();
    w.key("empty");
    w.beginObject();
    w.endObject();
    w.endObject();

    EXPECT_EQ(w.str(),
              "{\n"
              "  \"str\": \"a\\\"b\\\\c\\nd\",\n"
              "  \"int\": 18446744073709551615,\n"
              "  \"neg_double\": -1.5,\n"
              "  \"flag\": true,\n"
              "  \"arr\": [\n"
              "    1,\n"
              "    \"two\",\n"
              "    {}\n"
              "  ],\n"
              "  \"empty\": {}\n"
              "}");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull)
{
    JsonWriter w;
    w.beginArray();
    w.value(std::numeric_limits<double>::infinity());
    w.value(std::nan(""));
    w.endArray();
    EXPECT_EQ(w.str(), "[\n  null,\n  null\n]");
}

/** Golden bytes for the uhtm-bench-v1 schema: one ok job with known
 *  metrics and one failed job. Any change here is a schema change and
 *  must bump the schema version string. */
TEST(ResultSink, GoldenJson)
{
    JobResult ok;
    ok.key = "j/ok";
    ok.config = {{"system", "uhtm"}};
    ok.seed = 99;
    ok.ok = true;
    ok.metrics.endTick = 100;
    ok.metrics.simSeconds = 0.5;
    ok.metrics.committedTxs = 3;
    ok.metrics.committedOps = 30;
    ok.metrics.txPerSec = 6;
    ok.metrics.opsPerSec = 60;
    ok.metrics.domainOps[0] = 30;
    ok.metrics.extra.set("x", 1.5);

    JobResult bad;
    bad.key = "j/bad";
    bad.seed = 7;
    bad.ok = false;
    bad.error = "boom";

    const ResultSink sink("golden", 42, {{"quick", "true"}});
    EXPECT_EQ(sink.json({ok, bad}),
              "{\n"
              "  \"schema\": \"uhtm-bench-v1\",\n"
              "  \"bench\": \"golden\",\n"
              "  \"sweep_seed\": 42,\n"
              "  \"sweep_config\": {\n"
              "    \"quick\": \"true\"\n"
              "  },\n"
              "  \"jobs\": [\n"
              "    {\n"
              "      \"key\": \"j/ok\",\n"
              "      \"seed\": 99,\n"
              "      \"config\": {\n"
              "        \"system\": \"uhtm\"\n"
              "      },\n"
              "      \"ok\": true,\n"
              "      \"metrics\": {\n"
              "        \"end_tick\": 100,\n"
              "        \"sim_seconds\": 0.5,\n"
              "        \"committed_txs\": 3,\n"
              "        \"committed_ops\": 30,\n"
              "        \"tx_per_sec\": 6,\n"
              "        \"ops_per_sec\": 60,\n"
              "        \"abort_rate\": 0,\n"
              "        \"htm\": {\n"
              "          \"tx_begins\": 0,\n"
              "          \"commits\": 0,\n"
              "          \"serialized_commits\": 0,\n"
              "          \"lock_acquisitions\": 0,\n"
              "          \"total_aborts\": 0,\n"
              "          \"aborts\": {\n"
              "            \"true-onchip\": 0,\n"
              "            \"true-offchip\": 0,\n"
              "            \"false-positive\": 0,\n"
              "            \"cross-domain-false\": 0,\n"
              "            \"capacity\": 0,\n"
              "            \"lock-preempt\": 0,\n"
              "            \"explicit\": 0\n"
              "          },\n"
              "          \"overflowed_txs\": 0,\n"
              "          \"llc_tx_evictions\": 0,\n"
              "          \"llc_tx_write_evictions\": 0,\n"
              "          \"llc_tx_read_evictions\": 0,\n"
              "          \"sig_checks\": 0,\n"
              "          \"sig_hits\": 0,\n"
              "          \"sig_false_hits\": 0,\n"
              "          \"context_switches\": 0,\n"
              "          \"log_expansions\": 0\n"
              "        },\n"
              "        \"latency_ns\": {\n"
              "          \"commit_protocol\": {\n"
              "            \"count\": 0,\n"
              "            \"mean\": 0,\n"
              "            \"min\": 0,\n"
              "            \"max\": 0\n"
              "          },\n"
              "          \"abort_protocol\": {\n"
              "            \"count\": 0,\n"
              "            \"mean\": 0,\n"
              "            \"min\": 0,\n"
              "            \"max\": 0\n"
              "          },\n"
              "          \"tx_footprint_bytes\": {\n"
              "            \"count\": 0,\n"
              "            \"mean\": 0,\n"
              "            \"min\": 0,\n"
              "            \"max\": 0\n"
              "          },\n"
              "          \"sig_inserts_per_tx\": {\n"
              "            \"count\": 0,\n"
              "            \"mean\": 0,\n"
              "            \"min\": 0,\n"
              "            \"max\": 0\n"
              "          }\n"
              "        },\n"
              "        \"domains\": [\n"
              "          {\n"
              "            \"id\": 0,\n"
              "            \"ops\": 30,\n"
              "            \"ops_per_sec\": 60,\n"
              "            \"end_tick\": 0\n"
              "          }\n"
              "        ],\n"
              "        \"extra\": {\n"
              "          \"x\": 1.5\n"
              "        }\n"
              "      }\n"
              "    },\n"
              "    {\n"
              "      \"key\": \"j/bad\",\n"
              "      \"seed\": 7,\n"
              "      \"config\": {},\n"
              "      \"ok\": false,\n"
              "      \"error\": \"boom\"\n"
              "    }\n"
              "  ]\n"
              "}\n");
}

TEST(ResultSink, WriteToCreatesDirectoryAndFile)
{
    const ResultSink sink("writeto", 1, {});
    const std::string dir =
        ::testing::TempDir() + "/uhtm_exec_test/nested";
    std::string err;
    const std::string path = sink.writeTo(dir, {}, &err);
    ASSERT_FALSE(path.empty()) << err;
    EXPECT_NE(path.find("BENCH_writeto.json"), std::string::npos);
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[64] = {};
    const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    EXPECT_GT(n, 0u);
    EXPECT_EQ(std::string(buf).find("{\n  \"schema\": \"uhtm-bench-v1\""),
              0u);
}

} // namespace
} // namespace uhtm::exec
