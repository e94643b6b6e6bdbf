#include "exec/scheduler.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "sim/random.hh"

namespace uhtm::exec
{

unsigned
SweepScheduler::resolveThreadCount(unsigned requested)
{
    if (requested > 0)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

std::uint64_t
SweepScheduler::jobSeed(std::uint64_t sweepSeed, const std::string &key)
{
    // FNV-1a over the key, then one SplitMix64 round against the sweep
    // seed so nearby keys don't produce correlated xoshiro states.
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : key) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    std::uint64_t s = sweepSeed ^ h;
    return splitmix64(s);
}

std::vector<JobResult>
SweepScheduler::run(const std::vector<Job> &jobs)
{
    std::unordered_set<std::string> keys;
    for (const Job &j : jobs)
        if (!keys.insert(j.key).second)
            throw std::invalid_argument("duplicate job key: " + j.key);

    std::vector<JobResult> results(jobs.size());
    auto runOne = [&](std::size_t i) {
        const Job &job = jobs[i];
        JobResult &r = results[i];
        r.key = job.key;
        r.config = job.config;
        r.seed = jobSeed(_opts.sweepSeed, job.key);
        const auto t0 = std::chrono::steady_clock::now();
        try {
            r.metrics = job.run(r.seed);
            r.ok = true;
        } catch (const std::exception &e) {
            r.error = e.what();
        } catch (...) {
            r.error = "unknown exception";
        }
        r.hostSeconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count();
    };

    // One cursor: every worker claims the next job in submission order.
    const std::size_t n = jobs.size();
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        std::size_t i;
        while ((i = next.fetch_add(1)) < n)
            runOne(i);
    };
    const std::size_t workers = std::min<std::size_t>(_threads, n);
    std::vector<std::thread> threads;
    for (std::size_t w = 1; w < workers; ++w)
        threads.emplace_back(worker);
    worker();
    for (auto &t : threads)
        t.join();
    return results;
}

} // namespace uhtm::exec
