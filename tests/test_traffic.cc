/**
 * @file
 * Traffic-subsystem tests: statistical sanity of the key-popularity
 * and arrival generators (empirical vs analytic distributions),
 * byte-level determinism of the request stream and the service figure
 * across scheduler thread counts, per-tenant abort attribution summing
 * exactly to the run's abort total, rejection of a malformed arrival
 * spec, and the figure-registry collision guard.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/result_sink.hh"
#include "exec/scheduler.hh"
#include "harness/experiments.hh"
#include "harness/figures.hh"
#include "obs/abort_profile.hh"
#include "sim/random.hh"
#include "traffic/arrivals.hh"
#include "traffic/detmath.hh"
#include "traffic/keygen.hh"
#include "traffic/lifecycle.hh"
#include "traffic/service.hh"

namespace uhtm
{
namespace
{

using traffic::ArrivalKind;
using traffic::ArrivalProcess;
using traffic::ArrivalSpec;
using traffic::KeyGenerator;
using traffic::ServiceParams;

/* ---------------- deterministic math ---------------- */

TEST(DetMath, LogExpPowAgreeWithLibm)
{
    for (double x : {0.001, 0.3, 1.0, 2.5, 17.0, 1e6}) {
        EXPECT_NEAR(traffic::detLog(x), std::log(x),
                    1e-12 * (1.0 + std::fabs(std::log(x))))
            << "x=" << x;
    }
    for (double x : {-20.0, -1.5, 0.0, 0.5, 3.0, 20.0}) {
        EXPECT_NEAR(traffic::detExp(x), std::exp(x),
                    1e-12 * std::exp(x))
            << "x=" << x;
    }
    for (double b : {1.0, 2.0, 100.0, 12345.0}) {
        EXPECT_NEAR(traffic::detPow(b, -0.99), std::pow(b, -0.99),
                    1e-12 * std::pow(b, -0.99))
            << "b=" << b;
    }
}

/* ---------------- key popularity ---------------- */

TEST(KeyGenerator, ZipfEmpiricalMatchesAnalyticCdf)
{
    const std::uint64_t n = 1024;
    const KeyGenerator gen(n, 0.99);
    Rng rng(12345);
    const std::uint64_t draws = 200000;
    std::vector<std::uint64_t> counts(n, 0);
    for (std::uint64_t i = 0; i < draws; ++i) {
        const std::uint64_t r = gen.sample(rng);
        ASSERT_LT(r, n);
        ++counts[r];
    }
    // Empirical CDF vs analytic at several checkpoints: 200k draws
    // put the expected per-point error well under 1%.
    std::uint64_t cum = 0;
    std::uint64_t next_check = 1;
    for (std::uint64_t r = 0; r < n; ++r) {
        cum += counts[r];
        if (r + 1 == next_check || r + 1 == n) {
            const double emp =
                static_cast<double>(cum) / static_cast<double>(draws);
            EXPECT_NEAR(emp, gen.cdf(r), 0.01) << "rank " << r;
            next_check *= 4;
        }
    }
    // Zipf 0.99 over 1024 keys: rank 0 alone carries ~13% of all
    // draws; a uniform generator would give it under 0.1%.
    EXPECT_GT(gen.cdf(0), 0.10);
    EXPECT_NEAR(static_cast<double>(counts[0]) /
                    static_cast<double>(draws),
                gen.cdf(0), 0.01);
}

TEST(KeyGenerator, UniformCoversAllRanksEvenly)
{
    const std::uint64_t n = 64;
    const KeyGenerator gen(n, 0.0);
    Rng rng(7);
    std::vector<std::uint64_t> counts(n, 0);
    const std::uint64_t draws = 64000;
    for (std::uint64_t i = 0; i < draws; ++i)
        ++counts[gen.sample(rng)];
    for (std::uint64_t r = 0; r < n; ++r) {
        EXPECT_NEAR(static_cast<double>(counts[r]) /
                        static_cast<double>(draws),
                    1.0 / static_cast<double>(n), 0.005)
            << "rank " << r;
    }
}

TEST(KeyGenerator, SameSeedSameSequence)
{
    const KeyGenerator gen(512, 0.99);
    Rng a(99), b(99), c(100);
    bool anyDiff = false;
    for (int i = 0; i < 1000; ++i) {
        const auto ra = gen.sample(a);
        EXPECT_EQ(ra, gen.sample(b));
        anyDiff |= ra != gen.sample(c);
    }
    EXPECT_TRUE(anyDiff); // different seed actually changes the stream
}

TEST(KeyGenerator, ScrambleRankIsBijective)
{
    const std::uint64_t space = 256;
    std::vector<bool> seen(space + 1, false);
    for (std::uint64_t r = 0; r < space; ++r) {
        const std::uint64_t k = traffic::scrambleRank(r, space);
        ASSERT_GE(k, 1u);
        ASSERT_LE(k, space);
        EXPECT_FALSE(seen[k]) << "collision at rank " << r;
        seen[k] = true;
    }
}

/* ---------------- arrival processes ---------------- */

TEST(ArrivalSpec, ParseRoundTripsAndRejectsGarbage)
{
    for (const char *text :
         {"fixed:rate=2e+06", "poisson:rate=1e+06",
          "mmpp:rate=1e+06,burst=4,occ=0.2,dwell=20000"}) {
        ArrivalSpec s;
        std::string err;
        ASSERT_TRUE(ArrivalSpec::parse(text, &s, &err)) << err;
        EXPECT_EQ(s.spec(), text);
        ArrivalSpec again;
        ASSERT_TRUE(ArrivalSpec::parse(s.spec(), &again, &err)) << err;
        EXPECT_EQ(again.spec(), s.spec());
    }
    ArrivalSpec s;
    std::string err;
    EXPECT_FALSE(ArrivalSpec::parse("bogus:rate=1", &s, &err));
    EXPECT_FALSE(ArrivalSpec::parse("poisson:rate=0", &s, &err));
    EXPECT_FALSE(ArrivalSpec::parse("poisson:rate=-5", &s, &err));
    EXPECT_FALSE(ArrivalSpec::parse("mmpp:rate=1e6,occ=1.5", &s, &err));
    EXPECT_FALSE(ArrivalSpec::parse("mmpp:rate=1e6,burst=0.5", &s, &err));
    // occ * burst >= 1 would need a negative idle rate.
    EXPECT_FALSE(
        ArrivalSpec::parse("mmpp:rate=1e6,burst=4,occ=0.3", &s, &err));
    EXPECT_FALSE(ArrivalSpec::parse("poisson:nonsense=1", &s, &err));
}

TEST(ArrivalProcess, FixedRateIsExact)
{
    ArrivalSpec s;
    s.kind = ArrivalKind::Fixed;
    s.ratePerSec = 2e6; // 500ns = 500000 ticks
    ArrivalProcess p(s, 1);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(p.nextGap(), 500000u);
}

TEST(ArrivalProcess, PoissonMeanGapMatchesRate)
{
    ArrivalSpec s;
    s.kind = ArrivalKind::Poisson;
    s.ratePerSec = 1e6; // mean gap 1e6 ticks
    ArrivalProcess p(s, 42);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(p.nextGap());
    const double mean = sum / n;
    EXPECT_NEAR(mean, 1e6, 0.02 * 1e6); // ~0.45% expected se
}

TEST(ArrivalProcess, MmppOccupancyAndRateMatchStationary)
{
    ArrivalSpec s;
    s.kind = ArrivalKind::Mmpp;
    s.ratePerSec = 1e6;
    s.burstFactor = 4.0;
    s.burstFraction = 0.2;
    s.burstDwellNs = 20000.0;
    ArrivalProcess p(s, 7);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(p.nextGap());
    // Long-run mean rate stays the configured rate...
    EXPECT_NEAR(sum / n, 1e6, 0.03 * 1e6);
    // ...and the time-average burst occupancy converges on the
    // stationary dwell fraction.
    EXPECT_NEAR(p.burstOccupancy(), s.burstFraction, 0.03);
}

TEST(ArrivalProcess, SameSeedSameGaps)
{
    ArrivalSpec s;
    s.kind = ArrivalKind::Mmpp;
    s.ratePerSec = 5e5;
    ArrivalProcess a(s, 11), b(s, 11), c(s, 12);
    bool anyDiff = false;
    for (int i = 0; i < 2000; ++i) {
        const Tick ga = a.nextGap();
        EXPECT_EQ(ga, b.nextGap());
        anyDiff |= ga != c.nextGap();
    }
    EXPECT_TRUE(anyDiff);
}

/* ---------------- request stream ---------------- */

ServiceParams
smallParams()
{
    ServiceParams p;
    p.tenants = 3;
    p.workersPerTenant = 1;
    p.requests = 500;
    p.keyspacePerTenant = 1u << 10;
    p.prefillKeys = 64;
    p.valueBytes = 64;
    return p;
}

TEST(RequestStream, PureFunctionOfSeed)
{
    const ServiceParams p = smallParams();
    const auto a = traffic::buildRequestStream(p, 42);
    const auto b = traffic::buildRequestStream(p, 42);
    const auto c = traffic::buildRequestStream(p, 43);
    ASSERT_EQ(a.size(), p.requests);
    EXPECT_TRUE(a == b);
    EXPECT_FALSE(a == c);
}

TEST(RequestStream, ArrivalOrderTenantsAndMix)
{
    const ServiceParams p = smallParams();
    const auto stream = traffic::buildRequestStream(p, 42);
    Tick prev = 0;
    std::vector<std::uint64_t> perTenant(p.tenants, 0);
    std::vector<std::uint64_t> reads(p.tenants, 0);
    for (const auto &req : stream) {
        EXPECT_GE(req.arrival, prev); // nondecreasing timestamps
        prev = req.arrival;
        ASSERT_LT(req.tenant, p.tenants);
        ++perTenant[req.tenant];
        if (req.isRead)
            ++reads[req.tenant];
        EXPECT_LT(req.rank, traffic::nextPow2(p.keyspacePerTenant));
    }
    for (unsigned t = 0; t < p.tenants; ++t) {
        EXPECT_GT(perTenant[t], 0u) << "tenant " << t << " starved";
        const double frac = static_cast<double>(reads[t]) /
                            static_cast<double>(perTenant[t]);
        EXPECT_NEAR(frac, traffic::tenantReadFraction(p, t), 0.12)
            << "tenant " << t;
    }
    // The alternating mix gives even tenants more reads than odd.
    EXPECT_GT(traffic::tenantReadFraction(p, 0),
              traffic::tenantReadFraction(p, 1));
}

/* ---------------- request tracker ---------------- */

TEST(RequestTracker, RecordsAndExports)
{
    traffic::RequestTracker tr(2);
    // queue 1000ns, exec 2000ns, sojourn 3000ns (ticks are ps).
    tr.record(0, 0, 1000000, 3000000, 1);
    tr.record(1, 500000, 1500000, 3500000, 0);
    EXPECT_EQ(tr.requests(), 2u);
    EXPECT_DOUBLE_EQ(tr.queueWaitNs().mean(), 1000.0);
    EXPECT_DOUBLE_EQ(tr.sojournNs().mean(), 3000.0);

    obs::MetricsRegistry reg;
    tr.exportTo(reg);
    const auto snap = reg.snapshot();
    EXPECT_EQ(snap.counters.at("service.requests"), 2u);
    EXPECT_EQ(snap.counters.at("tenant0.service.requests"), 1u);
    EXPECT_EQ(snap.counters.at("tenant1.service.requests"), 1u);
    EXPECT_EQ(snap.distributions.at("service.sojourn_ns").count, 2u);
}

/* ---------------- per-tenant abort attribution ---------------- */

TEST(AbortProfiler, DomainCountsSumToTotal)
{
    obs::AbortProfiler prof;
    prof.noteAbort(0, 0, AbortCause::TrueConflictOnChip, 10, 0, 5);
    prof.noteAbort(1, 0, AbortCause::Capacity, 10, 0, 5);
    prof.noteAbort(2, 1, AbortCause::TrueConflictOnChip, 10, 0, 5);
    prof.noteAbort(0, 3, AbortCause::FalsePositive, 10, 0, 5);
    EXPECT_EQ(prof.totalAborts(), 4u);
    std::uint64_t sum = 0;
    for (std::uint32_t d = 0; d < prof.domainCount(); ++d)
        sum += prof.domainAborts(d);
    EXPECT_EQ(sum, prof.totalAborts());
    EXPECT_EQ(prof.domainAborts(0), 2u);
    EXPECT_EQ(prof.domainAborts(1), 1u);
    EXPECT_EQ(prof.domainAborts(2), 0u);
    EXPECT_EQ(prof.domainAborts(3), 1u);

    obs::MetricsRegistry reg;
    prof.exportTo(reg, "htm");
    const auto snap = reg.snapshot();
    EXPECT_EQ(snap.counters.at("domain0.htm.aborts.eager_coherence"),
              1u);
    EXPECT_EQ(snap.counters.at("domain0.htm.aborts.capacity"), 1u);
    EXPECT_EQ(
        snap.counters.at("domain3.htm.aborts.signature_false_positive"),
        1u);
    std::uint64_t exported = 0;
    for (const auto &[name, v] : snap.counters)
        if (name.rfind("domain", 0) == 0)
            exported += v;
    EXPECT_EQ(exported, prof.totalAborts());
}

TEST(ServiceRun, PerTenantAbortsAndRequestsSumExactly)
{
    ServiceParams p;
    p.tenants = 2;
    p.workersPerTenant = 2;
    p.requests = 120;
    p.keyspacePerTenant = 1u << 8; // tiny keyspace -> real conflicts
    p.prefillKeys = 32;
    p.valueBytes = 128;
    p.rwMix = 0.1; // write-heavy
    p.arrival.ratePerSec = 5e7; // overdrive: force queueing
    p.seed = 42;
    MachineConfig m = MachineConfig::tiny();
    m.cores = p.tenants * p.workersPerTenant;
    const RunMetrics rm = experiments::runService(
        m, HtmPolicy::uhtmOpt(2048), p);

    // Every request completed and was tracked, overall and per tenant.
    ASSERT_EQ(rm.registry.counters.at("service.requests"), p.requests);
    std::uint64_t perTenant = 0;
    for (unsigned t = 0; t < p.tenants; ++t)
        perTenant += rm.registry.counters.at(
            "tenant" + std::to_string(t) + ".service.requests");
    EXPECT_EQ(perTenant, p.requests);

    // Domain abort counters sum exactly to the run's abort total.
    const std::uint64_t totalAborts = rm.htm.totalAborts();
    std::uint64_t domainAborts = 0;
    for (const auto &[name, v] : rm.registry.counters)
        if (name.rfind("domain", 0) == 0)
            domainAborts += v;
    EXPECT_EQ(domainAborts, totalAborts);

    // The open-loop overdrive must show up as queue wait.
    const auto &qw = rm.registry.distributions.at("service.queue_wait_ns");
    EXPECT_EQ(qw.count, p.requests);
    EXPECT_GT(qw.max, 0.0);
}

/* ---------------- figure determinism across --jobs ---------------- */

TEST(ServiceFigure, ByteIdenticalAcrossSchedulerThreads)
{
    const figures::Figure *fig = figures::find("service");
    ASSERT_NE(fig, nullptr);
    figures::FigureOpts opts;
    opts.tiny = true;
    opts.seed = 42;

    const auto run = [&](unsigned threads) {
        const auto jobs = fig->makeJobs(opts);
        exec::SweepScheduler sched({threads, opts.seed});
        const auto results = sched.run(jobs);
        for (const auto &r : results)
            EXPECT_TRUE(r.ok) << r.key << ": " << r.error;
        const exec::ResultSink sink(
            fig->name, opts.seed,
            {{"quick", "false"}, {"tiny", "true"}});
        return std::pair<std::string, std::string>(
            sink.json(results), sink.metricsJson(results));
    };

    const auto one = run(1);
    const auto eight = run(8);
    EXPECT_EQ(one.first, eight.first) << "BENCH JSON differs across "
                                         "--jobs=1 vs --jobs=8";
    EXPECT_EQ(one.second, eight.second) << "METRICS JSON differs across "
                                           "--jobs=1 vs --jobs=8";
}

TEST(ServiceFigure, MalformedArrivalSpecThrows)
{
    const figures::Figure *fig = figures::find("service");
    ASSERT_NE(fig, nullptr);
    figures::FigureOpts opts;
    opts.tiny = true;
    opts.arrivalSpec = "poisson:rate=abc";
    try {
        (void)fig->makeJobs(opts);
        FAIL() << "a malformed arrival spec must not fall back to the "
                  "built-in sweep";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("poisson:rate=abc"),
                  std::string::npos)
            << e.what();
    }
}

/* ---------------- figure registry collision guard ---------------- */

TEST(FigureRegistry, DuplicateNameDetected)
{
    std::vector<figures::Figure> figs;
    figs.push_back({"a", "", nullptr});
    figs.push_back({"b", "", nullptr});
    EXPECT_EQ(figures::duplicateName(figs), "");
    figs.push_back({"a", "again", nullptr});
    EXPECT_EQ(figures::duplicateName(figs), "a");
}

TEST(FigureRegistry, RegisteredNamesAreUnique)
{
    EXPECT_EQ(figures::duplicateName(figures::all()), "");
    // And the service figure made it into the registry.
    EXPECT_NE(figures::find("service"), nullptr);
}

} // namespace
} // namespace uhtm
