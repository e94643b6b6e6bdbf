/**
 * @file
 * Request-lifecycle tracker: per-request latency decomposition for the
 * open-loop service workload.
 *
 * Every completed request records three simulated durations —
 *
 *   queue wait  arrival timestamp -> first execution attempt
 *   execution   first attempt -> commit (includes aborted attempts,
 *               backoff and serialized fallback time)
 *   sojourn     arrival -> commit (the client-visible commit latency
 *               whose p50/p99/p999 the service figure reports)
 *
 * — plus the retry count, into streaming Distributions, overall and
 * per tenant. exportTo() copies them into the metrics registry, where
 * they ride the METRICS_<figure>.json sidecar and merge
 * deterministically across sweep jobs like every other distribution.
 */

#ifndef UHTM_TRAFFIC_LIFECYCLE_HH
#define UHTM_TRAFFIC_LIFECYCLE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace uhtm::traffic
{

class RequestTracker
{
  public:
    explicit RequestTracker(unsigned tenants) : _perTenant(tenants) {}

    void
    record(unsigned tenant, Tick arrival, Tick exec_start, Tick done,
           std::uint64_t retries)
    {
        recordInto(_all, arrival, exec_start, done, retries);
        if (tenant < _perTenant.size())
            recordInto(_perTenant[tenant], arrival, exec_start, done,
                       retries);
    }

    /**
     * Export under "service." (overall) and "tenant<i>.service."
     * (per tenant), mirroring the profiler's "core<i>." convention.
     */
    void
    exportTo(obs::MetricsRegistry &reg) const
    {
        exportOne(reg, "service.", _all);
        for (std::size_t t = 0; t < _perTenant.size(); ++t)
            exportOne(reg, "tenant" + std::to_string(t) + ".service.",
                      _perTenant[t]);
    }

    std::uint64_t requests() const { return _all.requests; }
    const Distribution &queueWaitNs() const { return _all.queueWait; }
    const Distribution &sojournNs() const { return _all.sojourn; }

  private:
    struct Lat
    {
        std::uint64_t requests = 0;
        Distribution queueWait; ///< ns
        Distribution exec;      ///< ns
        Distribution sojourn;   ///< ns
        Distribution retries;   ///< aborted attempts per request
    };

    static void
    recordInto(Lat &l, Tick arrival, Tick exec_start, Tick done,
               std::uint64_t retries)
    {
        ++l.requests;
        l.queueWait.sample(nsFromTicks(exec_start - arrival));
        l.exec.sample(nsFromTicks(done - exec_start));
        l.sojourn.sample(nsFromTicks(done - arrival));
        l.retries.sample(static_cast<double>(retries));
    }

    static void
    exportOne(obs::MetricsRegistry &reg, const std::string &prefix,
              const Lat &l)
    {
        reg.counter(prefix + "requests") = l.requests;
        reg.setDistribution(prefix + "queue_wait_ns", l.queueWait);
        reg.setDistribution(prefix + "exec_ns", l.exec);
        reg.setDistribution(prefix + "sojourn_ns", l.sojourn);
        reg.setDistribution(prefix + "retries_per_request", l.retries);
    }

    Lat _all;
    std::vector<Lat> _perTenant;
};

} // namespace uhtm::traffic

#endif // UHTM_TRAFFIC_LIFECYCLE_HH
