#include "exec/result_sink.hh"

#include <cstdio>
#include <filesystem>

#include "exec/json.hh"
#include "htm/config.hh"
#include "obs/metrics.hh"

namespace uhtm::exec
{

namespace
{

void
writeStringMap(JsonWriter &w, const std::string &key,
               const std::map<std::string, std::string> &m)
{
    w.key(key);
    w.beginObject();
    for (const auto &[k, v] : m)
        w.field(k, v);
    w.endObject();
}

void
writeDistribution(JsonWriter &w, const std::string &key,
                  const Distribution &d)
{
    w.key(key);
    w.beginObject();
    w.field("count", d.count());
    w.field("mean", d.mean());
    w.field("min", d.min());
    w.field("max", d.max());
    w.endObject();
}

void
writeHtmStats(JsonWriter &w, const HtmStats &h)
{
    w.key("htm");
    w.beginObject();
    w.field("tx_begins", h.txBegins);
    w.field("commits", h.commits);
    w.field("serialized_commits", h.serializedCommits);
    w.field("lock_acquisitions", h.lockAcquisitions);
    w.field("total_aborts", h.totalAborts());
    w.key("aborts");
    w.beginObject();
    // Skip AbortCause::None (index 0): never a recorded abort cause.
    // Fallback only fires under adaptive conflict policies; skipping it
    // when zero keeps the default policy's JSON byte-identical to the
    // pre-policy goldens.
    for (std::size_t c = 1; c < h.aborts.size(); ++c) {
        const auto cause = static_cast<AbortCause>(c);
        if (cause == AbortCause::Fallback && h.aborts[c] == 0)
            continue;
        w.field(abortCauseName(cause), h.aborts[c]);
    }
    w.endObject();
    w.field("overflowed_txs", h.overflowedTxs);
    w.field("llc_tx_evictions", h.llcTxEvictions);
    w.field("llc_tx_write_evictions", h.llcTxWriteEvictions);
    w.field("llc_tx_read_evictions", h.llcTxReadEvictions);
    w.field("sig_checks", h.sigChecks);
    w.field("sig_hits", h.sigHits);
    w.field("sig_false_hits", h.sigFalseHits);
    w.field("context_switches", h.contextSwitches);
    w.field("log_expansions", h.logExpansions);
    w.endObject();

    w.key("latency_ns");
    w.beginObject();
    writeDistribution(w, "commit_protocol", h.commitProtocolNs);
    writeDistribution(w, "abort_protocol", h.abortProtocolNs);
    writeDistribution(w, "tx_footprint_bytes", h.txFootprintBytes);
    writeDistribution(w, "sig_inserts_per_tx", h.sigInsertsPerTx);
    w.endObject();
}

void
writeMetrics(JsonWriter &w, const RunMetrics &m)
{
    w.key("metrics");
    w.beginObject();
    w.field("end_tick", m.endTick);
    w.field("sim_seconds", m.simSeconds);
    w.field("committed_txs", m.committedTxs);
    w.field("committed_ops", m.committedOps);
    w.field("tx_per_sec", m.txPerSec);
    w.field("ops_per_sec", m.opsPerSec);
    w.field("abort_rate", m.abortRate);
    writeHtmStats(w, m.htm);

    w.key("domains");
    w.beginArray();
    for (const auto &[dom, ops] : m.domainOps) {
        w.beginObject();
        w.field("id", static_cast<std::uint64_t>(dom));
        w.field("ops", ops);
        w.field("ops_per_sec", m.domainOpsPerSec(dom));
        auto et = m.domainEndTick.find(dom);
        w.field("end_tick",
                et != m.domainEndTick.end() ? et->second : Tick(0));
        auto ctx = m.domainCtx.find(dom);
        if (ctx != m.domainCtx.end()) {
            w.field("commits", ctx->second.commits);
            w.field("serialized_commits", ctx->second.serializedCommits);
            w.field("aborts", ctx->second.aborts);
        }
        w.endObject();
    }
    w.endArray();

    w.key("extra");
    w.beginObject();
    for (const auto &[k, v] : m.extra.values())
        w.field(k, v);
    w.endObject();
    w.endObject();
}

void
writeDistSnapshot(JsonWriter &w, const obs::DistSnapshot &d)
{
    w.beginObject();
    w.field("count", d.count);
    w.field("mean", d.mean);
    w.field("min", d.min);
    w.field("max", d.max);
    w.field("stddev", d.stddev);
    std::size_t last = d.log2Hist.size();
    while (last > 0 && d.log2Hist[last - 1] == 0)
        --last;
    w.key("log2_hist");
    w.beginArray();
    for (std::size_t i = 0; i < last; ++i)
        w.value(d.log2Hist[i]);
    w.endArray();
    w.endObject();
}

void
writeMetricsSnapshot(JsonWriter &w, const obs::MetricsSnapshot &s)
{
    w.key("counters");
    w.beginObject();
    for (const auto &[k, v] : s.counters)
        w.field(k, v);
    w.endObject();
    w.key("gauges");
    w.beginObject();
    for (const auto &[k, v] : s.gauges)
        w.field(k, v);
    w.endObject();
    w.key("distributions");
    w.beginObject();
    for (const auto &[k, d] : s.distributions) {
        w.key(k);
        writeDistSnapshot(w, d);
    }
    w.endObject();
}

} // namespace

ResultSink::ResultSink(std::string benchName, std::uint64_t sweepSeed,
                       std::map<std::string, std::string> sweepConfig)
    : _name(std::move(benchName)), _sweepSeed(sweepSeed),
      _sweepConfig(std::move(sweepConfig))
{
}

std::string
ResultSink::json(const std::vector<JobResult> &results) const
{
    JsonWriter w;
    w.beginObject();
    w.field("schema", "uhtm-bench-v1");
    w.field("bench", _name);
    w.field("sweep_seed", _sweepSeed);
    writeStringMap(w, "sweep_config", _sweepConfig);
    w.key("jobs");
    w.beginArray();
    for (const JobResult &r : results) {
        w.beginObject();
        w.field("key", r.key);
        w.field("seed", r.seed);
        writeStringMap(w, "config", r.config);
        w.field("ok", r.ok);
        if (r.ok)
            writeMetrics(w, r.metrics);
        else
            w.field("error", r.error);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str() + "\n";
}

std::string
ResultSink::metricsJson(const std::vector<JobResult> &results) const
{
    JsonWriter w;
    w.beginObject();
    w.field("schema", "uhtm-metrics-v1");
    w.field("bench", _name);
    w.field("sweep_seed", _sweepSeed);
    writeStringMap(w, "sweep_config", _sweepConfig);

    // Submission order, like the bench file: results arrive ordered by
    // the scheduler regardless of --jobs, so these bytes are stable.
    obs::MetricsSnapshot aggregate;
    w.key("jobs");
    w.beginArray();
    for (const JobResult &r : results) {
        w.beginObject();
        w.field("key", r.key);
        w.field("ok", r.ok);
        if (r.ok) {
            writeMetricsSnapshot(w, r.metrics.registry);
            aggregate.merge(r.metrics.registry);
        }
        w.endObject();
    }
    w.endArray();

    w.key("aggregate");
    w.beginObject();
    writeMetricsSnapshot(w, aggregate);
    w.endObject();
    w.endObject();
    return w.str() + "\n";
}

std::string
ResultSink::timingJson(const std::vector<JobResult> &results,
                       double wallSeconds, unsigned threads) const
{
    std::uint64_t events = 0;
    for (const JobResult &r : results)
        events += r.metrics.hostEventsExecuted;
    JsonWriter w;
    w.beginObject();
    w.field("figure", _name);
    w.field("wall_seconds", wallSeconds);
    w.field("jobs", static_cast<std::uint64_t>(results.size()));
    w.field("threads", static_cast<std::uint64_t>(threads));
    w.field("events_executed", events);
    w.field("events_per_second",
            wallSeconds > 0.0 ? static_cast<double>(events) / wallSeconds
                              : 0.0);
    w.key("per_job");
    w.beginArray();
    for (const JobResult &r : results) {
        w.beginObject();
        w.field("key", r.key);
        w.field("host_seconds", r.hostSeconds);
        w.field("events_executed", r.metrics.hostEventsExecuted);
        w.field("commits", r.metrics.committedTxs);
        const HtmSystem::MemoryLedger &mem = r.metrics.memory;
        w.key("memory");
        w.beginObject();
        w.field("store_bytes", mem.storeBytes);
        w.field("durable_lag_bytes", mem.durableLagBytes);
        w.field("redo_records", mem.redo.records);
        w.field("redo_record_bytes", mem.redo.recordBytes);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str() + "\n";
}

namespace
{

std::string
writeFileTo(const std::string &dir, const std::string &file_name,
            const std::string &body, std::string *err)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
        if (err)
            *err = "cannot create " + dir + ": " + ec.message();
        return "";
    }
    const std::string path = (fs::path(dir) / file_name).string();
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f) {
        if (err)
            *err = "cannot open " + path;
        return "";
    }
    const bool ok = std::fwrite(body.data(), 1, body.size(), f) ==
                    body.size();
    std::fclose(f);
    if (!ok) {
        if (err)
            *err = "short write to " + path;
        return "";
    }
    return path;
}

} // namespace

std::string
ResultSink::writeTo(const std::string &dir,
                    const std::vector<JobResult> &results,
                    std::string *err) const
{
    return writeFileTo(dir, fileName(), json(results), err);
}

std::string
ResultSink::writeMetricsTo(const std::string &dir,
                           const std::vector<JobResult> &results,
                           std::string *err) const
{
    return writeFileTo(dir, metricsFileName(), metricsJson(results), err);
}

std::string
ResultSink::writeTimingTo(const std::string &dir,
                          const std::vector<JobResult> &results,
                          double wallSeconds, unsigned threads,
                          std::string *err) const
{
    return writeFileTo(dir, timingFileName(),
                       timingJson(results, wallSeconds, threads), err);
}

} // namespace uhtm::exec
