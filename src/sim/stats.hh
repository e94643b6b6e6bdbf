/**
 * @file
 * Lightweight statistics primitives.
 *
 * Hot paths update plain counters; formatting/aggregation lives in the
 * harness. Distribution keeps streaming moments so that latencies can be
 * reported without storing samples.
 */

#ifndef UHTM_SIM_STATS_HH
#define UHTM_SIM_STATS_HH

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>

namespace uhtm
{

/**
 * Streaming distribution: count, mean, min, max, plus streaming
 * variance (Welford) and a power-of-two-bucket histogram — all O(1)
 * per sample, no stored samples.
 */
class Distribution
{
  public:
    /**
     * Histogram buckets: bucket 0 holds samples < 1, bucket i >= 1
     * holds [2^(i-1), 2^i), the last bucket additionally absorbs
     * everything beyond its upper edge.
     */
    static constexpr unsigned kLog2Buckets = 64;

    /** Bucket index for @p v (integer bit-width, exact at edges). */
    static unsigned
    log2Bucket(double v)
    {
        if (!(v >= 1.0))
            return 0; // sub-unit, non-positive and NaN samples
        if (v >= 9223372036854775808.0) // 2^63
            return kLog2Buckets - 1;
        const std::uint64_t u = static_cast<std::uint64_t>(v);
        unsigned width = 0;
        for (std::uint64_t x = u; x; x >>= 1)
            ++width;
        return std::min(width, kLog2Buckets - 1);
    }

    void
    sample(double v)
    {
        const double old_mean = _count ? _sum / _count : 0.0;
        ++_count;
        _sum += v;
        // Welford with the running mean derived from the exact sum:
        // m2 accumulates sum((v - mean)^2) incrementally.
        _m2 += (v - old_mean) * (v - _sum / _count);
        _min = std::min(_min, v);
        _max = std::max(_max, v);
        ++_hist[log2Bucket(v)];
    }

    std::uint64_t count() const { return _count; }
    double sum() const { return _sum; }
    double mean() const { return _count ? _sum / _count : 0.0; }
    double min() const { return _count ? _min : 0.0; }
    double max() const { return _count ? _max : 0.0; }

    /** Population variance (0 for fewer than two samples). */
    double variance() const { return _count > 1 ? _m2 / _count : 0.0; }

    double stddev() const { return std::sqrt(variance()); }

    /** Sum of squared deviations from the mean (merge primitive). */
    double m2() const { return _m2; }

    const std::array<std::uint64_t, kLog2Buckets> &
    histogram() const
    {
        return _hist;
    }

    /** Merge another distribution into this one (Chan's algorithm). */
    void
    merge(const Distribution &o)
    {
        if (o._count == 0)
            return; // empty other: nothing changes (min/max intact)
        if (_count == 0) {
            *this = o;
            return;
        }
        const double na = static_cast<double>(_count);
        const double nb = static_cast<double>(o._count);
        const double delta = o._sum / nb - _sum / na;
        _m2 += o._m2 + delta * delta * na * nb / (na + nb);
        _count += o._count;
        _sum += o._sum;
        _min = std::min(_min, o._min);
        _max = std::max(_max, o._max);
        for (unsigned i = 0; i < kLog2Buckets; ++i)
            _hist[i] += o._hist[i];
    }

  private:
    std::uint64_t _count = 0;
    double _sum = 0.0;
    double _m2 = 0.0;
    double _min = std::numeric_limits<double>::infinity();
    double _max = -std::numeric_limits<double>::infinity();
    std::array<std::uint64_t, kLog2Buckets> _hist{};
};

/**
 * A named bag of scalar statistics, used at reporting time to assemble
 * per-component stats into tables. Insertion order is not preserved
 * (keys are sorted), which keeps reports stable across runs.
 */
class StatSet
{
  public:
    void set(const std::string &name, double v) { _vals[name] = v; }

    void
    add(const std::string &name, double v)
    {
        _vals[name] += v;
    }

    double
    get(const std::string &name) const
    {
        auto it = _vals.find(name);
        return it == _vals.end() ? 0.0 : it->second;
    }

    bool has(const std::string &name) const { return _vals.count(name) > 0; }

    const std::map<std::string, double> &values() const { return _vals; }

  private:
    std::map<std::string, double> _vals;
};

} // namespace uhtm

#endif // UHTM_SIM_STATS_HH
