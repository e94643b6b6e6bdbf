#include "traffic/arrivals.hh"

#include <cmath>
#include <cstdio>

#include "sim/num_parse.hh"
#include "traffic/detmath.hh"

namespace uhtm::traffic
{

namespace
{

constexpr double kTicksPerSec = 1e12; // Tick is a picosecond

std::string
fmt(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
}

} // namespace

const char *
arrivalKindName(ArrivalKind k)
{
    switch (k) {
      case ArrivalKind::Fixed: return "fixed";
      case ArrivalKind::Poisson: return "poisson";
      case ArrivalKind::Mmpp: return "mmpp";
    }
    return "?";
}

bool
ArrivalSpec::validate(std::string *err) const
{
    if (!(ratePerSec > 0.0)) {
        if (err)
            *err = "rate must be > 0";
        return false;
    }
    if (kind == ArrivalKind::Mmpp) {
        if (!(burstFactor > 1.0)) {
            if (err)
                *err = "mmpp burst factor must be > 1";
            return false;
        }
        if (!(burstFraction > 0.0) || !(burstFraction < 1.0)) {
            if (err)
                *err = "mmpp occ must be in (0,1)";
            return false;
        }
        if (burstFraction * burstFactor >= 1.0) {
            if (err)
                *err = "mmpp occ*burst must be < 1 (idle rate would "
                       "not be positive)";
            return false;
        }
        if (!(burstDwellNs > 0.0)) {
            if (err)
                *err = "mmpp dwell must be > 0 ns";
            return false;
        }
    }
    return true;
}

bool
ArrivalSpec::parse(const std::string &text, ArrivalSpec *out,
                   std::string *err)
{
    ArrivalSpec s;
    std::string head = text;
    std::string tail;
    const std::size_t colon = text.find(':');
    if (colon != std::string::npos) {
        head = text.substr(0, colon);
        tail = text.substr(colon + 1);
    }
    if (head == "fixed") {
        s.kind = ArrivalKind::Fixed;
    } else if (head == "poisson") {
        s.kind = ArrivalKind::Poisson;
    } else if (head == "mmpp") {
        s.kind = ArrivalKind::Mmpp;
    } else {
        if (err)
            *err = "unknown arrival kind \"" + head +
                   "\" (fixed | poisson | mmpp)";
        return false;
    }

    std::size_t pos = 0;
    while (pos < tail.size()) {
        std::size_t comma = tail.find(',', pos);
        if (comma == std::string::npos)
            comma = tail.size();
        const std::string kv = tail.substr(pos, comma - pos);
        pos = comma + 1;
        const std::size_t eq = kv.find('=');
        if (eq == std::string::npos) {
            if (err)
                *err = "expected key=value, got \"" + kv + "\"";
            return false;
        }
        const std::string key = kv.substr(0, eq);
        double v = 0.0;
        if (!parseF64(kv.substr(eq + 1), v)) {
            if (err)
                *err = "bad number in \"" + kv + "\"";
            return false;
        }
        if (key == "rate") {
            s.ratePerSec = v;
        } else if (key == "burst") {
            s.burstFactor = v;
        } else if (key == "occ") {
            s.burstFraction = v;
        } else if (key == "dwell") {
            s.burstDwellNs = v;
        } else {
            if (err)
                *err = "unknown arrival knob \"" + key +
                       "\" (rate, burst, occ, dwell)";
            return false;
        }
    }
    if (!s.validate(err))
        return false;
    if (out)
        *out = s;
    return true;
}

std::string
ArrivalSpec::spec() const
{
    std::string s = std::string(arrivalKindName(kind)) +
                    ":rate=" + fmt(ratePerSec);
    if (kind == ArrivalKind::Mmpp) {
        s += ",burst=" + fmt(burstFactor) + ",occ=" + fmt(burstFraction) +
             ",dwell=" + fmt(burstDwellNs);
    }
    return s;
}

ArrivalProcess::ArrivalProcess(const ArrivalSpec &spec, std::uint64_t seed)
    : _s(spec), _rng(seed)
{
    _meanGap = kTicksPerSec / _s.ratePerSec;
    if (_s.kind == ArrivalKind::Mmpp) {
        const double f = _s.burstFraction;
        const double burst_rate = _s.ratePerSec * _s.burstFactor;
        // Idle rate chosen so f*rateB + (1-f)*rateI == ratePerSec.
        const double idle_rate =
            _s.ratePerSec * (1.0 - f * _s.burstFactor) / (1.0 - f);
        _burstGap = kTicksPerSec / burst_rate;
        _idleGap = kTicksPerSec / idle_rate;
        _burstDwell = _s.burstDwellNs * 1e3; // ns -> ticks
        // Occupancy f = dwellB / (dwellB + dwellI).
        _idleDwell = _burstDwell * (1.0 - f) / f;
        // Start from the stationary distribution so short streams are
        // unbiased; the dwell clock is memoryless, so a fresh draw is
        // the correct residual.
        _inBurst = _rng.chance(f);
        _dwellLeft = expDraw(_inBurst ? _burstDwell : _idleDwell);
    }
}

double
ArrivalProcess::expDraw(double mean_ticks)
{
    // Inverse CDF with u in (0, 1]; detLog keeps the stream
    // byte-stable across libm versions.
    const double u = 1.0 - _rng.uniform();
    return -detLog(u) * mean_ticks;
}

Tick
ArrivalProcess::nextGap()
{
    double gap = 0.0;
    switch (_s.kind) {
      case ArrivalKind::Fixed:
        gap = _meanGap;
        break;
      case ArrivalKind::Poisson:
        gap = expDraw(_meanGap);
        break;
      case ArrivalKind::Mmpp: {
        // Exact two-state MMPP: race the next arrival (exponential at
        // the current state's rate) against the residual dwell; on a
        // dwell expiry, switch states and redraw — memorylessness
        // makes the fresh arrival draw in the new state exact.
        for (;;) {
            const double g =
                expDraw(_inBurst ? _burstGap : _idleGap);
            if (g <= _dwellLeft) {
                _dwellLeft -= g;
                (_inBurst ? _burstTime : _idleTime) += g;
                gap += g;
                break;
            }
            gap += _dwellLeft;
            (_inBurst ? _burstTime : _idleTime) += _dwellLeft;
            _inBurst = !_inBurst;
            _dwellLeft = expDraw(_inBurst ? _burstDwell : _idleDwell);
        }
        break;
      }
    }
    const auto t = static_cast<Tick>(std::llround(gap));
    return t > 0 ? t : 1;
}

} // namespace uhtm::traffic
