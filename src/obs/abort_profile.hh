/**
 * @file
 * Abort-attribution profiler.
 *
 * Classifies every abort into the attribution classes the paper's
 * analysis cares about and accounts simulated time per transaction
 * stage, separating "time on chip" from "time after overflowing" from
 * "commit/abort protocol" from "waiting for the redo log to drain".
 * The commit path feeds it too, so the profile answers "where did
 * transactional time go" for both outcomes.
 *
 * AbortCause (the mechanism that fired) maps onto attribution classes
 * (why, in paper terms):
 *
 *   TrueConflictOnChip  -> eager_coherence        (directory detected)
 *   TrueConflictOffChip -> signature_true         (signature, real)
 *   FalsePositive       -> signature_false_positive
 *   CrossDomainFalse    -> cross_domain_suppressed (isolation miss)
 *   Capacity            -> capacity
 *   LockPreempt         -> lock_preempt
 *   Explicit            -> explicit
 *   Fallback            -> fallback (adaptive-policy lock preemption)
 *
 * This is a plain value member of HtmSystem: it always accumulates
 * (cheap integer adds on commit/abort, never per access) and is
 * exported to the metrics registry at end of run.
 */

#ifndef UHTM_OBS_ABORT_PROFILE_HH
#define UHTM_OBS_ABORT_PROFILE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "htm/config.hh"
#include "obs/metrics.hh"
#include "sim/types.hh"

namespace uhtm::obs
{

/** Attribution-class name for an abort cause (metric path segment). */
inline const char *
abortClassName(AbortCause c)
{
    switch (c) {
      case AbortCause::None: return "none";
      case AbortCause::TrueConflictOnChip: return "eager_coherence";
      case AbortCause::TrueConflictOffChip: return "signature_true";
      case AbortCause::FalsePositive: return "signature_false_positive";
      case AbortCause::CrossDomainFalse: return "cross_domain_suppressed";
      case AbortCause::Capacity: return "capacity";
      case AbortCause::LockPreempt: return "lock_preempt";
      case AbortCause::Explicit: return "explicit";
      case AbortCause::Fallback: return "fallback";
    }
    return "?";
}

class AbortProfiler
{
  public:
    /** Per-stage simulated-time totals for one outcome bucket. */
    struct StageTicks
    {
        std::uint64_t count = 0;
        Tick onChip = 0;     ///< begin -> overflow (or protocol start)
        Tick overflowed = 0; ///< overflow -> protocol start
        Tick protocol = 0;   ///< protocol start -> done
        Tick logDrain = 0;   ///< commit stall on redo-log durability

        void
        add(Tick on_chip, Tick over, Tick proto, Tick drain = 0)
        {
            ++count;
            onChip += on_chip;
            overflowed += over;
            protocol += proto;
            logDrain += drain;
        }
    };

    static constexpr unsigned kCauses = kAbortCauseCount;

    void
    noteAbort(std::uint32_t core, std::uint32_t domain, AbortCause cause,
              Tick on_chip, Tick overflowed, Tick protocol)
    {
        const auto c = static_cast<unsigned>(cause) % kCauses;
        _abort[c].add(on_chip, overflowed, protocol);
        if (core >= _perCore.size())
            _perCore.resize(core + 1);
        ++_perCore[core][c];
        if (domain >= _perDomain.size())
            _perDomain.resize(domain + 1);
        ++_perDomain[domain][c];
    }

    void
    noteCommit(Tick on_chip, Tick overflowed, Tick protocol,
               Tick log_drain)
    {
        _commit.add(on_chip, overflowed, protocol, log_drain);
    }

    std::uint64_t
    totalAborts() const
    {
        std::uint64_t n = 0;
        for (const auto &s : _abort)
            n += s.count;
        return n;
    }

    /** Aborts attributed to conflict domain (tenant) @p domain. */
    std::uint64_t
    domainAborts(std::uint32_t domain) const
    {
        if (domain >= _perDomain.size())
            return 0;
        std::uint64_t n = 0;
        for (std::uint64_t c : _perDomain[domain])
            n += c;
        return n;
    }

    std::size_t domainCount() const { return _perDomain.size(); }

    /**
     * Export under @p prefix ("htm"): per-class abort counts and stage
     * tick totals, commit-side stage totals, per-core per-class counts
     * under "core<i>.<prefix>.aborts.<class>", and per-domain
     * (per-tenant) per-class counts under
     * "domain<i>.<prefix>.aborts.<class>". The domain counters sum
     * exactly to the run's total abort count.
     */
    void exportTo(MetricsRegistry &reg, const std::string &prefix) const;

  private:
    std::array<StageTicks, kCauses> _abort{};
    StageTicks _commit;
    /** Per-core abort counts by cause (indexed by core id). */
    std::vector<std::array<std::uint64_t, kCauses>> _perCore;
    /** Per-domain abort counts by cause (indexed by domain id). */
    std::vector<std::array<std::uint64_t, kCauses>> _perDomain;
};

} // namespace uhtm::obs

#endif // UHTM_OBS_ABORT_PROFILE_HH
