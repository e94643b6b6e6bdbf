/**
 * @file
 * Contention management as data: who loses a conflict, how long an
 * aborted transaction backs off, and when it gives up on the fast path
 * and serializes behind the per-domain fallback lock.
 *
 * The four policy kinds differ only in the six fields of ConflictRules:
 *
 *   kind           resolution          retries  backoff      preempt      drain
 *   fixed          Table II            10       200ns/3.2ms  LockPreempt  no
 *   bounded-retry  Table II            desc 4   desc         Fallback     no
 *   karma          more attempts wins  desc 64  desc         Fallback     no
 *   hytm           Table II            desc 2   desc         Fallback     yes
 *
 * "desc N" is the PolicyDescriptor's knob (default N; the descriptor's
 * backoff defaults to 100ns/50us); "drain" is retryFastAfterDrain.
 *
 * `fixed` reproduces the paper's Table II resolution and Algorithm-1
 * retry schedule bit for bit (the golden bench JSON is byte-compared
 * against it in CI) from the constants below; the adaptive kinds take
 * their budget and backoff from the PolicyDescriptor.
 *
 * Division of labour with HtmSystem: immunity (committing/serialized
 * victims) and the non-transactional-requester-always-wins rule stay in
 * the protocol engine; the rules only decide the transactional
 * asymmetries.
 */

#ifndef UHTM_HTM_CONFLICT_POLICY_HH
#define UHTM_HTM_CONFLICT_POLICY_HH

#include "htm/config.hh"
#include "htm/tx_desc.hh"
#include "sim/random.hh"
#include "sim/types.hh"

namespace uhtm
{

/** One conflict policy's rules (see file comment). */
struct ConflictRules
{
    /** `fixed`: conflict-abort retries before the slow path. */
    static constexpr int kFixedRetries = 10;
    /** `fixed`: base backoff; doubles each retry with random jitter. */
    static constexpr Tick kFixedBaseBackoff = ticksFromNs(200);
    /** `fixed`: backoff cap. Must be able to exceed a long
     *  transaction's duration, or two deterministic retriers writing
     *  one shared line ping-pong under requester-wins until the retry
     *  limit (the livelock the paper defers to future work). */
    static constexpr Tick kFixedMaxBackoff = ticksFromNs(3200000);

    /** Karma: the side with more failed attempts (TxDesc::attempt)
     *  wins a conflict and Table II only breaks ties, which bounds
     *  per-transaction abort counts without the fallback lock. */
    bool moreAttemptsWins = false;
    /** Conflict-abort retries before the serialized fallback. */
    int retryBudget = kFixedRetries;
    Tick baseBackoff = kFixedBaseBackoff;
    Tick maxBackoff = kFixedMaxBackoff;
    /** Cause attributed to fast-path transactions preempted by a
     *  fallback-lock acquisition in their domain. */
    AbortCause preemptCause = AbortCause::LockPreempt;
    /** Lemming-effect avoidance: a thread that decided to serialize
     *  but then waited for another thread's drain re-tries the fast
     *  path (fresh attempt budget) instead of taking the lock itself. */
    bool retryFastAfterDrain = false;

    /** The rules of @p d's kind (the descriptor must be validated). */
    static ConflictRules
    of(const PolicyDescriptor &d)
    {
        ConflictRules r;
        if (d.kind == ConflictPolicyKind::Fixed)
            return r;
        r.moreAttemptsWins = d.kind == ConflictPolicyKind::Karma;
        r.retryBudget = d.retryBudget;
        r.baseBackoff = ticksFromNs(d.backoffBaseNs);
        r.maxBackoff = ticksFromNs(d.backoffMaxNs);
        r.preemptCause = AbortCause::Fallback;
        r.retryFastAfterDrain = d.kind == ConflictPolicyKind::HytmFallback;
        return r;
    }

    /**
     * On-chip conflict (directory hit): @retval true the requester
     * aborts instead of @p victim. Table II is requester-wins except
     * when exactly the victim overflowed.
     */
    bool
    onChipRequesterAborts(const TxDesc &req, const TxDesc &victim) const
    {
        if (moreAttemptsWins && victim.attempt != req.attempt)
            return victim.attempt > req.attempt;
        return victim.overflowed && !req.overflowed;
    }

    /**
     * Off-chip conflict (signature/precise hit): @retval true @p victim
     * aborts first and the requester proceeds if the victim was
     * killable. Table II is requester-loses except when exactly the
     * requester overflowed.
     */
    bool
    offChipVictimAborts(const TxDesc &req, const TxDesc &victim) const
    {
        if (moreAttemptsWins && req.attempt != victim.attempt)
            return req.attempt > victim.attempt;
        return req.overflowed && !victim.overflowed;
    }

    /**
     * Jittered exponential backoff before retry number @p attempt + 1:
     * exactly one @p rng draw in [span/2, span] (event-order
     * determinism).
     */
    Tick
    backoffDelay(int attempt, Rng &rng) const
    {
        const int shift = attempt < 14 ? attempt : 14;
        Tick span = baseBackoff << shift;
        if (span > maxBackoff)
            span = maxBackoff;
        return rng.range(span / 2, span);
    }

    /**
     * Fallback trigger, consulted after the abort protocol ran:
     * @p next_attempt is the upcoming attempt number, @p cause the
     * abort's attribution. Capacity overflows repeat after restart, so
     * they go straight to the slow path (Algorithm 1 line 15);
     * conflicts retry up to the budget. @retval true serialize.
     */
    bool
    shouldSerialize(int next_attempt, AbortCause cause) const
    {
        return cause == AbortCause::Capacity || next_attempt > retryBudget;
    }
};

} // namespace uhtm

#endif // UHTM_HTM_CONFLICT_POLICY_HH
