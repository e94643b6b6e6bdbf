/**
 * @file
 * Machine configuration (paper Table III) and HTM policy knobs that
 * select between UHTM and the evaluated baselines.
 */

#ifndef UHTM_HTM_CONFIG_HH
#define UHTM_HTM_CONFIG_HH

#include <cmath>
#include <limits>
#include <string>

#include "sim/num_parse.hh"
#include "sim/types.hh"

namespace uhtm
{

/**
 * How conflicts are detected for data beyond the on-chip caches.
 * Selects between the paper's evaluated systems (Section V).
 */
enum class OffChipDetection
{
    /** No off-chip detection: LLC eviction of tx data aborts
     *  (LLC-Bounded HTM, DHTM-like). */
    None,
    /** Address signatures hold the full read/write sets and every
     *  request is checked (Signature-Only HTM, Bulk/LogTM-SE-like). */
    SignatureAllTraffic,
    /** UHTM: signatures hold only LLC-overflowed lines and only
     *  LLC-miss requests are checked (staged detection). */
    SignatureLlcMiss,
    /** Ideal unbounded HTM: precise (false-positive-free) detection
     *  for overflowed data. */
    Precise,
};

/** Version management for LLC-overflowed DRAM lines (paper Fig. 4/10). */
enum class DramOverflowLog
{
    /** Eager: old value to the log, new value in place (UHTM). */
    Undo,
    /** Lazy: new value to the log, in place unchanged (ablation). */
    Redo,
};

/** Why a transaction aborted (Fig. 7 decomposition). */
enum class AbortCause
{
    None,
    /** Real data conflict detected by the coherence protocol. */
    TrueConflictOnChip,
    /** Real data conflict detected off chip (signature or precise). */
    TrueConflictOffChip,
    /** Signature false positive within the same conflict domain. */
    FalsePositive,
    /** Signature false positive caused by another conflict domain
     *  (eliminated by UHTM's signature-isolation optimization). */
    CrossDomainFalse,
    /** Capacity overflow (bounded systems only). */
    Capacity,
    /** Preempted by a slow-path lock acquisition in the same domain. */
    LockPreempt,
    /** Explicit abort requested by the workload. */
    Explicit,
    /** Preempted by an adaptive policy's HyTM fallback-lock writer.
     *  Distinct from LockPreempt so adaptive-policy figures attribute
     *  fallback pressure separately from capacity serialization. */
    Fallback,
};

/** Number of AbortCause values (sizes per-cause count arrays). */
inline constexpr unsigned kAbortCauseCount =
    static_cast<unsigned>(AbortCause::Fallback) + 1;

/** Printable abort-cause name. */
inline const char *
abortCauseName(AbortCause c)
{
    switch (c) {
      case AbortCause::None: return "none";
      case AbortCause::TrueConflictOnChip: return "true-onchip";
      case AbortCause::TrueConflictOffChip: return "true-offchip";
      case AbortCause::FalsePositive: return "false-positive";
      case AbortCause::CrossDomainFalse: return "cross-domain-false";
      case AbortCause::Capacity: return "capacity";
      case AbortCause::LockPreempt: return "lock-preempt";
      case AbortCause::Explicit: return "explicit";
      case AbortCause::Fallback: return "fallback";
    }
    return "?";
}

/** Which contention-management strategy resolves conflicts. */
enum class ConflictPolicyKind
{
    /** The paper's fixed Table II policy (default; byte-identical to
     *  the pre-policy-layer behavior). */
    Fixed,
    /** Requester-wins with a small retry budget and jittered
     *  exponential backoff, then the serialized fallback. */
    BoundedRetry,
    /** Karma: the transaction with more failed attempts wins, which
     *  bounds per-transaction abort counts (no starvation). */
    Karma,
    /** HyTM: tiny retry budget, then a per-domain fallback lock that
     *  fast-path transactions subscribe to; drains persist via the
     *  existing log path. */
    HytmFallback,
};

/**
 * Conflict-policy selection plus its tuning knobs. Parsed from
 * `kind[:key=value,...]` specs (the bench `--policy=` flag); every knob
 * is validated so a bad spec fails loudly instead of wrapping.
 */
struct PolicyDescriptor
{
    ConflictPolicyKind kind = ConflictPolicyKind::Fixed;

    /** Conflict-abort retries before the serialized fallback. Unused
     *  by Fixed (which uses the ConflictRules::kFixed* constants), so
     *  parse() rejects knobs on it. */
    int retryBudget = 4;
    /** Backoff base/cap, ns. Ignored by Fixed. */
    double backoffBaseNs = 100;
    double backoffMaxNs = 50000;

    /** Canonical kind name (also the accepted spec spelling). */
    static const char *
    kindName(ConflictPolicyKind k)
    {
        switch (k) {
          case ConflictPolicyKind::Fixed: return "fixed";
          case ConflictPolicyKind::BoundedRetry: return "bounded-retry";
          case ConflictPolicyKind::Karma: return "karma";
          case ConflictPolicyKind::HytmFallback: return "hytm";
        }
        return "?";
    }

    const char *name() const { return kindName(kind); }

    /** Spec string with every knob (sweep-config echo). It round-trips
     *  through parse() for every kind but `fixed`, whose knobs parse()
     *  rejects because Fixed ignores them. */
    std::string
    spec() const
    {
        return std::string(name()) +
               ":retries=" + std::to_string(retryBudget) +
               ",base=" + std::to_string((long long)backoffBaseNs) +
               ",max=" + std::to_string((long long)backoffMaxNs);
    }

    /** Reject out-of-range knobs with a human-readable reason. */
    bool
    validate(std::string *err = nullptr) const
    {
        auto fail = [&](const std::string &why) {
            if (err)
                *err = "policy '" + std::string(name()) + "': " + why;
            return false;
        };
        if (retryBudget < 0)
            return fail("retry budget must be >= 0, got " +
                        std::to_string(retryBudget));
        if (!(backoffBaseNs > 0))
            return fail("backoff base must be > 0 ns");
        if (backoffMaxNs < backoffBaseNs)
            return fail("backoff max must be >= base");
        return true;
    }

    /**
     * Parse `kind[:key=value,...]` (keys: retries, base, max; ns for
     * the backoff pair). Unknown kinds/keys, invalid values and knobs
     * on `fixed` (which would be ignored) produce a clear error and
     * leave @p out untouched.
     */
    static bool
    parse(const std::string &spec, PolicyDescriptor *out,
          std::string *err)
    {
        PolicyDescriptor d;
        const auto colon = spec.find(':');
        const std::string kind = spec.substr(0, colon);
        if (kind == "fixed") {
            d.kind = ConflictPolicyKind::Fixed;
        } else if (kind == "bounded-retry") {
            d.kind = ConflictPolicyKind::BoundedRetry;
            d.retryBudget = 4;
        } else if (kind == "karma") {
            d.kind = ConflictPolicyKind::Karma;
            // Large budget: the starvation bound comes from priority,
            // not from falling back to the serialized path.
            d.retryBudget = 64;
        } else if (kind == "hytm") {
            d.kind = ConflictPolicyKind::HytmFallback;
            d.retryBudget = 2;
        } else {
            if (err)
                *err = "unknown policy kind '" + kind +
                       "' (expected fixed, bounded-retry, karma, hytm)";
            return false;
        }
        std::string rest =
            colon == std::string::npos ? "" : spec.substr(colon + 1);
        while (!rest.empty()) {
            const auto comma = rest.find(',');
            const std::string kv = rest.substr(0, comma);
            rest = comma == std::string::npos ? ""
                                              : rest.substr(comma + 1);
            const auto eq = kv.find('=');
            if (eq == std::string::npos || eq + 1 >= kv.size()) {
                if (err)
                    *err = "malformed policy knob '" + kv +
                           "' (expected key=value)";
                return false;
            }
            if (d.kind == ConflictPolicyKind::Fixed) {
                if (err)
                    *err = "policy 'fixed' takes no knobs (its retry "
                           "budget and backoff are fixed constants), "
                           "got '" + kv + "'";
                return false;
            }
            const std::string key = kv.substr(0, eq);
            const std::string val = kv.substr(eq + 1);
            double num = 0.0;
            if (!parseF64(val, num)) {
                if (err)
                    *err = "policy knob '" + key +
                           "': not a number: '" + val + "'";
                return false;
            }
            if (key == "retries") {
                // Negative counts are left to validate(); anything else
                // must be a whole number that fits an int.
                constexpr int kMax = std::numeric_limits<int>::max();
                if (num != std::trunc(num) || num > kMax ||
                    num < std::numeric_limits<int>::min()) {
                    if (err)
                        *err = "policy knob 'retries': expected a whole "
                               "number in [0, " + std::to_string(kMax) +
                               "], got '" + val + "'";
                    return false;
                }
                d.retryBudget = static_cast<int>(num);
            } else if (key == "base") {
                d.backoffBaseNs = num;
            } else if (key == "max") {
                d.backoffMaxNs = num;
            } else {
                if (err)
                    *err = "unknown policy knob '" + key +
                           "' (expected retries, base, max)";
                return false;
            }
        }
        if (!d.validate(err))
            return false;
        *out = d;
        return true;
    }
};

/** Timing and structural parameters of the simulated machine. */
struct MachineConfig
{
    unsigned cores = 16;

    std::uint64_t l1Bytes = KiB(32);
    unsigned l1Ways = 8;
    Tick l1Latency = ticksFromNs(1.5);

    std::uint64_t llcBytes = MiB(16);
    unsigned llcWays = 16;
    Tick llcLatency = ticksFromNs(15);

    Tick dramReadLatency = ticksFromNs(82);
    Tick dramWriteLatency = ticksFromNs(82);
    /** DRAM per-request occupancy (64B at ~32 GB/s aggregate). */
    Tick dramSlot = ticksFromNs(2);

    Tick nvmReadLatency = ticksFromNs(175);
    /** NVM write completes at the ADR write-pending queue. */
    Tick nvmWriteLatency = ticksFromNs(94);
    /** NVM per-request occupancy (64B at ~8 GB/s aggregate). */
    Tick nvmSlot = ticksFromNs(8);

    std::uint64_t dramCacheBytes = MiB(64);
    unsigned dramCacheWays = 16;

    /** Ablation: cache replacement prefers non-transactional victims. */
    bool txAwareReplacement = false;

    std::uint64_t logAreaBytes = MiB(512);

    /** Shrink cache sizes for fast unit tests. */
    static MachineConfig
    tiny()
    {
        MachineConfig c;
        c.cores = 4;
        c.l1Bytes = KiB(4);
        c.l1Ways = 4;
        c.llcBytes = KiB(64);
        c.llcWays = 8;
        c.dramCacheBytes = KiB(256);
        c.dramCacheWays = 4;
        c.logAreaBytes = MiB(16);
        return c;
    }
};

/** HTM policy: which of the paper's systems to model. */
struct HtmPolicy
{
    OffChipDetection offChip = OffChipDetection::SignatureLlcMiss;

    /** UHTM's conflict-domain signature isolation (the _opt variants). */
    bool signatureIsolation = true;

    unsigned signatureBits = 2048;
    unsigned signatureHashes = 4;

    DramOverflowLog dramLog = DramOverflowLog::Undo;

    /** Contention-management policy (see htm/conflict_policy.hh:
     *  Fixed uses the paper's constants, the adaptive kinds the
     *  descriptor's own knobs). */
    PolicyDescriptor conflict;

    /** ---- presets matching the paper's evaluated systems ---- */

    /** LLC-Bounded durable HTM (DHTM-like baseline). */
    static HtmPolicy
    llcBounded()
    {
        HtmPolicy p;
        p.offChip = OffChipDetection::None;
        p.signatureIsolation = false;
        // Capacity overflow goes straight to the slow path (Section V);
        // the conflict-retry budget matches the other systems so that
        // throughput differences isolate the boundedness itself.
        return p;
    }

    /** Signature-Only HTM (naive unbounded baseline). */
    static HtmPolicy
    signatureOnly(unsigned bits)
    {
        HtmPolicy p;
        p.offChip = OffChipDetection::SignatureAllTraffic;
        p.signatureIsolation = false;
        p.signatureBits = bits;
        return p;
    }

    /** UHTM without the conflict-domain optimization (xxx_sig). */
    static HtmPolicy
    uhtmSig(unsigned bits)
    {
        HtmPolicy p;
        p.offChip = OffChipDetection::SignatureLlcMiss;
        p.signatureIsolation = false;
        p.signatureBits = bits;
        return p;
    }

    /** UHTM with signature isolation (xxx_opt). */
    static HtmPolicy
    uhtmOpt(unsigned bits)
    {
        HtmPolicy p;
        p.offChip = OffChipDetection::SignatureLlcMiss;
        p.signatureIsolation = true;
        p.signatureBits = bits;
        return p;
    }

    /** Ideal unbounded HTM (perfect off-chip detection). */
    static HtmPolicy
    ideal()
    {
        HtmPolicy p;
        p.offChip = OffChipDetection::Precise;
        p.signatureIsolation = true;
        return p;
    }
};

/** A named (policy, label) pair for experiment sweeps. */
struct SystemVariant
{
    std::string label;
    HtmPolicy policy;
};

} // namespace uhtm

#endif // UHTM_HTM_CONFIG_HH
