/**
 * @file
 * Crash-consistency oracle.
 *
 * The oracle keeps an *independent* model of what crash recovery must
 * produce: for every NVM line it records the pre-run durable baseline,
 * every non-speculative durable in-place write, and the committed image
 * of every transaction (with its durability tick, reported by the HTM
 * layer at commit). Recovery correctness at a crash tick T is then:
 *
 *   durability — if any transaction wrote the line and its commit
 *       record was durable by T, recovery must produce the image of the
 *       last such transaction (in commit order);
 *   atomicity — otherwise recovery must produce the last
 *       non-speculative durable value (or the baseline): no bytes from
 *       an uncommitted transaction may survive;
 *   no-leak — an in-place durable NVM write of a speculatively written
 *       line must carry baseline or committed bytes (the DRAM cache
 *       must never evict uncommitted data into NVM);
 *   rollback — an aborted transaction's undo records must hold the
 *       pre-transaction images, its speculative bytes must not reach
 *       the architectural store, and its DRAM-cache entries must be
 *       invalidated;
 *   drain — once the machine has quiesced and written every dirty
 *       DRAM-cache line back, the in-place durable image equals the
 *       architectural store on every NVM line, without redo replay.
 *
 * Checks run against RedoLogArea::recoverLine (per line, cheap enough
 * for every crash point) and periodically against the full
 * HtmSystem::recoverAfterCrash image.
 */

#ifndef UHTM_CHECK_CRASH_ORACLE_HH
#define UHTM_CHECK_CRASH_ORACLE_HH

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "check/fault_injector.hh"
#include "sim/types.hh"

namespace uhtm
{

class HtmSystem;

/** Invariant checker for simulated crashes (see file comment). */
class CrashOracle
{
  public:
    /** Sentinel point index for checks not tied to a crash point. */
    static constexpr std::uint64_t kNoPoint = ~std::uint64_t(0);

    /** One invariant violation. */
    struct Violation
    {
        /** Crash-schedule index being checked (kNoPoint if none). */
        std::uint64_t pointIndex = kNoPoint;
        Tick crashTick = 0;
        Addr line = 0;
        /** "durability", "atomicity", "leak", "rollback" or "drain". */
        const char *kind = "";
        std::string detail;
    };

    explicit CrashOracle(HtmSystem &sys) : _sys(sys) {}

    /** @name Feed (wired through the FaultInjector)
     *  @{ */
    void onPersist(const PersistEvent &ev, const std::uint8_t *bytes);
    void onTxCommitted(const FaultInjector::CommittedTx &rec);
    void onTxAborted(const FaultInjector::AbortedTx &rec);
    /** @} */

    /**
     * Check every tracked line against recovery for a crash at
     * @p crash_tick (must be the current tick: recovery reads the
     * machine's durable state as-is). With @p full_image the whole
     * recoverAfterCrash() image is cross-checked as well.
     * @return number of new violations.
     */
    std::size_t checkCrashAt(Tick crash_tick, bool full_image,
                             std::uint64_t point_index = kNoPoint);

    /** The drain rule, on a drained machine after flushDramCache():
     *  one "drain" violation per NVM line whose durable bytes differ
     *  from the store's. Not counted in checksRun(); @return them. */
    std::size_t checkDrained();

    const std::vector<Violation> &violations() const
    {
        return _violations;
    }

    std::uint64_t checksRun() const { return _checksRun; }
    std::uint64_t linesTracked() const { return _lines.size(); }

  private:
    using LineBytes = std::array<std::uint8_t, kLineBytes>;

    /** A durable in-place NVM write (completion tick + bytes). */
    struct DurableVersion
    {
        Tick tick = 0;
        LineBytes bytes{};
    };

    /** A committed transactional image of the line. */
    struct TxVersion
    {
        TxId tx = kNoTx;
        Tick commitDurableAt = 0;
        LineBytes bytes{};
    };

    /** Everything known about one NVM line. */
    struct LineLedger
    {
        LineBytes baseline{};
        /** Written speculatively by some transaction (redo-logged). */
        bool speculative = false;
        /** In (completion tick, issue) order: the durable image's
         *  apply order. */
        std::vector<DurableVersion> durables;
        /** In commit order (reports arrive at commit issue). */
        std::vector<TxVersion> committed;
    };

    /** Ledger for @p line; captures the durable baseline on first use. */
    LineLedger &ledgerFor(Addr line);

    /**
     * The image recovery must produce for the line at crash tick @p t.
     * @param from_committed set true when a committed-durable
     *        transaction dictates the value (durability claim).
     * @return expected bytes (points into the ledger or its baseline).
     */
    const LineBytes *expectedAt(const LineLedger &led, Tick t,
                                bool *from_committed) const;

    void addViolation(std::uint64_t point, Tick t, Addr line,
                      const char *kind, std::string detail);

    static std::string hexPrefix(const LineBytes &b);

    HtmSystem &_sys;
    std::unordered_map<Addr, LineLedger> _lines;
    std::vector<Violation> _violations;
    std::uint64_t _checksRun = 0;
};

} // namespace uhtm

#endif // UHTM_CHECK_CRASH_ORACLE_HH
