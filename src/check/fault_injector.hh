/**
 * @file
 * Crash-point fault injector.
 *
 * The FaultInjector observes the machine's persistence-ordering points
 * (redo/undo log appends, commit and abort marks, DRAM-cache
 * write-backs and drops, and in-place NVM writes). HtmSystem is its one
 * notifier: it announces each point at issue, in the order the
 * protocol performs them; the mem/ components know nothing of it. It
 * only observes: the durable-write path is the same with or without
 * it. Every notification becomes one numbered *crash point* in a
 * deterministic, replayable schedule:
 *
 *   - sweep mode: an onPoint callback lets the harness schedule an
 *     oracle check at the point's completion tick, so one instrumented
 *     run validates every crash point;
 *   - replay mode: armCrashAt(K) simulates a power failure when point
 *     K's effect completes, by freezing the event queue (see
 *     EventQueue::requestStop) — the machine state is then exactly what
 *     a real crash at that instant would leave behind.
 *
 * The HTM layer additionally reports transaction outcomes
 * (onTxCommitted / onTxAborted) which the CrashOracle uses as its
 * independent model of what recovery must reproduce.
 */

#ifndef UHTM_CHECK_FAULT_INJECTOR_HH
#define UHTM_CHECK_FAULT_INJECTOR_HH

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "mem/undo_log.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace uhtm
{

class CrashOracle;

/** The kinds of persistence-ordering points the machine exposes. */
enum class PersistPoint
{
    /** NVM redo-log record append (async log write issued). */
    RedoLogAppend,
    /** NVM commit-record write (the transaction's durability point). */
    CommitMark,
    /** NVM abort-flag write. */
    AbortMark,
    /** DRAM-cache eviction of a committed dirty line towards NVM. */
    DramCacheWriteback,
    /** DRAM-cache eviction dropping an uncommitted line. */
    DramCacheDrop,
    /** In-place NVM line write completing (durable image update). */
    InPlaceNvmWrite,
    /** DRAM undo-log record append (old value logged). */
    UndoLogAppend,
    /** DRAM undo commit-mark write. */
    UndoCommitMark,
    /** Undo-log copy-back of one old value during abort. */
    UndoCopyBack,
};

/** Printable persist-point name. */
inline const char *
persistPointName(PersistPoint p)
{
    switch (p) {
      case PersistPoint::RedoLogAppend: return "redo-append";
      case PersistPoint::CommitMark: return "commit-mark";
      case PersistPoint::AbortMark: return "abort-mark";
      case PersistPoint::DramCacheWriteback: return "dcache-writeback";
      case PersistPoint::DramCacheDrop: return "dcache-drop";
      case PersistPoint::InPlaceNvmWrite: return "inplace-nvm-write";
      case PersistPoint::UndoLogAppend: return "undo-append";
      case PersistPoint::UndoCommitMark: return "undo-commit-mark";
      case PersistPoint::UndoCopyBack: return "undo-copyback";
    }
    return "?";
}

/** One numbered persistence-ordering point of the schedule. */
struct PersistEvent
{
    /** Position in the crash schedule (0-based). */
    std::uint64_t index = 0;
    PersistPoint point = PersistPoint::RedoLogAppend;
    Addr line = 0;
    /** Tick at which the operation was issued (notification time). */
    Tick issueTick = 0;
    /** Tick at which its effect is durable (crash candidate tick). */
    Tick completeAt = 0;
};

/** Counter-based crash scheduler over the machine's persist points. */
class FaultInjector
{
  public:
    /** Committed line image of one transaction (NVM write set). */
    struct CommittedLine
    {
        Addr line = 0;
        std::array<std::uint8_t, kLineBytes> data{};
    };

    /** Commit report from the HTM layer. */
    struct CommittedTx
    {
        TxId tx = kNoTx;
        /** Completion tick of the commit-record write (durability
         *  point); 0 for transactions with no NVM write set. */
        Tick commitDurableAt = 0;
        std::vector<CommittedLine> nvmLines;
    };

    /** Pre/speculative images of one aborted line. */
    struct AbortedLine
    {
        Addr line = 0;
        std::array<std::uint8_t, kLineBytes> preImage{};
        std::array<std::uint8_t, kLineBytes> specImage{};
    };

    /** Abort report from the HTM layer. */
    struct AbortedTx
    {
        TxId tx = kNoTx;
        /** The transaction's undo records, in copy-back order (DRAM
         *  rollback). */
        std::vector<UndoEntry> undoEntries;
        std::vector<AbortedLine> lines;
    };

    using PointFn =
        std::function<void(const PersistEvent &, const std::uint8_t *)>;

    explicit FaultInjector(EventQueue &eq) : _eq(eq) {}

    /** Forward every event (and tx outcome) to @p oracle. */
    void setOracle(CrashOracle *oracle) { _oracle = oracle; }

    /** Sweep hook, called synchronously at each point's issue. */
    void setOnPoint(PointFn fn) { _onPoint = std::move(fn); }

    /**
     * Arm a crash at schedule point @p k: when point k is issued, a
     * power failure is scheduled at its completion tick (the event
     * queue freezes there; pending events are lost, exactly like
     * in-flight writes on a real power cut).
     */
    void
    armCrashAt(std::uint64_t k)
    {
        _armed = true;
        _crashAt = k;
    }

    /** True once the armed crash has fired. */
    bool crashed() const { return _crashed; }

    /** Tick at which the armed crash fired. */
    Tick crashTick() const { return _crashTick; }

    /** Points recorded so far (the schedule length). */
    std::uint64_t pointCount() const { return _events.size(); }

    const std::vector<PersistEvent> &events() const { return _events; }

    /** Number of recorded points of kind @p p. */
    std::uint64_t
    countOf(PersistPoint p) const
    {
        std::uint64_t n = 0;
        for (const auto &e : _events)
            n += e.point == p;
        return n;
    }

    /**
     * Record persist point @p point on @p line, issued now. @p
     * complete_at is the tick at which its effect becomes durable (0:
     * now). @p bytes is the 64-byte line image involved, or nullptr
     * when the point carries no data (marks, drops).
     */
    void notifyPersist(PersistPoint point, Addr line, Tick complete_at,
                       const std::uint8_t *bytes);

    /** @name Transaction outcome reports (HTM layer)
     *  @{ */
    void onTxCommitted(CommittedTx rec);
    void onTxAborted(AbortedTx rec);
    /** @} */

  private:
    EventQueue &_eq;
    CrashOracle *_oracle = nullptr;
    PointFn _onPoint;
    std::vector<PersistEvent> _events;

    bool _armed = false;
    std::uint64_t _crashAt = 0;
    bool _crashed = false;
    Tick _crashTick = 0;
};

} // namespace uhtm

#endif // UHTM_CHECK_FAULT_INJECTOR_HH
