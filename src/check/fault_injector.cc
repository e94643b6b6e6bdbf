#include "check/fault_injector.hh"

#include "check/crash_oracle.hh"

namespace uhtm
{

void
FaultInjector::notifyPersist(PersistPoint point, Addr line,
                             Tick complete_at, const std::uint8_t *bytes)
{
    if (_crashed)
        return; // power is off; nothing persists any more
    const Tick at = complete_at ? complete_at : _eq.now();
    const PersistEvent ev{_events.size(), point, line, _eq.now(), at};
    _events.push_back(ev);

    if (_oracle)
        _oracle->onPersist(ev, bytes);
    if (_onPoint)
        _onPoint(ev, bytes);

    if (_armed && ev.index == _crashAt) {
        // The power failure takes effect when this point's write
        // completes: everything ordered before it is durable, every
        // in-flight write after it is lost (its event never runs, or
        // its queued in-place write is past the crash horizon).
        _eq.scheduleAt(at, [this] {
            _crashed = true;
            _crashTick = _eq.now();
            _eq.requestStop();
        });
    }
}

void
FaultInjector::onTxCommitted(CommittedTx rec)
{
    if (_crashed)
        return;
    if (_oracle)
        _oracle->onTxCommitted(rec);
}

void
FaultInjector::onTxAborted(AbortedTx rec)
{
    if (_crashed)
        return;
    if (_oracle)
        _oracle->onTxAborted(rec);
}

} // namespace uhtm
