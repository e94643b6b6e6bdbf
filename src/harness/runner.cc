#include "harness/runner.hh"

#include <cassert>
#include <stdexcept>

#include "obs/collect.hh"

namespace uhtm
{

Runner::Runner(MachineConfig mcfg, HtmPolicy policy, std::uint64_t seed)
    : _sys(_eq, mcfg, policy), _seed(seed)
{
    // Binary event tracing is opt-in (--trace=DIR):
    // one tracer per run, one file per run, spilled as it fills. A
    // trace that cannot be written fails the run rather than silently
    // producing nothing.
    const std::string dir = obs::traceDir();
    if (!dir.empty()) {
        _tracer = std::make_unique<obs::Tracer>(
            obs::nextTraceFilePath(dir, seed), seed);
        if (_tracer->failed())
            throw std::runtime_error("cannot open trace file " +
                                     _tracer->path());
        _sys.setTracer(_tracer.get());
    }
}

DomainId
Runner::addDomain(const std::string &name)
{
    return _sys.createDomain(name);
}

CoTask<void>
Runner::rootTask(Slot &slot)
{
    co_await slot.fn(*slot.ctx);
    slot.done = true;
    slot.finishTick = _eq.now();
}

TxContext &
Runner::addSlot(DomainId domain, WorkerFn fn, bool background)
{
    assert(_nextCore < _sys.machine().cores &&
           "more workloads than cores; raise MachineConfig::cores");
    auto slot = std::make_unique<Slot>();
    slot->ctx = std::make_unique<TxContext>(_sys, _nextCore, domain,
                                            _seed * 7919 + _nextCore);
    ++_nextCore;
    slot->fn = std::move(fn);
    slot->background = background;
    _slots.push_back(std::move(slot));
    return *_slots.back()->ctx;
}

TxContext &
Runner::addWorker(DomainId domain, WorkerFn fn)
{
    return addSlot(domain, std::move(fn), false);
}

TxContext &
Runner::addBackground(DomainId domain, WorkerFn fn)
{
    return addSlot(domain, std::move(fn), true);
}

bool
Runner::workersDone() const
{
    for (const auto &s : _slots)
        if (!s->background && !s->done)
            return false;
    return true;
}

RunMetrics
Runner::run()
{
    // Coroutine frames and TxDescs created while driving this run come
    // from the job arena; anything surviving past this scope (frames
    // destroyed in ~Runner, descriptors in ~HtmSystem) still frees into
    // _arena, which outlives both.
    ArenaScope scope(_arena);

    for (auto &s : _slots) {
        s->task = rootTask(*s);
        s->task.start();
    }

    _eq.runWhile([this] { return !workersDone(); });
    const Tick end_tick = _eq.now();

    // Let background loops observe the stop flag and unwind, and let
    // in-flight events (durable writes, lock releases) drain.
    _control.stopBackground = true;
    _eq.run();

    RunMetrics m;
    m.endTick = end_tick;
    m.simSeconds = secondsFromTicks(end_tick);
    m.hostEventsExecuted = _eq.executed();
    m.memory = _sys.memoryLedger();
    m.htm = _sys.stats();
    m.committedTxs = m.htm.commits;
    m.committedOps = _control.opsCommitted;
    m.abortRate = m.htm.abortRate();
    m.domainOps = _control.domainOps;
    for (const auto &s : _slots) {
        if (!s->background) {
            Tick &end = m.domainEndTick[s->ctx->domain()];
            end = std::max(end, s->finishTick);
        }
        TxContextStats &agg = m.domainCtx[s->ctx->domain()];
        const TxContextStats &cs = s->ctx->stats();
        agg.commits += cs.commits;
        agg.serializedCommits += cs.serializedCommits;
        agg.aborts += cs.aborts;
        agg.maxAttempts = std::max(agg.maxAttempts, cs.maxAttempts);
    }
    if (m.simSeconds > 0) {
        m.txPerSec = static_cast<double>(m.committedTxs) / m.simSeconds;
        m.opsPerSec = static_cast<double>(m.committedOps) / m.simSeconds;
    }

    obs::MetricsRegistry reg;
    obs::collectSystemMetrics(_sys, reg);
    for (const MetricsExporter &exporter : _exporters)
        exporter(reg);
    m.registry = reg.snapshot();

    if (_tracer) {
        _tracer->flush();
        if (_tracer->failed())
            throw std::runtime_error("cannot write trace file " +
                                     _tracer->path());
    }
    return m;
}

} // namespace uhtm
