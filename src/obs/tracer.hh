/**
 * @file
 * Transaction lifecycle event tracer.
 *
 * One Tracer per simulation (= per sweep worker, since a simulation is
 * confined to one thread at a time): a lock-free preallocated ring of
 * compact binary events. Two modes:
 *
 *   - file mode (non-empty path): the ring spills to the file whenever
 *     it fills, so the file holds the *complete* event stream in order;
 *   - memory mode (empty path): the ring wraps, keeping the most recent
 *     `capacity` events for in-process inspection (tests, postmortems).
 *
 * Recording is observation only — the simulator's timed/functional
 * behaviour must be identical with and without a tracer attached (the
 * CI observability-invariance gate enforces this byte-for-byte on the
 * bench JSON). Call sites use UHTM_OBS_EVENT, which compiles to a
 * single predictable null-check branch when no tracer is attached.
 */

#ifndef UHTM_OBS_TRACER_HH
#define UHTM_OBS_TRACER_HH

#include <cstdio>
#include <string>
#include <vector>

#include "obs/event.hh"

namespace uhtm::obs
{

class Tracer
{
  public:
    /**
     * @param file_path trace file to write ("" = memory-only ring).
     * @param seed run seed stamped into the file header.
     * @param ring_events ring capacity in events.
     */
    explicit Tracer(std::string file_path = "", std::uint64_t seed = 0,
                    std::size_t ring_events = 1u << 16);

    ~Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Record one event (hot path; inline, no allocation). */
    void
    record(Tick tick, EventKind kind, std::uint16_t core, TxId tx,
           std::uint64_t arg, std::uint32_t extra = 0,
           std::uint8_t flags = 0)
    {
        Event &e = _ring[_head];
        e.tick = tick;
        e.tx = tx;
        e.arg = arg;
        e.extra = extra;
        e.core = core;
        e.kind = kind;
        e.flags = flags;
        ++_recorded;
        if (++_head == _ring.size()) {
            if (_file) {
                spill();
            } else {
                _head = 0; // memory mode: wrap, keep the newest events
                _wrapped = true;
            }
        }
    }

    /** Flush buffered events to the file (no-op in memory mode). */
    void flush();

    /** Total events recorded (including wrapped-over ones). */
    std::uint64_t recorded() const { return _recorded; }

    /**
     * Events currently held in the ring, oldest first. Memory mode
     * only returns the retained window; file mode returns whatever has
     * not been spilled yet.
     */
    std::vector<Event> events() const;

    const std::string &path() const { return _path; }

    /** True if the trace file could not be opened/written. */
    bool failed() const { return _failed; }

  private:
    void spill();

    std::vector<Event> _ring;
    std::size_t _head = 0;
    /** Memory mode: true once the ring has wrapped at least once. */
    bool _wrapped = false;
    std::uint64_t _recorded = 0;
    std::string _path;
    std::FILE *_file = nullptr;
    bool _failed = false;
};

/**
 * Process-wide trace-output directory ("" = tracing disabled, the
 * default). Set only by setTraceDir() (bench --trace=DIR). Returns a
 * copy taken under the lock, so a concurrent setTraceDir() is safe.
 */
std::string traceDir();
void setTraceDir(const std::string &dir);

/**
 * Next unique trace-file path under @p dir for a run with @p seed:
 * "<dir>/trace_s<seed-hex>_<seq>.uhtmtrace". The sequence number is a
 * process-wide atomic, so concurrent sweep workers never collide. File
 * names (not contents) may therefore vary across --jobs values; trace
 * files are diagnostic artifacts, never golden-compared.
 */
std::string nextTraceFilePath(const std::string &dir, std::uint64_t seed);

} // namespace uhtm::obs

/**
 * Record an observability event iff a tracer is attached. @p tracer is
 * a (possibly null) obs::Tracer*; when null this is one predictable
 * branch and nothing else — the arguments are not evaluated.
 */
#define UHTM_OBS_EVENT(tracer, ...)                                        \
    do {                                                                   \
        if (__builtin_expect((tracer) != nullptr, 0))                      \
            (tracer)->record(__VA_ARGS__);                                 \
    } while (0)

#endif // UHTM_OBS_TRACER_HH
