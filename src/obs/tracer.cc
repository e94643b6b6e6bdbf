#include "obs/tracer.hh"

#include <atomic>
#include <cinttypes>
#include <cstring>
#include <filesystem>
#include <mutex>

namespace uhtm::obs
{

namespace
{

// The directory is process-global mutable state shared by sweep
// workers; guard it the simple way — it is read once per Runner
// construction, never on a simulation hot path.
std::mutex g_dirMutex;
std::string g_traceDir;

std::atomic<std::uint64_t> g_traceSeq{0};

} // namespace

std::string
traceDir()
{
    std::lock_guard<std::mutex> lock(g_dirMutex);
    return g_traceDir;
}

void
setTraceDir(const std::string &dir)
{
    std::lock_guard<std::mutex> lock(g_dirMutex);
    g_traceDir = dir;
}

std::string
nextTraceFilePath(const std::string &dir, std::uint64_t seed)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec); // best effort
    char name[64];
    std::snprintf(name, sizeof(name),
                  "trace_s%016" PRIx64 "_%" PRIu64 ".uhtmtrace", seed,
                  g_traceSeq.fetch_add(1, std::memory_order_relaxed));
    return (std::filesystem::path(dir) / name).string();
}

Tracer::Tracer(std::string file_path, std::uint64_t seed,
               std::size_t ring_events)
    : _ring(ring_events ? ring_events : 1), _path(std::move(file_path))
{
    if (_path.empty())
        return;
    _file = std::fopen(_path.c_str(), "wb");
    if (!_file) {
        _failed = true;
        return;
    }
    TraceFileHeader h{};
    std::memcpy(h.magic, kTraceMagic, sizeof(h.magic));
    h.version = kTraceVersion;
    h.eventBytes = sizeof(Event);
    h.ticksPerNs = kTicksPerNs;
    h.seed = seed;
    if (std::fwrite(&h, sizeof(h), 1, _file) != 1)
        _failed = true;
}

Tracer::~Tracer()
{
    if (_file) {
        spill();
        std::fclose(_file);
    }
}

void
Tracer::spill()
{
    if (!_file) {
        _head = 0;
        return;
    }
    if (_head > 0 &&
        std::fwrite(_ring.data(), sizeof(Event), _head, _file) != _head) {
        _failed = true;
    }
    _head = 0;
}

void
Tracer::flush()
{
    if (!_file)
        return;
    spill();
    if (std::fflush(_file) != 0)
        _failed = true;
}

std::vector<Event>
Tracer::events() const
{
    std::vector<Event> out;
    if (_file || !_wrapped || _recorded <= _ring.size()) {
        out.assign(_ring.begin(), _ring.begin() + _head);
        return out;
    }
    // Wrapped memory ring: oldest retained event is at _head.
    out.reserve(_ring.size());
    out.insert(out.end(), _ring.begin() + _head, _ring.end());
    out.insert(out.end(), _ring.begin(), _ring.begin() + _head);
    return out;
}

} // namespace uhtm::obs
