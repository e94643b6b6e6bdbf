#include "check/crash_oracle.hh"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstring>

#include "htm/htm_system.hh"

namespace uhtm
{

CrashOracle::LineLedger &
CrashOracle::ledgerFor(Addr line)
{
    auto it = _lines.find(line);
    if (it == _lines.end()) {
        // First sighting: the durable image still holds the pre-run /
        // pre-write value (HtmSystem::enqueueDurableWrite notifies the
        // InPlaceNvmWrite point before MemoryImage::queue takes the
        // write), which becomes the baseline.
        it = _lines.emplace(line, LineLedger{}).first;
        _sys.durableNvm().readLine(line, it->second.baseline.data());
    }
    return it->second;
}

std::string
CrashOracle::hexPrefix(const LineBytes &b)
{
    char buf[2 * 8 + 3];
    char *p = buf;
    for (unsigned i = 0; i < 8; ++i)
        p += std::snprintf(p, 3, "%02x", b[i]);
    *p++ = '.';
    *p++ = '.';
    *p = '\0';
    return buf;
}

void
CrashOracle::addViolation(std::uint64_t point, Tick t, Addr line,
                          const char *kind, std::string detail)
{
    _violations.push_back(
        Violation{point, t, line, kind, std::move(detail)});
}

void
CrashOracle::onPersist(const PersistEvent &ev, const std::uint8_t *bytes)
{
    switch (ev.point) {
      case PersistPoint::RedoLogAppend: {
        // The line now carries speculative transactional data; from
        // here on, every durable in-place write of it must be either
        // committed data or the old value.
        ledgerFor(ev.line).speculative = true;
        break;
      }
      case PersistPoint::InPlaceNvmWrite: {
        LineLedger &led = ledgerFor(ev.line);
        if (led.speculative) {
            bool sanctioned =
                std::memcmp(bytes, led.baseline.data(), kLineBytes) == 0;
            for (auto it = led.committed.rbegin();
                 !sanctioned && it != led.committed.rend(); ++it) {
                sanctioned =
                    std::memcmp(bytes, it->bytes.data(), kLineBytes) == 0;
            }
            for (auto it = led.durables.rbegin();
                 !sanctioned && it != led.durables.rend(); ++it) {
                // Re-writing an already-durable value (e.g. a second
                // eviction) is harmless.
                sanctioned =
                    std::memcmp(bytes, it->bytes.data(), kLineBytes) == 0;
            }
            if (!sanctioned) {
                addViolation(ev.index, ev.completeAt, ev.line, "leak",
                             "uncommitted bytes written to in-place NVM");
            }
        }
        // Points arrive at issue; keep the versions in the order the
        // durable image applies them, (due, issue), so the newest
        // version due by a crash tick is the one the image holds.
        DurableVersion v;
        v.tick = ev.completeAt;
        std::memcpy(v.bytes.data(), bytes, kLineBytes);
        led.durables.insert(
            std::upper_bound(led.durables.begin(), led.durables.end(),
                             v.tick,
                             [](Tick t, const DurableVersion &d) {
                                 return t < d.tick;
                             }),
            v);
        break;
      }
      default:
        break; // marks, drops and DRAM-side points carry no NVM data
    }
}

void
CrashOracle::onTxCommitted(const FaultInjector::CommittedTx &rec)
{
    for (const auto &cl : rec.nvmLines) {
        LineLedger &led = ledgerFor(cl.line);
        led.speculative = true;
        TxVersion v;
        v.tx = rec.tx;
        v.commitDurableAt = rec.commitDurableAt;
        v.bytes = cl.data;
        led.committed.push_back(v);
    }
}

void
CrashOracle::onTxAborted(const FaultInjector::AbortedTx &rec)
{
    // Rollback invariants are checked immediately: the abort protocol
    // just ran, so the machine must already be clean of this
    // transaction's speculative state.
    std::unordered_map<Addr, const FaultInjector::AbortedLine *> by_line;
    for (const auto &al : rec.lines)
        by_line.emplace(al.line, &al);

    for (const UndoEntry &e : rec.undoEntries) {
        auto it = by_line.find(e.line);
        if (it == by_line.end())
            continue;
        if (std::memcmp(e.oldData.data(), it->second->preImage.data(),
                        kLineBytes) != 0) {
            addViolation(kNoPoint, 0, e.line, "rollback",
                         "undo record holds a non-pre-transaction image");
        }
    }

    for (const auto &al : rec.lines) {
        if (std::memcmp(al.preImage.data(), al.specImage.data(),
                        kLineBytes) == 0) {
            continue; // write restored the old value; nothing to leak
        }
        LineBytes cur;
        _sys.store().readLine(al.line, cur.data());
        if (std::memcmp(cur.data(), al.specImage.data(), kLineBytes) ==
            0) {
            addViolation(kNoPoint, 0, al.line, "rollback",
                         "aborted tx bytes visible in the architectural "
                         "store");
        }
        if (MemLayout::kindOf(al.line) == MemKind::Nvm) {
            DramCacheEntry *e = _sys.dramCache().peek(al.line);
            if (e && e->tx == rec.tx && !e->invalidated) {
                addViolation(kNoPoint, 0, al.line, "rollback",
                             "aborted tx entry live in the DRAM cache");
            }
        }
    }
}

const CrashOracle::LineBytes *
CrashOracle::expectedAt(const LineLedger &led, Tick t,
                        bool *from_committed) const
{
    for (auto it = led.committed.rbegin(); it != led.committed.rend();
         ++it) {
        if (it->commitDurableAt <= t) {
            *from_committed = true;
            return &it->bytes;
        }
    }
    *from_committed = false;
    for (auto it = led.durables.rbegin(); it != led.durables.rend();
         ++it) {
        if (it->tick <= t)
            return &it->bytes;
    }
    return &led.baseline;
}

std::size_t
CrashOracle::checkCrashAt(Tick crash_tick, bool full_image,
                          std::uint64_t point_index)
{
    assert(crash_tick == _sys.eventQueue().now() &&
           "crash checks read durable state as of the current tick");
    ++_checksRun;
    const std::size_t before = _violations.size();

    // Recovery of @p line produced @p got; @p what names the path.
    auto expect = [&](Addr line, const LineLedger &led,
                      const LineBytes &got, const char *what) {
        bool from_committed = false;
        const LineBytes *want =
            expectedAt(led, crash_tick, &from_committed);
        if (std::memcmp(got.data(), want->data(), kLineBytes) != 0) {
            addViolation(point_index, crash_tick, line,
                         from_committed ? "durability" : "atomicity",
                         what + hexPrefix(got) + " expected " +
                             hexPrefix(*want));
        }
    };
    for (const auto &[line, led] : _lines) {
        LineBytes rec;
        _sys.redoLog().recoverLine(_sys.durableNvm(), line, crash_tick,
                                   rec);
        expect(line, led, rec, "recovered ");
    }
    if (full_image) {
        BackingStore img = _sys.recoverAfterCrash();
        for (const auto &[line, led] : _lines) {
            LineBytes got;
            img.readLine(line, got.data());
            expect(line, led, got, "full-image recovered ");
        }
    }

    return _violations.size() - before;
}

std::size_t
CrashOracle::checkDrained()
{
    const MemoryImage::Lag &lag = _sys.durableNvm().lag();
    for (const auto &[line, bytes] : lag)
        addViolation(kNoPoint, _sys.eventQueue().now(), line, "drain",
                     "in-place NVM differs from the store when drained");
    return lag.size();
}

} // namespace uhtm
