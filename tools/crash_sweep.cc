/**
 * @file
 * Crash-point sweep CLI.
 *
 * Enumerates every persistence-ordering point of a small workload and
 * checks the crash-recovery invariants (durability, atomicity, DRAM
 * rollback) at each one; failures are shrunk to the smallest
 * reproducing crash point, replayable with --crash-at.
 *
 *   crash_sweep --workload=kv_hybrid            # sweep all points
 *   crash_sweep --workload=btree --seed=3
 *   crash_sweep --crash-at=117                  # replay one crash
 *   crash_sweep --break-commit-order            # prove detection
 *   crash_sweep --list                          # dump the schedule
 */

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>

#include "harness/crash_sweep.hh"
#include "sim/num_parse.hh"

namespace
{

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --workload=kv_hybrid|btree  workload to sweep (default "
        "kv_hybrid)\n"
        "  --seed=N                    run seed (default 1)\n"
        "  --stride=N                  full-image check stride "
        "(default 64)\n"
        "  --crash-at=K                replay a single crash at point "
        "K\n"
        "  --break-commit-order        deliberately break commit-mark "
        "ordering\n"
        "  --list                      print the crash-point schedule\n"
        "  --verbose                   print every violation\n",
        argv0);
}

/**
 * True if @p arg is `<prefix>N` with N a valid unsigned integer (C
 * prefixes allowed: 0x for hex). A matching prefix with a malformed N
 * returns false and sets @p bad.
 */
bool
u64Flag(const char *arg, const char *prefix, std::uint64_t *out,
        bool *bad)
{
    const std::size_t n = std::strlen(prefix);
    if (std::strncmp(arg, prefix, n) != 0)
        return false;
    if (uhtm::parseU64(arg + n, *out, 0))
        return true;
    std::fprintf(stderr, "%.*s: not an unsigned integer: '%s'\n",
                 static_cast<int>(n - 1), prefix, arg + n);
    *bad = true;
    return false;
}

/** Report a well-formed but invalid @p flag value; @return exit code 2. */
int
rejectValue(const char *argv0, const char *flag, const char *why)
{
    std::fprintf(stderr, "%s: %s\n", flag, why);
    usage(argv0);
    return 2;
}

void
printViolations(const uhtm::CrashSweepResult &res, std::size_t limit)
{
    std::size_t shown = 0;
    for (const auto &v : res.violations) {
        if (shown++ >= limit) {
            std::printf("  ... %zu more\n",
                        res.violations.size() - limit);
            break;
        }
        std::printf("  point=%" PRIu64 " tick=%" PRIu64
                    " line=%#llx %s: %s\n",
                    v.pointIndex, v.crashTick,
                    static_cast<unsigned long long>(v.line), v.kind,
                    v.detail.c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace uhtm;

    std::string workload = "kv_hybrid";
    CrashSweepConfig cfg;
    std::uint64_t crash_at = CrashOracle::kNoPoint;
    bool list = false;
    bool verbose = false;

    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        std::uint64_t v = 0;
        bool bad = false;
        if (std::strncmp(a, "--workload=", 11) == 0) {
            workload = a + 11;
        } else if (u64Flag(a, "--seed=", &v, &bad)) {
            cfg.seed = v;
        } else if (u64Flag(a, "--stride=", &v, &bad)) {
            if (v == 0)
                return rejectValue(argv[0], "--stride", "must be at least 1");
            cfg.fullImageStride = v;
        } else if (u64Flag(a, "--crash-at=", &v, &bad)) {
            if (v == CrashOracle::kNoPoint) {
                return rejectValue(argv[0], "--crash-at",
                                   "2^64-1 is not a crash point index");
            }
            crash_at = v;
        } else if (std::strcmp(a, "--break-commit-order") == 0) {
            cfg.breakCommitMarkOrdering = true;
        } else if (std::strcmp(a, "--list") == 0) {
            list = true;
        } else if (std::strcmp(a, "--verbose") == 0) {
            verbose = true;
        } else if (std::strcmp(a, "--help") == 0 ||
                   std::strcmp(a, "-h") == 0) {
            usage(argv[0]);
            return 0;
        } else {
            if (!bad)
                std::fprintf(stderr, "unknown argument: %s\n", a);
            usage(argv[0]);
            return 2;
        }
    }

    CrashSweepRunner::WorkloadFn fn;
    if (workload == "kv_hybrid") {
        fn = CrashSweepRunner::kvHybridWorkload();
    } else if (workload == "btree") {
        fn = CrashSweepRunner::btreeWorkload();
    } else {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     workload.c_str());
        usage(argv[0]);
        return 2;
    }

    CrashSweepRunner runner(cfg, std::move(fn));

    if (crash_at != CrashOracle::kNoPoint) {
        const CrashSweepResult res = runner.replay(crash_at);
        std::printf("replay %s crash-at=%" PRIu64 ": %" PRIu64
                    " points, crash tick %" PRIu64 ", %zu violations\n",
                    workload.c_str(), crash_at, res.points,
                    res.crashTick, res.violations.size());
        printViolations(res, verbose ? res.violations.size() : 10);
        return res.passed() ? 0 : 1;
    }

    const CrashSweepResult res = runner.sweep();
    std::printf("sweep %s: %" PRIu64 " crash points, %" PRIu64
                " checks, %" PRIu64 " NVM lines tracked\n",
                workload.c_str(), res.points, res.checks,
                res.linesTracked);
    for (std::size_t k = 0; k < res.pointsByKind.size(); ++k) {
        if (res.pointsByKind[k]) {
            std::printf("  %-18s %" PRIu64 "\n",
                        persistPointName(static_cast<PersistPoint>(k)),
                        res.pointsByKind[k]);
        }
    }
    if (list) {
        std::printf("schedule (replay any index with --crash-at=K):\n");
        for (const PersistEvent &ev : res.schedule) {
            std::printf("  %6" PRIu64 "  %-18s line=%#llx issue=%" PRIu64
                        " durable=%" PRIu64 "\n",
                        ev.index, persistPointName(ev.point),
                        static_cast<unsigned long long>(ev.line),
                        ev.issueTick, ev.completeAt);
        }
    }

    if (!res.passed()) {
        std::printf("FAIL: %zu violations\n", res.violations.size());
        printViolations(res, verbose ? res.violations.size() : 10);
        const std::uint64_t k = runner.shrink(res);
        if (k != CrashOracle::kNoPoint) {
            std::printf("minimal reproducing crash point: %" PRIu64
                        " (replay with --crash-at=%" PRIu64 ")\n",
                        k, k);
        }
        return 1;
    }
    std::printf("PASS: all crash points satisfy durability, atomicity "
                "and rollback\n");
    return 0;
}
