/**
 * @file
 * uhtm_bench — unified driver for every reproduced paper figure.
 *
 * Runs a figure's sweep as independent simulation jobs on worker
 * threads that claim them in submission order (exec/scheduler.hh) and
 * emits both the familiar text table and the machine-readable
 * BENCH_<figure>.json trajectory (byte-identical across --jobs values;
 * see exec/result_sink.hh for the schema).
 *
 *   uhtm_bench <figure>|all [flags]     run one figure or all of them
 *   uhtm_bench [flags]                  same as "all" (figures whose
 *                                       jobs are all filtered away are
 *                                       skipped, not errors)
 *   uhtm_bench --list                   list figures
 *
 * A --filter= value that matches a figure's name selects that whole
 * figure, so `uhtm_bench --filter=service --quick` runs exactly the
 * service figure's quick sweep.
 *
 * Examples:
 *   uhtm_bench fig6 --jobs=8 --out=bench-out/
 *   uhtm_bench all --quick --jobs=2 --out=bench-out/
 *   uhtm_bench fig7 --filter=4096 --quick
 *   uhtm_bench --filter=service --quick --jobs=8 --out=bench-out/
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "harness/bench_cli.hh"

using namespace uhtm;

namespace
{

void
printUsage(std::FILE *out)
{
    std::fprintf(out,
                 "usage: uhtm_bench <figure>|all [flags]\n"
                 "       uhtm_bench --list\n\nflags:\n%s\nfigures:\n",
                 benchFlagsHelp());
    for (const figures::Figure &f : figures::all())
        std::fprintf(out, "  %-10s %s\n", f.name.c_str(),
                     f.title.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        printUsage(stderr);
        return 2;
    }
    const std::string cmd = argv[1];
    if (cmd == "--help" || cmd == "-h") {
        printUsage(stdout);
        return 0;
    }
    if (cmd == "--list") {
        for (const figures::Figure &f : figures::all())
            std::printf("%-10s %s\n", f.name.c_str(), f.title.c_str());
        return 0;
    }

    // Flags-first invocation: `uhtm_bench --filter=service --quick`
    // behaves like "all" with the flags starting at argv[1].
    const bool flagsFirst = cmd.rfind("--", 0) == 0;

    BenchCliOpts opts;
    std::string err;
    if (!parseBenchArgs(argc, argv, flagsFirst ? 1 : 2, opts, err)) {
        std::fprintf(stderr, "%s\n", err.c_str());
        printUsage(stderr);
        return 2;
    }

    if (cmd == "all" || flagsFirst) {
        // In the all-figures loop a filter that strips every job from
        // a figure just skips it; erroring would make cross-figure
        // filters useless.
        opts.skipEmptyFilter = true;
        int rc = 0;
        const auto t0 = std::chrono::steady_clock::now();
        for (const figures::Figure &f : figures::all())
            rc |= runFigure(f, opts);
        if (opts.wall) {
            const double total = std::chrono::duration<double>(
                                     std::chrono::steady_clock::now() -
                                     t0)
                                     .count();
            std::printf("\n[all] total %.2fs wall\n", total);
        }
        return rc;
    }

    const figures::Figure *figure = figures::find(cmd);
    if (!figure) {
        std::fprintf(stderr, "unknown figure: %s\n", cmd.c_str());
        printUsage(stderr);
        return 2;
    }
    return runFigure(*figure, opts);
}
