/**
 * @file
 * Strict numeric parsing (sim/num_parse.hh) and the flag parsers built
 * on it: table-driven good and bad spellings. Every bad spelling must
 * be rejected, never read as 0, 2^64-1 or a clamped value.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/bench_cli.hh"
#include "sim/num_parse.hh"

namespace uhtm
{
namespace
{

struct U64Case
{
    const char *text;
    int base;
    bool ok;
    std::uint64_t value;
};

TEST(NumParse, U64GoodAndBadSpellings)
{
    const U64Case cases[] = {
        {"0", 10, true, 0},
        {"42", 10, true, 42},
        {"007", 10, true, 7},
        {"18446744073709551615", 10, true, ~0ull},
        {"0x1f", 0, true, 31},
        {"010", 0, true, 8},
        {"400000963000", 16, true, 0x400000963000ull},
        {"0x400000963000", 16, true, 0x400000963000ull},
        {"DeadBeef", 16, true, 0xdeadbeefull},
        {"", 10, false, 0},
        {"abc", 10, false, 0},
        {"-1", 10, false, 0},
        {"+1", 10, false, 0},
        {" 1", 10, false, 0},
        {"1 ", 10, false, 0},
        {"12abc", 10, false, 0},
        {"1.5", 10, false, 0},
        {"0x1f", 10, false, 0},
        {"18446744073709551616", 10, false, 0},
        {"0x", 16, false, 0},
        {"g", 16, false, 0},
    };
    for (const U64Case &c : cases) {
        std::uint64_t v = 12345;
        EXPECT_EQ(parseU64(c.text, v, c.base), c.ok)
            << "'" << c.text << "' base " << c.base;
        EXPECT_EQ(v, c.ok ? c.value : 12345u)
            << "'" << c.text << "' (failure must not write the output)";
    }
}

TEST(NumParse, F64GoodAndBadSpellings)
{
    const struct
    {
        const char *text;
        bool ok;
        double value;
    } cases[] = {
        {"0", true, 0.0},     {"0.99", true, 0.99}, {"1e6", true, 1e6},
        {"-0.5", true, -0.5}, {".5", true, 0.5},    {"", false, 0},
        {"abc", false, 0},    {"0.5x", false, 0},   {" 0.5", false, 0},
        {"nan", false, 0},    {"inf", false, 0},    {"1e999", false, 0},
    };
    for (const auto &c : cases) {
        double v = -7.0;
        EXPECT_EQ(parseF64(c.text, v), c.ok) << "'" << c.text << "'";
        EXPECT_EQ(v, c.ok ? c.value : -7.0) << "'" << c.text << "'";
    }
}

/** parseBenchArgs over one flag; returns the error ("" = accepted). */
std::string
benchArgError(const std::string &flag, BenchCliOpts &opts)
{
    std::string arg = flag;
    char *argv[] = {const_cast<char *>("uhtm_bench"), arg.data()};
    std::string err;
    const bool ok = parseBenchArgs(2, argv, 1, opts, err);
    EXPECT_EQ(ok, err.empty()) << flag;
    return err;
}

TEST(NumParse, BenchFlagsRejectMalformedNumbers)
{
    const char *bad[] = {
        "--jobs=abc",   "--jobs=-1",        "--jobs=",
        "--jobs=4x",    "--jobs=99999",     "--seed=",
        "--seed=-3",    "--seed=0x2a",      "--tx=1e3",
        "--ops= 5",     "--scanmb=+8",      "--tenants=0",
        "--tenants=65", "--tenants=two",    "--zipf-theta=",
        "--zipf-theta=nan", "--zipf-theta=-1", "--rw-mix=0.5.1",
        "--rw-mix=2",
        // Sidecars with nowhere to go would be computed and dropped.
        "--metrics", "--wall",
        // An empty value would silently mean "no JSON/trace/filter".
        "--out=", "--trace=", "--filter=",
    };
    for (const char *flag : bad) {
        BenchCliOpts opts;
        const std::string err = benchArgError(flag, opts);
        EXPECT_FALSE(err.empty()) << flag << " was accepted";
        // The message names the flag, not a generic "unknown argument".
        const std::string name =
            std::string(flag).substr(0, std::string(flag).find('='));
        EXPECT_NE(err.find(name), std::string::npos) << err;
    }

    BenchCliOpts opts;
    EXPECT_EQ(benchArgError("--jobs=4", opts), "");
    EXPECT_EQ(opts.jobs, 4u);
    EXPECT_EQ(benchArgError("--seed=18446744073709551615", opts), "");
    EXPECT_EQ(opts.fig.seed, ~0ull);
    EXPECT_EQ(benchArgError("--zipf-theta=0.99", opts), "");
    EXPECT_EQ(opts.zipfThetaSpec, "0.99");
    EXPECT_NE(benchArgError("--bogus=1", opts).find("unknown argument"),
              std::string::npos);
    // Once --out is set, the sidecar flags are accepted.
    EXPECT_EQ(benchArgError("--out=o", opts), "");
    for (const char *flag : {"--metrics", "--wall"})
        EXPECT_EQ(benchArgError(flag, opts), "") << flag;
    // A removed flag is an error, not silently ignored.
    EXPECT_NE(benchArgError("--self-profile", opts).find("unknown argument"),
              std::string::npos);
}

} // namespace
} // namespace uhtm
