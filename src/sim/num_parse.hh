/**
 * @file
 * Strict numeric parsing for command-line flags and spec knobs.
 *
 * Bare strtoull/strtod accept "" as 0, stop silently at trailing
 * garbage, read "-1" as 2^64-1 and clamp out-of-range values. These
 * wrappers reject all of that, so `--jobs=abc`, `--jobs=-1` and an
 * empty `--seed=` are errors instead of surprising numbers.
 */

#ifndef UHTM_SIM_NUM_PARSE_HH
#define UHTM_SIM_NUM_PARSE_HH

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace uhtm
{

/**
 * Parse all of @p text as an unsigned integer in @p base (0 = C
 * prefixes: 0x hex, 0 octal; 16 also accepts a 0x prefix). Rejects
 * empty input, leading whitespace, any sign, trailing characters and
 * values above 2^64-1. @p out is written only on success.
 */
inline bool
parseU64(const std::string &text, std::uint64_t &out, int base = 10)
{
    if (text.empty() || text[0] == '+' || text[0] == '-' ||
        std::isspace(static_cast<unsigned char>(text[0])))
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, base);
    if (errno == ERANGE || end != text.c_str() + text.size())
        return false;
    out = v;
    return true;
}

/**
 * Parse all of @p text as a finite double. Rejects empty input,
 * leading whitespace, trailing characters, overflow/underflow and
 * inf/nan. A leading sign is allowed; callers range-check the value.
 */
inline bool
parseF64(const std::string &text, double &out)
{
    if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])))
        return false;
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (errno == ERANGE || end != text.c_str() + text.size() ||
        !std::isfinite(v))
        return false;
    out = v;
    return true;
}

} // namespace uhtm

#endif // UHTM_SIM_NUM_PARSE_HH
