/**
 * @file
 * Plain-text table formatting for the figure renderers: each figure
 * prints the rows/series of the paper figure it regenerates.
 */

#ifndef UHTM_HARNESS_REPORT_HH
#define UHTM_HARNESS_REPORT_HH

#include <cstdio>
#include <string>
#include <vector>

namespace uhtm
{

/** Fixed-width text table. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers)
        : _headers(std::move(headers))
    {
    }

    void
    addRow(std::vector<std::string> cells)
    {
        _rows.push_back(std::move(cells));
    }

    /** Format a double with @p prec digits. */
    static std::string
    num(double v, int prec = 2)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
        return buf;
    }

    /** Format a percentage. */
    static std::string
    pct(double v, int prec = 1)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.*f%%", prec, v * 100.0);
        return buf;
    }

    void
    print(std::FILE *out = stdout) const
    {
        std::vector<std::size_t> widths(_headers.size(), 0);
        for (std::size_t c = 0; c < _headers.size(); ++c)
            widths[c] = _headers[c].size();
        for (const auto &row : _rows)
            for (std::size_t c = 0; c < row.size() && c < widths.size();
                 ++c)
                widths[c] = std::max(widths[c], row[c].size());

        auto rule = [&] {
            for (std::size_t c = 0; c < widths.size(); ++c) {
                std::fputc('+', out);
                for (std::size_t i = 0; i < widths[c] + 2; ++i)
                    std::fputc('-', out);
            }
            std::fputs("+\n", out);
        };
        auto line = [&](const std::vector<std::string> &cells) {
            for (std::size_t c = 0; c < widths.size(); ++c) {
                const std::string &cell =
                    c < cells.size() ? cells[c] : std::string();
                std::fprintf(out, "| %-*s ",
                             static_cast<int>(widths[c]), cell.c_str());
            }
            std::fputs("|\n", out);
        };
        rule();
        line(_headers);
        rule();
        for (const auto &row : _rows)
            line(row);
        rule();
    }

  private:
    std::vector<std::string> _headers;
    std::vector<std::vector<std::string>> _rows;
};

/** Section banner for bench output. */
inline void
printBanner(const std::string &title, std::FILE *out = stdout)
{
    std::fprintf(out, "\n=== %s ===\n\n", title.c_str());
}

} // namespace uhtm

#endif // UHTM_HARNESS_REPORT_HH
