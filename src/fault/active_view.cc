#include "fault/active_view.hh"

#include <algorithm>
#include <atomic>
#include <limits>

#include "common/log.hh"

namespace killi
{

namespace
{

std::atomic<std::uint64_t> gBuilds{0};

} // namespace

ActiveView::ActiveView(const FaultPopulation &die, std::size_t line_bits,
                       const VoltageModel &model, double vNorm_,
                       double freq_ghz)
    : bitsPerLine(line_bits), vNorm(vNorm_),
      p(model.pCell(vNorm_, freq_ghz))
{
    if (line_bits > 0xFFFF)
        fatal("FaultMap: line width %zu exceeds 16-bit positions",
              line_bits);
    offsets.reserve(die.size() + 1);
    offsets.push_back(0);
    for (std::size_t i = 0; i < die.size(); ++i) {
        const std::vector<FaultCell> &src = die[i];
        for (std::size_t j = 0; j < src.size(); ++j) {
            const FaultCell &cell = src[j];
            if (cell.bit >= line_bits)
                fatal("FaultMap: population line %zu cell %u outside "
                      "%zu-bit line", i, cell.bit, line_bits);
            if (j > 0 && cell.bit <= src[j - 1].bit)
                fatal("FaultMap: population line %zu not sorted "
                      "strictly by bit at position %zu", i, j);
            if (cell.threshold < p)
                cells.push_back(cell);
        }
        if (cells.size() > std::numeric_limits<std::uint32_t>::max())
            fatal("ActiveView: more than 2^32 active cells");
        offsets.push_back(static_cast<std::uint32_t>(cells.size()));
    }
    gBuilds.fetch_add(1, std::memory_order_relaxed);
}

void
ActiveView::plant(std::size_t line, const FaultCell &cell)
{
    const auto first = cells.begin() + offsets[line];
    const auto last = cells.begin() + offsets[line + 1];
    const auto it = std::lower_bound(
        first, last, cell.bit,
        [](const FaultCell &c, std::uint16_t b) { return c.bit < b; });
    if (it != last && it->bit == cell.bit) {
        *it = cell;
        return;
    }
    cells.insert(it, cell);
    for (std::size_t l = line + 1; l < offsets.size(); ++l)
        ++offsets[l];
}

std::uint64_t
ActiveView::builds()
{
    return gBuilds.load(std::memory_order_relaxed);
}

} // namespace killi
