#include "fault/fault_map.hh"

#include <algorithm>

#include "common/log.hh"

namespace killi
{

FaultMap::FaultMap(std::shared_ptr<const FaultPopulation> population,
                   std::size_t line_bits, const VoltageModel &model,
                   double freq_ghz)
    : bitsPerLine(line_bits), freqGHz(freq_ghz), vModel(&model),
      die(std::move(population))
{
    if (line_bits > 0xFFFF)
        fatal("FaultMap: line width %zu exceeds 16-bit positions",
              line_bits);
    const FaultPopulation &lines = *die;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::vector<FaultCell> &cells = lines[i];
        for (std::size_t j = 0; j < cells.size(); ++j) {
            if (cells[j].bit >= line_bits)
                fatal("FaultMap: population line %zu cell %u outside "
                      "%zu-bit line", i, cells[j].bit, line_bits);
            if (j > 0 && cells[j].bit <= cells[j - 1].bit)
                fatal("FaultMap: population line %zu not sorted "
                      "strictly by bit at position %zu", i, j);
        }
    }
    active.resize(lines.size());
    transientFlips.resize(lines.size());
    setVoltage(1.0);
}

void
FaultMap::setVoltage(double vNorm)
{
    // A bit-exact re-set of the current operating point is an
    // idempotent no-op, not a rejected "raise": warm-store hits and
    // replayed jobs legitimately re-apply the point voltage. Gated
    // on voltageApplied because the constructor calls
    // setVoltage(1.0) with currentV pre-initialized to 1.0 and that
    // first call must still activate.
    if (voltageApplied && vNorm == currentV)
        return;
    if (monotoneDeclared && vNorm > currentV)
        fatal("FaultMap::setVoltage: raising %.4g -> %.4g violates "
              "the declared monotone voltage regime (only droop-"
              "scheduled models may raise V)", currentV, vNorm);
    currentV = vNorm;
    coldActivate(vModel->pCell(vNorm, freqGHz));
    voltageApplied = true;
}

void
FaultMap::coldActivate(double p)
{
    const FaultPopulation &lines = *die;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::vector<FaultCell> &src = lines[i];
        std::vector<FaultCell> &dst = active[i];
        dst.clear();
        // Count first so the copy lands in one exact-sized
        // allocation (a no-op once capacity has been established).
        std::size_t n = 0;
        for (const FaultCell &cell : src)
            n += cell.threshold < p;
        if (n == 0)
            continue;
        dst.reserve(n);
        for (const FaultCell &cell : src) {
            if (cell.threshold < p)
                dst.push_back(cell);
        }
    }
}

unsigned
FaultMap::countFaults(std::size_t line, std::size_t prefix_bits) const
{
    unsigned count = 0;
    for (const FaultCell &cell : active[line]) {
        if (cell.bit >= prefix_bits)
            break; // sorted: everything after is out of the prefix
        ++count;
    }
    return count;
}

bool
FaultMap::isStuck(std::size_t line, std::uint16_t bit) const
{
    const std::vector<FaultCell> &cells = active[line];
    const auto it = std::lower_bound(
        cells.begin(), cells.end(), bit,
        [](const FaultCell &c, std::uint16_t b) { return c.bit < b; });
    return it != cells.end() && it->bit == bit;
}

std::vector<std::size_t>
FaultMap::visibleErrors(std::size_t line, const BitVec &value) const
{
    std::vector<std::size_t> flipped;
    visibleErrorsInto(line, value, flipped);
    return flipped;
}

void
FaultMap::visibleErrorsInto(std::size_t line, const BitVec &value,
                            std::vector<std::size_t> &out) const
{
    out.clear();
    for (const FaultCell &cell : active[line]) {
        if (cell.bit < value.size() &&
            value.get(cell.bit) != cell.stuckValue) {
            out.push_back(cell.bit);
        }
    }
    // Soft-error upsets flip healthy cells (stuck cells hold their
    // defect-driven value regardless).
    for (const std::uint16_t bit : transientFlips[line]) {
        if (bit < value.size() && !isStuck(line, bit))
            out.push_back(bit);
    }
}

std::vector<std::size_t>
FaultMap::visibleErrors(std::size_t line, const BitVec &data,
                        const BitVec &meta) const
{
    std::vector<std::size_t> flipped;
    visibleErrorsInto(line, data, meta, flipped);
    return flipped;
}

void
FaultMap::visibleErrorsInto(std::size_t line, const BitVec &data,
                            const BitVec &meta,
                            std::vector<std::size_t> &out) const
{
    out.clear();
    const std::size_t split = data.size();
    for (const FaultCell &cell : active[line]) {
        bool stored;
        if (cell.bit < split)
            stored = data.get(cell.bit);
        else if (cell.bit < split + meta.size())
            stored = meta.get(cell.bit - split);
        else
            continue;
        if (stored != cell.stuckValue)
            out.push_back(cell.bit);
    }
    for (const std::uint16_t bit : transientFlips[line]) {
        if (bit < split + meta.size() && !isStuck(line, bit))
            out.push_back(bit);
    }
}

unsigned
FaultMap::applyFaults(std::size_t line, BitVec &value) const
{
    unsigned flipped = 0;
    for (const FaultCell &cell : active[line]) {
        if (cell.bit < value.size() &&
            value.get(cell.bit) != cell.stuckValue) {
            value.flip(cell.bit);
            ++flipped;
        }
    }
    for (const std::uint16_t bit : transientFlips[line]) {
        if (bit < value.size() && !isStuck(line, bit)) {
            value.flip(bit);
            ++flipped;
        }
    }
    return flipped;
}

void
FaultMap::injectTransient(std::size_t line, std::uint16_t bit)
{
    if (line >= transientFlips.size() || bit >= bitsPerLine)
        fatal("FaultMap::injectTransient: out of range (%zu, %u)",
              line, bit);
    // A second upset on the same cell flips it back.
    auto &flips = transientFlips[line];
    const auto it = std::find(flips.begin(), flips.end(), bit);
    if (it != flips.end())
        flips.erase(it);
    else
        flips.push_back(bit);
}

void
FaultMap::clearTransients(std::size_t line)
{
    transientFlips[line].clear();
}

void
FaultMap::plantFault(std::size_t line, std::uint16_t bit,
                     bool stuck_value, FaultKind kind)
{
    if (line >= die->size() || bit >= bitsPerLine)
        fatal("FaultMap::plantFault: out of range (%zu, %u)", line,
              bit);
    if (!ownDie) {
        // Copy on first write: other maps may share the die.
        ownDie = std::make_shared<FaultPopulation>(*die);
        die = ownDie;
    }
    FaultPopulation &lines = *ownDie;
    // Replace any sampled potential fault at this position so the
    // planted cell fully defines the bit's behaviour.
    const auto drop = [bit](std::vector<FaultCell> &cells) {
        std::erase_if(cells, [bit](const FaultCell &c) {
            return c.bit == bit;
        });
    };
    drop(lines[line]);
    drop(active[line]);
    FaultCell cell;
    cell.bit = bit;
    cell.threshold = -1.0f; // below every pCell: always active
    cell.stuckValue = stuck_value;
    cell.kind = kind;
    // Keep the by-bit sort invariant isStuck()'s binary search needs.
    const auto insertSorted = [&cell](std::vector<FaultCell> &cells) {
        const auto it = std::lower_bound(
            cells.begin(), cells.end(), cell.bit,
            [](const FaultCell &c, std::uint16_t b) {
                return c.bit < b;
            });
        cells.insert(it, cell);
    };
    insertSorted(lines[line]);
    insertSorted(active[line]);
}

FaultMap::LineHistogram
FaultMap::histogram(std::size_t prefix_bits) const
{
    LineHistogram hist;
    for (std::size_t i = 0; i < active.size(); ++i) {
        const unsigned n = countFaults(i, prefix_bits);
        if (n == 0)
            ++hist.zero;
        else if (n == 1)
            ++hist.one;
        else
            ++hist.twoPlus;
    }
    return hist;
}

} // namespace killi
