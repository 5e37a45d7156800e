#include "fault/fault_map.hh"

#include <algorithm>

#include "common/log.hh"

namespace killi
{

FaultMap::FaultMap(std::shared_ptr<const FaultPopulation> population,
                   std::size_t line_bits, const VoltageModel &model,
                   double freq_ghz)
    : freqGHz(freq_ghz), vModel(&model), die(std::move(population)),
      view(std::make_shared<const ActiveView>(*die, line_bits, model,
                                              1.0, freq_ghz))
{
}

FaultMap::FaultMap(std::shared_ptr<const FaultPopulation> population,
                   std::shared_ptr<const ActiveView> shared,
                   const VoltageModel &model, double freq_ghz)
    : freqGHz(freq_ghz), vModel(&model), die(std::move(population)),
      view(std::move(shared))
{
    checkAdoptable(*view);
}

void
FaultMap::checkAdoptable(const ActiveView &v) const
{
    if (v.numLines() != die->size() ||
        v.pCell() != vModel->pCell(v.voltage(), freqGHz))
        fatal("FaultMap: the adopted view (%zu lines at %.4g x VDD) "
              "is not of this %zu-line die at that operating point",
              v.numLines(), v.voltage(), die->size());
}

void
FaultMap::setVoltage(double vNorm,
                     std::shared_ptr<const ActiveView> shared)
{
    // A bit-exact re-set of the current operating point is an
    // idempotent no-op, not a rejected "raise": warm-store hits and
    // replayed jobs legitimately re-apply the point voltage.
    if (vNorm == voltage())
        return;
    if (monotoneDeclared && vNorm > voltage())
        fatal("FaultMap::setVoltage: raising %.4g -> %.4g violates "
              "the declared monotone voltage regime (only droop-"
              "scheduled models may raise V)", voltage(), vNorm);
    if (ownDie) {
        // Planted faults live only in this map's private die.
        ownView = std::make_shared<ActiveView>(*ownDie, lineBits(),
                                               *vModel, vNorm, freqGHz);
        view = ownView;
    } else if (shared) {
        if (shared->voltage() != vNorm ||
            shared->lineBits() != lineBits())
            fatal("FaultMap::setVoltage: the handed view is of %zu-bit "
                  "lines at %.4g x VDD, not of this map at %.4g",
                  shared->lineBits(), shared->voltage(), vNorm);
        checkAdoptable(*shared);
        view = std::move(shared);
    } else {
        view = std::make_shared<const ActiveView>(*die, lineBits(),
                                                  *vModel, vNorm,
                                                  freqGHz);
    }
}

unsigned
FaultMap::countFaults(std::size_t line, std::size_t prefix_bits) const
{
    unsigned count = 0;
    for (const FaultCell &cell : lineFaults(line)) {
        if (cell.bit >= prefix_bits)
            break; // sorted: everything after is out of the prefix
        ++count;
    }
    return count;
}

bool
FaultMap::isStuck(std::size_t line, std::uint16_t bit) const
{
    const std::span<const FaultCell> cells = lineFaults(line);
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
    for (const FaultCell &cell : lineFaults(line)) {
        if (cell.bit < value.size() &&
            value.get(cell.bit) != cell.stuckValue) {
            out.push_back(cell.bit);
        }
    }
    // Soft-error upsets flip healthy cells (stuck cells hold their
    // defect-driven value regardless).
    for (const std::uint16_t bit : transients(line)) {
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
    for (const FaultCell &cell : lineFaults(line)) {
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
    for (const std::uint16_t bit : transients(line)) {
        if (bit < split + meta.size() && !isStuck(line, bit))
            out.push_back(bit);
    }
}

unsigned
FaultMap::applyFaults(std::size_t line, BitVec &value) const
{
    unsigned flipped = 0;
    for (const FaultCell &cell : lineFaults(line)) {
        if (cell.bit < value.size() &&
            value.get(cell.bit) != cell.stuckValue) {
            value.flip(cell.bit);
            ++flipped;
        }
    }
    for (const std::uint16_t bit : transients(line)) {
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
    if (line >= numLines() || bit >= lineBits())
        fatal("FaultMap::injectTransient: out of range (%zu, %u)",
              line, bit);
    if (transientFlips.empty())
        transientFlips.resize(numLines());
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
    if (!transientFlips.empty())
        transientFlips[line].clear();
}

void
FaultMap::plantFault(std::size_t line, std::uint16_t bit,
                     bool stuck_value, FaultKind kind)
{
    if (line >= numLines() || bit >= lineBits())
        fatal("FaultMap::plantFault: out of range (%zu, %u)", line,
              bit);
    if (!ownDie) {
        // Copy on first write: other maps may share the die and view.
        ownDie = std::make_shared<FaultPopulation>(*die);
        die = ownDie;
        ownView = std::make_shared<ActiveView>(*view);
        view = ownView;
    }
    // The planted cell replaces any sampled one at this position, so
    // it fully defines the bit's behaviour.
    FaultCell cell;
    cell.bit = bit;
    cell.stuckValue = stuck_value;
    cell.kind = kind;
    cell.threshold = -1.0f; // below every pCell: always active
    std::vector<FaultCell> &cells = (*ownDie)[line];
    const auto it = std::lower_bound(
        cells.begin(), cells.end(), bit,
        [](const FaultCell &c, std::uint16_t b) { return c.bit < b; });
    if (it != cells.end() && it->bit == bit)
        *it = cell;
    else
        cells.insert(it, cell);
    ownView->plant(line, cell);
}

FaultMap::LineHistogram
FaultMap::histogram(std::size_t prefix_bits) const
{
    LineHistogram hist;
    for (std::size_t i = 0; i < numLines(); ++i) {
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
