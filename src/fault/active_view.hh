/**
 * @file
 * Sampled dies and their active views.
 *
 * A die (FaultPopulation) is every potentially faulty cell of an
 * array at the lowest supported voltage. An ActiveView is the subset
 * of one die that fails at one operating point: every cell whose
 * threshold is below pCell(v). Building a view is the one pass over
 * the die an operating point needs, and it validates the die on the
 * way. The view is immutable once built, so every FaultMap that
 * adopts the die at that voltage (a campaign's points, its worker
 * threads) shares one view through shared_ptr<const ActiveView>.
 *
 * The view is stored as compressed sparse rows (CSR): one flat cell
 * array, sorted by bit within each line, plus numLines + 1 offsets.
 * Each line's active set stays queryable as a contiguous span.
 */

#ifndef KILLI_FAULT_ACTIVE_VIEW_HH
#define KILLI_FAULT_ACTIVE_VIEW_HH

#include <cstdint>
#include <span>
#include <vector>

#include "fault/voltage_model.hh"

namespace killi
{

/** A single persistently faulty cell within a line. */
struct FaultCell
{
    std::uint16_t bit; //!< position within the line
    bool stuckValue;   //!< value the cell reads back as
    FaultKind kind;    //!< failing mechanism (for statistics)
    float threshold;   //!< active at voltage v iff pCell(v) > threshold
};
static_assert(sizeof(FaultCell) == 8, "FaultCell packs into 8 bytes");

/** A sampled die: the potential-fault cells of every line, each
 *  line sorted strictly ascending by bit (FaultModel samples these;
 *  any number of FaultMaps adopt one by reference). */
using FaultPopulation = std::vector<std::vector<FaultCell>>;

/** The active cells of one die at one operating point (CSR). */
class ActiveView
{
  public:
    /**
     * Filter @p die down to the cells active at @p vNorm and
     * @p freq_ghz under @p model. Each line of the die must be
     * sorted strictly ascending by bit with positions inside
     * [0, line_bits); violations are fatal().
     */
    ActiveView(const FaultPopulation &die, std::size_t line_bits,
               const VoltageModel &model, double vNorm,
               double freq_ghz);

    std::size_t numLines() const { return offsets.size() - 1; }
    std::size_t lineBits() const { return bitsPerLine; }
    double voltage() const { return vNorm; }
    /** The cell-failure probability the die was filtered against. */
    double pCell() const { return p; }

    /** Active cells of @p line, sorted ascending by bit. */
    std::span<const FaultCell> line(std::size_t line) const
    {
        return {cells.data() + offsets[line],
                cells.data() + offsets[line + 1]};
    }

    /**
     * Set @p cell in @p line, replacing any cell at the same bit and
     * keeping the line sorted. Only a map's private copy of a view
     * is ever planted into (FaultMap::plantFault()).
     */
    void plant(std::size_t line, const FaultCell &cell);

    /** Views built from a die so far in this process (copies do
     *  not count): the test hook that shows one activation per
     *  campaign. */
    static std::uint64_t builds();

  private:
    std::size_t bitsPerLine;
    double vNorm;
    double p;
    std::vector<FaultCell> cells;
    /** Line i's cells are cells[offsets[i], offsets[i + 1]). */
    std::vector<std::uint32_t> offsets;
};

} // namespace killi

#endif // KILLI_FAULT_ACTIVE_VIEW_HH
