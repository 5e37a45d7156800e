/**
 * @file
 * Per-bit persistent low-voltage fault maps.
 *
 * The DAC'17 measurements the paper builds on established that LV
 * failures are persistent and *monotone*: a cell failing at voltage
 * V fails at every lower voltage (and every higher frequency). The
 * map reproduces this by construction: each potentially faulty cell
 * draws a uniform threshold u and is faulty at voltage v iff
 * u < pCell(v). Because pCell is monotone decreasing in v, the
 * faulty set at a higher voltage is always a subset of the faulty
 * set at a lower voltage.
 *
 * Faults are stuck-at: the cell reads back a fixed value regardless
 * of what was written. A stuck-at fault whose stuck value equals the
 * stored bit is *masked* — invisible until data of the opposite
 * polarity is written — which is exactly the masked-fault behaviour
 * Killi's DFH oscillation (paper §4.3) and the §5.6.2 inverted-write
 * mitigation are designed around.
 */

#ifndef KILLI_FAULT_FAULT_MAP_HH
#define KILLI_FAULT_FAULT_MAP_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bitvec.hh"
#include "common/rng.hh"
#include "fault/voltage_model.hh"

namespace killi
{

/** A single persistently faulty cell within a line. */
struct FaultCell
{
    std::uint16_t bit;    //!< position within the line
    float threshold;      //!< active at voltage v iff pCell(v) > threshold
    bool stuckValue;      //!< value the cell reads back as
    FaultKind kind;       //!< failing mechanism (for statistics)
};

/** A sampled die: the potential-fault cells of every line, each
 *  line sorted strictly ascending by bit (FaultModel samples these;
 *  any number of FaultMaps adopt one by reference). */
using FaultPopulation = std::vector<std::vector<FaultCell>>;

/**
 * Fault map for an array of lines (e.g.\ the 32768 64-byte lines of
 * the 2MB L2). The map adopts an immutable, already-sampled die (the
 * potential-fault population at the lowest supported voltage, see
 * FaultModel::samplePopulation()) and owns only its own per-voltage
 * state: setVoltage() filters the die down to the active subset for
 * the current operating point. Any number of maps may share one die.
 */
class FaultMap
{
  public:
    /**
     * Adopt @p population by reference. Each line's cells must be
     * sorted strictly ascending by bit with positions inside
     * [0, line_bits); violations are fatal(). The map starts at
     * 1.0 x VDD.
     *
     * @param line_bits LV-vulnerable bits per line (data + any
     *                  co-located metadata such as stored parity or
     *                  per-line checkbits)
     * @param model voltage model to draw probabilities from
     * @param freq_ghz operating frequency for the whole run
     */
    FaultMap(std::shared_ptr<const FaultPopulation> population,
             std::size_t line_bits, const VoltageModel &model,
             double freq_ghz = 1.0);

    std::size_t numLines() const { return die->size(); }
    std::size_t lineBits() const { return bitsPerLine; }
    double voltage() const { return currentV; }
    double frequency() const { return freqGHz; }

    /**
     * Activate the fault population for operating voltage @p vNorm.
     * Mirrors a DVFS transition; callers (e.g.\ Killi) must reset
     * their learned state, as the paper requires. If the owning
     * model declared monotonicity, raising the voltage is fatal()
     * (see declareMonotoneVoltage()).
     */
    void setVoltage(double vNorm);

    /**
     * Declare whether this map lives in a monotone voltage regime.
     * Under the DAC'17 superset invariant voltage only ever steps
     * down after construction, and a raise is a caller bug —
     * setVoltage() rejects it once monotonicity is declared. Models
     * with a droop schedule (FaultModel::monotoneVoltage() == false)
     * leave it undeclared so raising V is legal, as does a map
     * constructed directly.
     */
    void declareMonotoneVoltage(bool monotone)
    {
        monotoneDeclared = monotone;
    }

    /** The adopted die (per line, sorted by bit). Maps built from
     *  one die return the same object until one of them plants a
     *  fault (see plantFault()). */
    const FaultPopulation &population() const { return *die; }

    /** Active faulty cells of @p line at the current voltage. */
    const std::vector<FaultCell> &lineFaults(std::size_t line) const
    {
        return active[line];
    }

    /** Number of active faults of @p line within the first
     *  @p prefix_bits bit positions (schemes with narrower physical
     *  lines share one map; see DESIGN.md). */
    unsigned countFaults(std::size_t line, std::size_t prefix_bits) const;

    /**
     * Read a stored value through the fault overlay: stuck cells
     * (within @p value's width) are forced to their stuck value.
     * Returns the positions that actually flipped relative to
     * @p value — i.e.\ the *visible* (unmasked) error pattern.
     */
    std::vector<std::size_t>
    visibleErrors(std::size_t line, const BitVec &value) const;

    /**
     * Two-part variant: the physical line is the concatenation of
     * @p data (positions [0, data.size())) and @p meta (positions
     * [data.size(), data.size() + meta.size())) — e.g.\ a payload
     * plus its co-located parity or checkbits. Avoids materializing
     * the combined vector on the hot path.
     */
    std::vector<std::size_t>
    visibleErrors(std::size_t line, const BitVec &data,
                  const BitVec &meta) const;

    /**
     * visibleErrors() into a caller-owned vector (cleared first), so
     * per-access probes can reuse one buffer instead of allocating.
     * Results are identical to the returning overloads.
     */
    void visibleErrorsInto(std::size_t line, const BitVec &value,
                           std::vector<std::size_t> &out) const;
    void visibleErrorsInto(std::size_t line, const BitVec &data,
                           const BitVec &meta,
                           std::vector<std::size_t> &out) const;

    /** Apply the overlay in place; returns number of flipped bits. */
    unsigned applyFaults(std::size_t line, BitVec &value) const;

    /**
     * Plant a persistent fault active at every voltage (tests and
     * demos that need a deterministic fault layout). A planted cell
     * replaces any sampled one at the same position. The first plant
     * copies the die, so maps sharing it never see the change.
     */
    void plantFault(std::size_t line, std::uint16_t bit,
                    bool stuck_value,
                    FaultKind kind = FaultKind::Writeability);

    /**
     * Inject a *transient* (soft-error) flip: the cell's stored
     * value reads back inverted until the line is rewritten.
     * Unlike the persistent population, transients are
     * polarity-independent and cleared by clearTransients().
     */
    void injectTransient(std::size_t line, std::uint16_t bit);

    /** The line was rewritten: all transient upsets are overwritten. */
    void clearTransients(std::size_t line);

    /** Currently live transient flips of @p line. */
    const std::vector<std::uint16_t> &
    transients(std::size_t line) const
    {
        return transientFlips[line];
    }

    /** Histogram of active fault counts per line (0, 1, 2+) over the
     *  first @p prefix_bits positions: the Fig. 2 quantities. */
    struct LineHistogram
    {
        std::size_t zero = 0;
        std::size_t one = 0;
        std::size_t twoPlus = 0;
    };
    LineHistogram histogram(std::size_t prefix_bits) const;

  private:
    /** Is @p bit held by an active persistent fault? Binary search
     *  over the sorted active set. */
    bool isStuck(std::size_t line, std::uint16_t bit) const;

    /** Re-filter every line's active set against @p p. */
    void coldActivate(double p);

    std::size_t bitsPerLine;
    double freqGHz;
    double currentV = 1.0;
    bool monotoneDeclared = false;
    /** setVoltage() has run at least once (the constructor applies
     *  1.0 x VDD with currentV pre-initialized to 1.0, so equality
     *  against currentV alone cannot detect the first activation). */
    bool voltageApplied = false;
    const VoltageModel *vModel;

    /** Potential faults per line, sorted ascending by bit (the
     *  samplers emit them in order, plantFault inserts in order, and
     *  setVoltage's filter preserves order). */
    std::shared_ptr<const FaultPopulation> die;
    /** The same object as die once plantFault() has made this map a
     *  private, mutable copy; null while the die may be shared. */
    std::shared_ptr<FaultPopulation> ownDie;
    /** Active subset per line at currentV (same sort invariant). */
    FaultPopulation active;
    /** Live soft-error flips per line (cleared on rewrite). */
    std::vector<std::vector<std::uint16_t>> transientFlips;
};

} // namespace killi

#endif // KILLI_FAULT_FAULT_MAP_HH
