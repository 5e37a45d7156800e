/**
 * @file
 * Fault-model factory hierarchy: one ScenarioSpec in, FaultMaps out.
 *
 * FaultModel is the single construction path for fault populations.
 * Besides iid per-bit stuck-at sampling (the paper's §6 evaluation
 * assumption), the models express the spatially-correlated
 * populations real LV SRAM exhibits (MoRS-style weak rows/columns and
 * defect clusters, multi-bit byte-aligned bursts) and time-varying
 * voltage regimes:
 *
 *  - IidStuckAt        "iid"       the paper's per-bit stuck-at
 *                                  faults
 *  - ClusteredRowColumn "clustered" weak-row/weak-column pCell boosts
 *                                  plus rectangular defect clusters
 *  - BurstMixture      "burst"     iid background plus byte-aligned
 *                                  multi-bit bursts
 *  - DroopSchedule     "droop"     any base population driven through
 *                                  a voltage schedule (may raise V;
 *                                  maps are declared non-monotone)
 *
 * The model owns the VoltageModel its maps read probabilities from,
 * so a FaultModel must outlive every FaultMap it builds.
 */

#ifndef KILLI_FAULT_FAULT_MODEL_HH
#define KILLI_FAULT_FAULT_MODEL_HH

#include <memory>
#include <vector>

#include "fault/fault_map.hh"
#include "fault/scenario_spec.hh"
#include "fault/voltage_model.hh"

namespace killi
{

class FaultModel
{
  public:
    virtual ~FaultModel() = default;

    FaultModel(const FaultModel &) = delete;
    FaultModel &operator=(const FaultModel &) = delete;

    const ScenarioSpec &spec() const { return sp; }
    const VoltageModel &voltageModel() const { return vm; }

    /**
     * Sample the scenario's potential-fault population (the die) for
     * an array of @p num_lines x @p line_bits cells: every cell that
     * fails anywhere in the model's voltage range, each line sorted
     * strictly ascending by bit. Deterministic in the scenario.
     */
    virtual FaultPopulation
    samplePopulation(std::size_t num_lines,
                     std::size_t line_bits) const = 0;

    /**
     * Sample a die and adopt it into a map activated at the first
     * operating point of voltageSchedule(). The returned map keeps a
     * reference into this model's VoltageModel: the model must
     * outlive the map.
     */
    std::unique_ptr<FaultMap>
    buildMap(std::size_t num_lines, std::size_t line_bits) const;

    /**
     * buildMap(), but activate @p vNorm instead of the schedule's
     * first operating point (a monotone map cannot be raised above
     * the point it starts at).
     */
    std::unique_ptr<FaultMap>
    buildMapAt(std::size_t num_lines, std::size_t line_bits,
               double vNorm) const;

    /**
     * Adopt an already-sampled die (samplePopulation() of this same
     * model) by reference instead of resampling; any number of maps
     * may share it. Voltage handling matches buildMap(), so the map
     * is bit-identical to a cold buildMap().
     */
    std::unique_ptr<FaultMap>
    buildMapFrom(std::shared_ptr<const FaultPopulation> die,
                 std::size_t line_bits) const;

    /** buildMapFrom() for a die passed by value. */
    std::unique_ptr<FaultMap>
    buildMapFrom(FaultPopulation population,
                 std::size_t line_bits) const;

    /**
     * The active cells of @p die at @p vNorm under this model's
     * voltage model and frequency: the one pass over the die an
     * operating point needs (it validates the die). Share the result
     * among every map that adopts the die at @p vNorm (see adopt()).
     */
    std::shared_ptr<const ActiveView>
    activeView(const FaultPopulation &die, std::size_t line_bits,
               double vNorm) const;

    /**
     * A map adopting @p die and @p view (activeView() of that die),
     * starting at the view's voltage and declared per
     * monotoneVoltage(). No pass over the die: bit-identical to
     * buildMapAt() at that voltage.
     */
    std::unique_ptr<FaultMap>
    adopt(std::shared_ptr<const FaultPopulation> die,
          std::shared_ptr<const ActiveView> view) const;

    /**
     * Does this model promise never to raise voltage after
     * construction? Monotone maps enforce the DAC'17 superset
     * invariant in FaultMap::setVoltage(); DroopSchedule returns
     * false so its schedule may legally raise V.
     */
    virtual bool monotoneVoltage() const { return true; }

    /** Operating points a full evaluation should visit, in order.
     *  A single point (spec().voltage) for everything but droop. */
    virtual std::vector<double>
    voltageSchedule() const
    {
        return {sp.voltage};
    }

    /** Instantiate the model class named by @p spec.model. */
    static std::unique_ptr<FaultModel>
    fromScenario(const ScenarioSpec &spec);

  protected:
    explicit FaultModel(const ScenarioSpec &spec) : sp(spec) {}

    ScenarioSpec sp;
    VoltageModel vm;
};

/**
 * The paper's evaluation model: iid per-bit stuck-at faults.
 *
 * samplePopulation() uses geometric skip sampling, one RNG draw per
 * *fault* rather than per bit. Under hotpathReferenceMode() it runs
 * the original one-draw-per-bit reference sampler instead (same
 * distribution, different dies; see common/hotpath.hh).
 */
class IidStuckAt final : public FaultModel
{
  public:
    explicit IidStuckAt(const ScenarioSpec &spec) : FaultModel(spec) {}

    FaultPopulation
    samplePopulation(std::size_t num_lines,
                     std::size_t line_bits) const override;
};

/**
 * MoRS-style spatially-correlated population: a fraction of weak
 * wordlines (rows) and weak bitline columns whose cells fail with a
 * boosted pCell, plus Poisson-placed rectangular defect clusters
 * whose cells fail below a cluster activation voltage.
 */
class ClusteredRowColumn final : public FaultModel
{
  public:
    explicit ClusteredRowColumn(const ScenarioSpec &spec)
        : FaultModel(spec)
    {
    }

    FaultPopulation
    samplePopulation(std::size_t num_lines,
                     std::size_t line_bits) const override;
};

/**
 * Multi-bit burst population: the iid background plus Poisson-placed
 * byte-aligned bursts of adjacent failing cells (the multi-bit upset
 * class single-bit-oriented SECDED protection cannot correct).
 */
class BurstMixture final : public FaultModel
{
  public:
    explicit BurstMixture(const ScenarioSpec &spec) : FaultModel(spec)
    {
    }

    FaultPopulation
    samplePopulation(std::size_t num_lines,
                     std::size_t line_bits) const override;
};

/**
 * Time-varying voltage regime over any base population. The base
 * model (spec().droop.base) supplies the cells; voltageSchedule()
 * replays spec().droop.schedule, which may raise as well as lower V,
 * so built maps are declared non-monotone.
 */
class DroopSchedule final : public FaultModel
{
  public:
    explicit DroopSchedule(const ScenarioSpec &spec);

    bool monotoneVoltage() const override { return false; }
    std::vector<double> voltageSchedule() const override;
    FaultPopulation
    samplePopulation(std::size_t num_lines,
                     std::size_t line_bits) const override;

  private:
    std::unique_ptr<FaultModel> base;
};

} // namespace killi

#endif // KILLI_FAULT_FAULT_MODEL_HH
