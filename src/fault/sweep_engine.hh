/**
 * @file
 * Voltage-sweep engine.
 *
 * A voltage sweep visits the same fault population at many operating
 * points. The engine samples the die once and builds one ActiveView
 * of it per point, which the sweep's map adopts
 * (FaultMap::setVoltage()), so a sweep costs one sampling plus one
 * O(population) activation per point instead of one sampling per
 * point. Monotone models are visited from the highest voltage down,
 * as their maps may never be raised; droop-scheduled models may raise
 * V mid-schedule and are visited in the caller's order. Either way
 * every point's active set is bit-identical to a cold
 * FaultModel::buildMapAt() at that voltage (pinned in
 * tests/fault_test.cc).
 */

#ifndef KILLI_FAULT_SWEEP_ENGINE_HH
#define KILLI_FAULT_SWEEP_ENGINE_HH

#include <cstddef>
#include <functional>
#include <vector>

#include "fault/fault_map.hh"
#include "fault/fault_model.hh"

namespace killi
{

/** Per-point visitor: the point's index into the caller's vector,
 *  its voltage, and the map activated at that voltage. Monotone
 *  sweeps visit points in descending-voltage order regardless of the
 *  caller's order — the index identifies the original slot. */
using VoltageSweepFn =
    std::function<void(std::size_t point, double vNorm, FaultMap &map)>;

/** What the engine actually did, for tests and callers that report
 *  sweep cost. */
struct VoltageSweepStats
{
    /** Points visited (== the caller's vector size). */
    std::size_t points = 0;
    /** Points that paid a full O(population) re-filter (one
     *  ActiveView build): every point except a repeat of the voltage
     *  visited just before it. */
    std::size_t coldActivations = 0;
};

/**
 * Sample @p model's population once and visit every entry of
 * @p points exactly once with the map activated at that voltage.
 * Points may arrive in any order (and may repeat — a repeat is an
 * idempotent no-op re-activation).
 *
 * @param keepMap when non-null, receives the engine's map after the
 *        last point, so state the callback built against it (e.g.\ a
 *        protection scheme holding a FaultMap reference) safely
 *        outlives the sweep.
 */
VoltageSweepStats
runVoltageSweep(const FaultModel &model, std::size_t numLines,
                std::size_t lineBits,
                const std::vector<double> &points,
                const VoltageSweepFn &fn,
                std::unique_ptr<FaultMap> *keepMap = nullptr);

} // namespace killi

#endif // KILLI_FAULT_SWEEP_ENGINE_HH
