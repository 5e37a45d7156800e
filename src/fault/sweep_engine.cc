#include "fault/sweep_engine.hh"

#include <algorithm>
#include <numeric>

namespace killi
{

VoltageSweepStats
runVoltageSweep(const FaultModel &model, std::size_t numLines,
                std::size_t lineBits,
                const std::vector<double> &points,
                const VoltageSweepFn &fn,
                std::unique_ptr<FaultMap> *keepMap)
{
    VoltageSweepStats st;
    st.points = points.size();
    if (points.empty())
        return st;

    // Monotone models visit from the highest voltage down (the map
    // may never be raised); stable_sort keeps repeated voltages in
    // caller order. Droop schedules may raise V and are meaningful
    // in sequence, so they keep the caller's order.
    std::vector<std::size_t> order(points.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    if (model.monotoneVoltage()) {
        std::stable_sort(order.begin(), order.end(),
                         [&points](std::size_t a, std::size_t b) {
                             return points[a] > points[b];
                         });
    }

    // One sampled die; each distinct point pays one pass over it to
    // build its active view, which the map adopts.
    const auto die = std::make_shared<const FaultPopulation>(
        model.samplePopulation(numLines, lineBits));
    const auto viewAt = [&](double v) {
        ++st.coldActivations;
        return model.activeView(*die, lineBits, v);
    };
    std::unique_ptr<FaultMap> map =
        model.adopt(die, viewAt(points[order.front()]));
    for (const std::size_t idx : order) {
        if (points[idx] != map->voltage())
            map->setVoltage(points[idx], viewAt(points[idx]));
        fn(idx, points[idx], *map);
    }
    if (keepMap)
        *keepMap = std::move(map);
    return st;
}

} // namespace killi
