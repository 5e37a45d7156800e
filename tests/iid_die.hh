/**
 * @file
 * Test helper: the default (iid) scenario's die for a given seed, for
 * tests that build a FaultMap directly around their own VoltageModel.
 */

#ifndef KILLI_TESTS_IID_DIE_HH
#define KILLI_TESTS_IID_DIE_HH

#include <cstdint>
#include <memory>

#include "fault/fault_map.hh"
#include "fault/fault_model.hh"
#include "fault/scenario_spec.hh"

namespace killi
{

/** The iid die of @p seed for @p numLines x @p lineBits cells at
 *  1 GHz, ready for a FaultMap to adopt. */
inline std::shared_ptr<const FaultPopulation>
iidDie(std::size_t numLines, std::uint64_t seed,
       std::size_t lineBits = 720)
{
    ScenarioSpec spec;
    spec.seed = seed;
    return std::make_shared<const FaultPopulation>(
        IidStuckAt(spec).samplePopulation(numLines, lineBits));
}

} // namespace killi

#endif // KILLI_TESTS_IID_DIE_HH
