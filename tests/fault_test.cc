/**
 * @file
 * Tests for the voltage model and fault maps: calibration anchors,
 * monotonicity in voltage and frequency, persistence, stuck-at
 * masking semantics, and agreement between sampled fault maps and
 * the analytical line-fault distribution (Fig. 2).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "bench/sweep.hh"
#include "common/bitvec.hh"
#include "common/hotpath.hh"
#include "common/rng.hh"
#include "fault/active_view.hh"
#include "fault/fault_map.hh"
#include "fault/fault_model.hh"
#include "fault/scenario_spec.hh"
#include "fault/sweep_engine.hh"
#include "fault/voltage_model.hh"
#include "iid_die.hh"

using namespace killi;

TEST(VoltageModelTest, CalibrationAnchors)
{
    const VoltageModel vm;
    EXPECT_NEAR(vm.pCell(0.625), 3.0e-4, 3e-6);
    EXPECT_NEAR(vm.pCell(0.600), 6.2e-3, 6.2e-5);
    EXPECT_NEAR(vm.pCell(0.575), 1.41e-2, 1.41e-4);
    EXPECT_NEAR(vm.pCell(0.500), 5.0e-2, 5e-4);
    EXPECT_LT(vm.pCell(0.700), 2e-9);
}

TEST(VoltageModelTest, MonotoneDecreasingInVoltage)
{
    const VoltageModel vm;
    double prev = 1.0;
    for (double v = 0.45; v <= 1.01; v += 0.005) {
        const double p = vm.pCell(v);
        EXPECT_LE(p, prev) << "pCell not monotone at v=" << v;
        prev = p;
    }
}

TEST(VoltageModelTest, MonotoneIncreasingInFrequency)
{
    const VoltageModel vm;
    // The DAC'17 measurements: failures at f occur at all higher f.
    EXPECT_LT(vm.pCell(0.625, 0.4), vm.pCell(0.625, 1.0));
    EXPECT_LT(vm.pCell(0.6, 0.4), vm.pCell(0.6, 0.7));
    EXPECT_LT(vm.pCell(0.6, 0.7), vm.pCell(0.6, 1.0));
}

TEST(VoltageModelTest, ExponentialRiseBelowKnee)
{
    // Section 3: below 0.675xVDD failure probability rises
    // exponentially — each 25mV step should multiply pCell.
    const VoltageModel vm;
    const double r1 = vm.pCell(0.650) / vm.pCell(0.675);
    const double r2 = vm.pCell(0.625) / vm.pCell(0.650);
    EXPECT_GT(r1, 3.0);
    EXPECT_GT(r2, 3.0);
}

TEST(VoltageModelTest, ReadWriteSplit)
{
    const VoltageModel vm;
    const double p = vm.pCell(0.6);
    EXPECT_NEAR(vm.pRead(0.6) + vm.pWrite(0.6), p, 1e-12);
    EXPECT_GT(vm.pWrite(0.6), vm.pRead(0.6)); // writeability worse
}

TEST(VoltageModelTest, PaperLineFaultStatement)
{
    // Section 3: at 1GHz and 0.625xVDD, >95% of rows have fewer
    // than two failures (523-bit SECDED codeword rows).
    const VoltageModel vm;
    const double fewer2 = vm.pLineFaults(523, 0, 0.625) +
        vm.pLineFaults(523, 1, 0.625);
    EXPECT_GT(fewer2, 0.95);
}

TEST(VoltageModelTest, LineFaultDistributionSumsToOne)
{
    const VoltageModel vm;
    double sum = 0.0;
    for (unsigned k = 0; k <= 30; ++k)
        sum += vm.pLineFaults(512, k, 0.575);
    EXPECT_NEAR(sum, 1.0, 1e-9);
    EXPECT_NEAR(vm.pLineAtLeast(512, 2, 0.575) +
                    vm.pLineFaults(512, 0, 0.575) +
                    vm.pLineFaults(512, 1, 0.575),
                1.0, 1e-9);
}

namespace
{
FaultMap
smallMap(double voltage, std::uint64_t seed = 7)
{
    static const VoltageModel vm;
    FaultMap fm(iidDie(2048, seed), 720, vm);
    fm.setVoltage(voltage);
    return fm;
}
} // namespace

TEST(FaultMapTest, NominalVoltageIsEssentiallyFaultFree)
{
    FaultMap fm = smallMap(1.0);
    const auto hist = fm.histogram(523);
    EXPECT_EQ(hist.one + hist.twoPlus, 0u);
}

TEST(FaultMapTest, MonotoneInVoltage)
{
    // Every cell faulty at v must be faulty at all lower voltages.
    static const VoltageModel vm;
    FaultMap fm(iidDie(1024, 11), 720, vm);
    for (double vHigh : {0.65, 0.625, 0.6}) {
        const double vLow = vHigh - 0.025;
        fm.setVoltage(vHigh);
        std::vector<std::vector<std::uint16_t>> before(1024);
        for (std::size_t i = 0; i < 1024; ++i) {
            for (const FaultCell &c : fm.lineFaults(i))
                before[i].push_back(c.bit);
        }
        fm.setVoltage(vLow);
        for (std::size_t i = 0; i < 1024; ++i) {
            for (const std::uint16_t bit : before[i]) {
                bool still = false;
                for (const FaultCell &c : fm.lineFaults(i))
                    still = still || c.bit == bit;
                EXPECT_TRUE(still)
                    << "fault " << bit << " of line " << i
                    << " vanished when lowering " << vHigh << "->"
                    << vLow;
            }
        }
    }
}

TEST(FaultMapTest, PersistentAcrossQueries)
{
    FaultMap fm = smallMap(0.6);
    const auto &a = fm.lineFaults(5);
    const auto &b = fm.lineFaults(5);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].bit, b[i].bit);
}

TEST(FaultMapTest, SeedsProduceDifferentDies)
{
    FaultMap a = smallMap(0.575, 1);
    FaultMap b = smallMap(0.575, 2);
    std::size_t differing = 0;
    for (std::size_t i = 0; i < a.numLines(); ++i)
        differing += a.lineFaults(i).size() != b.lineFaults(i).size();
    EXPECT_GT(differing, 0u);
}

TEST(FaultMapTest, Table7CapacityAnchors)
{
    // MS-ECC usable capacity (<= 11 faults over its 710-bit line):
    // 99.8% at 0.6xVDD and 69.6% at 0.575xVDD (paper Table 7).
    const VoltageModel vm;
    const auto capacity = [&](double v) {
        double sum = 0.0;
        for (unsigned k = 0; k <= 11; ++k)
            sum += vm.pLineFaults(710, k, v);
        return sum;
    };
    EXPECT_NEAR(capacity(0.600), 0.998, 0.003);
    EXPECT_NEAR(capacity(0.575), 0.696, 0.03);
}

TEST(FaultMapTest, HistogramMatchesBinomial)
{
    // The sampled per-line fault distribution must match the
    // analytical model (Fig. 2 consistency), within sampling noise.
    static const VoltageModel vm;
    FaultMap fm(iidDie(32768, 3), 720, vm);
    fm.setVoltage(0.6);
    const auto hist = fm.histogram(512);
    const double n = 32768.0;
    EXPECT_NEAR(hist.zero / n, vm.pLineFaults(512, 0, 0.6), 0.02);
    EXPECT_NEAR(hist.one / n, vm.pLineFaults(512, 1, 0.6), 0.02);
    EXPECT_NEAR(hist.twoPlus / n, vm.pLineAtLeast(512, 2, 0.6), 0.02);
}

TEST(FaultMapTest, StuckAtMaskingSemantics)
{
    // A stuck cell corrupts data only when the stored bit differs
    // from the stuck value: write the stuck value -> no visible
    // error; write the complement -> visible.
    FaultMap fm = smallMap(0.55);
    bool exercised = false;
    for (std::size_t line = 0; line < fm.numLines() && !exercised;
         ++line) {
        for (const FaultCell &cell : fm.lineFaults(line)) {
            if (cell.bit >= 512)
                continue;
            BitVec match(512);
            match.set(cell.bit, cell.stuckValue);
            BitVec clash(512);
            clash.set(cell.bit, !cell.stuckValue);

            const auto visMatch = fm.visibleErrors(line, match);
            for (const std::size_t pos : visMatch)
                EXPECT_NE(pos, std::size_t{cell.bit});

            const auto visClash = fm.visibleErrors(line, clash);
            bool found = false;
            for (const std::size_t pos : visClash)
                found = found || pos == cell.bit;
            EXPECT_TRUE(found);
            exercised = true;
            break;
        }
    }
    EXPECT_TRUE(exercised) << "no faulty line found at 0.55xVDD";
}

TEST(FaultMapTest, TwoPartVisibleErrorsMatchesConcatenation)
{
    FaultMap fm = smallMap(0.5);
    Rng rng(9);
    for (std::size_t line = 0; line < 64; ++line) {
        BitVec data(512);
        data.randomize(rng);
        BitVec meta(21);
        meta.randomize(rng);

        BitVec combined(533);
        for (std::size_t i = 0; i < 512; ++i)
            combined.set(i, data.get(i));
        for (std::size_t i = 0; i < 21; ++i)
            combined.set(512 + i, meta.get(i));

        EXPECT_EQ(fm.visibleErrors(line, combined),
                  fm.visibleErrors(line, data, meta));
    }
}

TEST(FaultMapTest, ApplyFaultsFlipsExactlyVisibleErrors)
{
    FaultMap fm = smallMap(0.5);
    Rng rng(10);
    for (std::size_t line = 0; line < 128; ++line) {
        BitVec data(720);
        data.randomize(rng);
        const auto vis = fm.visibleErrors(line, data);
        BitVec mutated = data;
        const unsigned flips = fm.applyFaults(line, mutated);
        EXPECT_EQ(flips, vis.size());
        EXPECT_EQ(mutated.hammingDistance(data), vis.size());
        for (const std::size_t pos : vis)
            EXPECT_NE(mutated.get(pos), data.get(pos));
    }
}

TEST(FaultMapTest, CountFaultsRespectsPrefix)
{
    FaultMap fm = smallMap(0.5);
    for (std::size_t line = 0; line < 256; ++line) {
        EXPECT_LE(fm.countFaults(line, 512), fm.countFaults(line, 720));
        EXPECT_EQ(fm.countFaults(line, 720), fm.lineFaults(line).size());
    }
}

// --- Geometric skip sampling -------------------------------------------

namespace
{

/** Set hotpathReferenceMode() for one scope: iid sampling then runs
 *  the per-bit reference sampler (common/hotpath.hh). */
class ScopedReferenceMode
{
  public:
    explicit ScopedReferenceMode(bool on)
        : previous(hotpathReferenceMode())
    {
        setHotpathReferenceMode(on);
    }
    ~ScopedReferenceMode() { setHotpathReferenceMode(previous); }

  private:
    bool previous;
};

/** A map around @p seed's iid die, sampled by the per-bit reference
 *  sampler when @p reference is set. */
FaultMap
iidMap(const VoltageModel &vm, std::size_t numLines, std::uint64_t seed,
       bool reference)
{
    const ScopedReferenceMode scope(reference);
    return FaultMap(iidDie(numLines, seed), 720, vm);
}

} // namespace

TEST(FaultMapTest, SkipSamplingMatchesPerBitDistribution)
{
    // The skip sampler replaces one uniform draw per bit with one
    // draw per fault; the resulting population must stay marginally
    // Bernoulli(pCell) per cell with conditionally uniform
    // thresholds. Compare aggregate counts and the per-voltage
    // activation curve against the per-bit reference over many dies.
    const VoltageModel model;
    const std::size_t numLines = 2048, lineBits = 720;
    std::size_t faultsSkip = 0, faultsRef = 0;
    std::size_t activeSkip = 0, activeRef = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        FaultMap skip = iidMap(model, numLines, seed, false);
        FaultMap ref = iidMap(model, numLines, seed ^ 0xabcdef, true);
        skip.setVoltage(VoltageModel::minVoltage());
        ref.setVoltage(VoltageModel::minVoltage());
        for (std::size_t l = 0; l < numLines; ++l) {
            faultsSkip += skip.countFaults(l, lineBits);
            faultsRef += ref.countFaults(l, lineBits);
        }
        skip.setVoltage(0.60);
        ref.setVoltage(0.60);
        for (std::size_t l = 0; l < numLines; ++l) {
            activeSkip += skip.countFaults(l, lineBits);
            activeRef += ref.countFaults(l, lineBits);
        }
    }
    // Populations are in the tens of thousands; 5% agreement is far
    // beyond any plausible sampler bug while stable across seeds.
    EXPECT_GT(faultsSkip, 1000u);
    EXPECT_NEAR(double(faultsSkip), double(faultsRef),
                0.05 * double(faultsRef));
    EXPECT_GT(activeSkip, 100u);
    EXPECT_NEAR(double(activeSkip), double(activeRef),
                0.10 * double(activeRef));
}

TEST(FaultMapTest, SampledPopulationIsSortedByBit)
{
    const VoltageModel model;
    for (const bool reference : {false, true}) {
        FaultMap map = iidMap(model, 512, 42, reference);
        map.setVoltage(VoltageModel::minVoltage());
        for (std::size_t l = 0; l < map.numLines(); ++l) {
            const auto &cells = map.lineFaults(l);
            for (std::size_t i = 1; i < cells.size(); ++i)
                ASSERT_LT(cells[i - 1].bit, cells[i].bit)
                    << "line " << l;
        }
    }
}

TEST(FaultMapTest, PlantFaultKeepsSortInvariant)
{
    const VoltageModel model;
    FaultMap map(iidDie(4, 7), 720, model);
    map.setVoltage(1.0); // planted faults only
    // Out-of-order plants must land in sorted position (isStuck and
    // countFaults binary-search / early-exit over the sorted set).
    map.plantFault(0, 300, true);
    map.plantFault(0, 10, false);
    map.plantFault(0, 650, true);
    map.plantFault(0, 200, false);
    const auto &cells = map.lineFaults(0);
    for (std::size_t i = 1; i < cells.size(); ++i)
        ASSERT_LT(cells[i - 1].bit, cells[i].bit);
    // visibleErrors consults isStuck for transient suppression: a
    // transient on a stuck cell must stay suppressed after the
    // sorted insertions.
    map.injectTransient(0, 300);
    BitVec ones(720);
    for (std::size_t i = 0; i < 720; ++i)
        ones.set(i);
    const auto errs = map.visibleErrors(0, ones);
    // stuck-false cells at 10 and 200 flip stored ones; stuck-true
    // at 300/650 match; the transient on stuck 300 is suppressed.
    EXPECT_EQ(errs.size(), 2u);
    EXPECT_TRUE(map.countFaults(0, 201) == 2u);
}

// --- Shared dies and voltage activation --------------------------------

namespace
{

/** Bit-identity between two maps' active sets: same cells, same
 *  order, same payloads, at every line. */
void
expectActiveIdentical(const FaultMap &a, const FaultMap &b,
                      const std::string &ctx)
{
    ASSERT_EQ(a.numLines(), b.numLines()) << ctx;
    for (std::size_t l = 0; l < a.numLines(); ++l) {
        const auto &ca = a.lineFaults(l);
        const auto &cb = b.lineFaults(l);
        ASSERT_EQ(ca.size(), cb.size()) << ctx << " line " << l;
        for (std::size_t i = 0; i < ca.size(); ++i) {
            ASSERT_EQ(ca[i].bit, cb[i].bit)
                << ctx << " line " << l << " cell " << i;
            ASSERT_EQ(ca[i].threshold, cb[i].threshold)
                << ctx << " line " << l << " cell " << i;
            ASSERT_EQ(ca[i].stuckValue, cb[i].stuckValue)
                << ctx << " line " << l << " cell " << i;
            ASSERT_EQ(ca[i].kind, cb[i].kind)
                << ctx << " line " << l << " cell " << i;
        }
    }
}

/** Deep copy of a map's active sets (the callback's map is
 *  re-activated in place, so order-comparison tests must snapshot). */
std::vector<std::vector<FaultCell>>
snapshotActive(const FaultMap &map)
{
    std::vector<std::vector<FaultCell>> out(map.numLines());
    for (std::size_t l = 0; l < map.numLines(); ++l)
        out[l].assign(map.lineFaults(l).begin(), map.lineFaults(l).end());
    return out;
}

} // namespace

TEST(FaultMapTest, EqualVoltageResetIsIdempotentNoOp)
{
    // Warm-store hits and replayed jobs legitimately re-apply the
    // point voltage: a bit-exact re-set must be accepted as a no-op
    // under the declared monotone regime, not treated as a raise.
    static const VoltageModel vm;
    FaultMap fm(iidDie(512, 21), 720, vm);
    fm.declareMonotoneVoltage(true);
    fm.setVoltage(0.6);
    const auto before = snapshotActive(fm);
    fm.setVoltage(0.6);
    EXPECT_EQ(fm.voltage(), 0.6);
    const auto after = snapshotActive(fm);
    ASSERT_EQ(before.size(), after.size());
    for (std::size_t l = 0; l < before.size(); ++l) {
        ASSERT_EQ(before[l].size(), after[l].size()) << "line " << l;
        for (std::size_t i = 0; i < before[l].size(); ++i)
            EXPECT_EQ(before[l][i].bit, after[l][i].bit);
    }
}

TEST(FaultMapTest, MapsAdoptingOneDieShareItAndActivateIndependently)
{
    static const VoltageModel vm;
    const auto die = iidDie(256, 31);
    FaultMap a(die, 720, vm);
    FaultMap b(die, 720, vm);
    EXPECT_EQ(&a.population(), &b.population()); // zero-copy adoption
    EXPECT_EQ(&a.population(), die.get());

    a.setVoltage(0.55);
    b.setVoltage(0.65);
    FaultMap coldA(iidDie(256, 31), 720, vm);
    FaultMap coldB(iidDie(256, 31), 720, vm);
    coldA.setVoltage(0.55);
    coldB.setVoltage(0.65);
    expectActiveIdentical(a, coldA, "a at 0.55");
    expectActiveIdentical(b, coldB, "b at 0.65");

    // Planting into a copies the die first: b's population and
    // active sets do not move, and neither does the shared die.
    std::size_t line = 0;
    while (line < die->size() && (*die)[line].empty())
        ++line;
    ASSERT_LT(line, die->size());
    const std::uint16_t bit = (*die)[line].front().bit;
    const std::size_t dieCells = (*die)[line].size();
    const auto bBefore = snapshotActive(b);
    a.plantFault(line, bit, !(*die)[line].front().stuckValue);
    a.plantFault(line, 719, true);
    EXPECT_NE(&a.population(), die.get());
    EXPECT_EQ(&b.population(), die.get());
    EXPECT_EQ((*die)[line].size(), dieCells);
    EXPECT_EQ((*die)[line].front().threshold,
              coldA.population()[line].front().threshold);
    EXPECT_EQ(b.population()[line].size(), dieCells);
    const auto bAfter = snapshotActive(b);
    ASSERT_EQ(bBefore.size(), bAfter.size());
    for (std::size_t l = 0; l < bBefore.size(); ++l) {
        ASSERT_EQ(bBefore[l].size(), bAfter[l].size()) << "line " << l;
        for (std::size_t i = 0; i < bBefore[l].size(); ++i)
            EXPECT_EQ(bBefore[l][i].bit, bAfter[l][i].bit);
    }
    expectActiveIdentical(b, coldB, "b after a's plants");
    // a sees its plants (always active, sorted into place).
    EXPECT_EQ(a.population()[line].back().bit, 719);
    EXPECT_EQ(a.lineFaults(line).back().bit, 719);
    EXPECT_EQ(a.lineFaults(line).front().bit, bit);
}

TEST(SweepEngineTest, IncrementalMatchesColdAtEveryPoint)
{
    // Every point of a sweep equals a cold buildMapAt() at its
    // voltage, and each point pays one activation.
    const std::vector<double> points = {0.70, 0.675, 0.65, 0.625,
                                        0.60, 0.575, 0.55};
    for (const char *name : {"iid", "clustered", "burst"}) {
        ScenarioSpec spec;
        spec.model = name;
        spec.seed = 13;
        const auto model = FaultModel::fromScenario(spec);
        std::size_t visited = 0;
        const VoltageSweepStats st = runVoltageSweep(
            *model, 256, 720, points,
            [&](std::size_t idx, double v, FaultMap &map) {
                ++visited;
                EXPECT_EQ(v, points[idx]);
                const auto cold = model->buildMapAt(256, 720, v);
                expectActiveIdentical(
                    map, *cold,
                    std::string(name) + " v=" + std::to_string(v));
            });
        EXPECT_EQ(st.points, points.size());
        EXPECT_EQ(st.coldActivations, points.size()) << name;
        EXPECT_EQ(visited, points.size());
    }
}

TEST(SweepEngineTest, SinglePointSweep)
{
    ScenarioSpec spec;
    spec.seed = 3;
    const auto model = FaultModel::fromScenario(spec);
    std::size_t visited = 0;
    const VoltageSweepStats st = runVoltageSweep(
        *model, 128, 720, {0.6},
        [&](std::size_t idx, double v, FaultMap &map) {
            ++visited;
            EXPECT_EQ(idx, 0u);
            EXPECT_EQ(v, 0.6);
            const auto cold = model->buildMapAt(128, 720, 0.6);
            expectActiveIdentical(map, *cold, "single point");
        });
    EXPECT_EQ(st.points, 1u);
    EXPECT_EQ(st.coldActivations, 1u);
    EXPECT_EQ(visited, 1u);
}

TEST(SweepEngineTest, AscendingAndDescendingOrdersAgree)
{
    // The engine internally visits monotone sweeps from the highest
    // voltage down; the caller's point order must not change any
    // per-point result, only the callback labeling.
    ScenarioSpec spec;
    spec.seed = 5;
    const auto model = FaultModel::fromScenario(spec);
    const std::vector<double> desc = {0.65, 0.625, 0.60, 0.575};
    const std::vector<double> asc(desc.rbegin(), desc.rend());

    std::map<double, std::vector<std::vector<FaultCell>>> byV[2];
    const std::vector<double> *orders[2] = {&desc, &asc};
    for (int o = 0; o < 2; ++o) {
        runVoltageSweep(*model, 256, 720, *orders[o],
                        [&](std::size_t idx, double v, FaultMap &map) {
                            EXPECT_EQ(v, (*orders[o])[idx]);
                            byV[o][v] = snapshotActive(map);
                        });
    }
    ASSERT_EQ(byV[0].size(), desc.size());
    ASSERT_EQ(byV[1].size(), desc.size());
    for (const double v : desc) {
        const auto &a = byV[0][v];
        const auto &b = byV[1][v];
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t l = 0; l < a.size(); ++l) {
            ASSERT_EQ(a[l].size(), b[l].size())
                << "v=" << v << " line " << l;
            for (std::size_t i = 0; i < a[l].size(); ++i) {
                EXPECT_EQ(a[l][i].bit, b[l][i].bit);
                EXPECT_EQ(a[l][i].threshold, b[l][i].threshold);
            }
        }
    }
}

TEST(SweepEngineTest, DroopScheduleRefusesIncrementalPath)
{
    // Droop schedules may raise V, so the engine keeps the caller's
    // order; every point still equals a cold buildMapAt().
    ScenarioSpec spec;
    spec.model = "droop";
    spec.droop.schedule = {0.625, 0.600, 0.575, 0.625}; // raises V
    const auto model = FaultModel::fromScenario(spec);
    std::vector<double> visitedV;
    const VoltageSweepStats st = runVoltageSweep(
        *model, 64, 720, spec.droop.schedule,
        [&](std::size_t idx, double v, FaultMap &map) {
            EXPECT_EQ(idx, visitedV.size());
            visitedV.push_back(v);
            const auto cold = model->buildMapAt(64, 720, v);
            expectActiveIdentical(map, *cold,
                                  "droop v=" + std::to_string(v));
        });
    EXPECT_EQ(st.coldActivations, 4u);
    EXPECT_EQ(visitedV, spec.droop.schedule); // caller order kept
}

TEST(SweepEngineTest, BuildMapFromPopulationIsBitIdentical)
{
    // The kserved warm store and every sweep campaign adopt a shared
    // sampled die; the result must match a cold buildMap() exactly.
    for (const char *name : {"iid", "clustered", "burst", "droop"}) {
        ScenarioSpec spec;
        spec.model = name;
        spec.seed = 29;
        const auto model = FaultModel::fromScenario(spec);
        const auto cold = model->buildMap(256, 720);
        const auto warm =
            model->buildMapFrom(cold->population(), 720);
        EXPECT_EQ(warm->voltage(), cold->voltage()) << name;
        expectActiveIdentical(*warm, *cold, name);
        const auto shared = model->buildMapFrom(
            std::make_shared<const FaultPopulation>(
                model->samplePopulation(256, 720)),
            720);
        expectActiveIdentical(*shared, *cold, name);
    }
}

// --- Shared active views -----------------------------------------------

namespace
{

/** Every query a protection scheme makes of a map agrees between
 *  @p a and @p b: active cells, prefix counts, visible errors of
 *  random data and the Fig. 2 histogram. */
void
expectSameQueries(const FaultMap &a, const FaultMap &b,
                  const std::string &ctx)
{
    expectActiveIdentical(a, b, ctx);
    Rng rng(17);
    BitVec data(720);
    for (std::size_t l = 0; l < a.numLines(); ++l) {
        ASSERT_EQ(a.countFaults(l, 512), b.countFaults(l, 512))
            << ctx << " line " << l;
        data.randomize(rng);
        ASSERT_EQ(a.visibleErrors(l, data), b.visibleErrors(l, data))
            << ctx << " line " << l;
    }
    for (const std::size_t prefix : {512, 720}) {
        const FaultMap::LineHistogram ha = a.histogram(prefix);
        const FaultMap::LineHistogram hb = b.histogram(prefix);
        EXPECT_EQ(ha.zero, hb.zero) << ctx;
        EXPECT_EQ(ha.one, hb.one) << ctx;
        EXPECT_EQ(ha.twoPlus, hb.twoPlus) << ctx;
    }
}

/** A map that activates @p die at @p v on its own (no shared view). */
FaultMap
coldMap(const FaultModel &model,
        const std::shared_ptr<const FaultPopulation> &die, double v)
{
    FaultMap map(die, 720, model.voltageModel(), model.spec().freqGHz);
    map.setVoltage(v);
    return map;
}

} // namespace

TEST(ActiveViewTest, SharedViewMatchesColdActivation)
{
    // Two maps adopting one shared view answer every query exactly as
    // a map that activated the die itself, for every model, at every
    // voltage, including a raise under droop.
    for (const char *name : {"iid", "clustered", "burst", "droop"}) {
        ScenarioSpec spec;
        spec.model = name;
        spec.seed = 23;
        const auto model = FaultModel::fromScenario(spec);
        const auto die = std::make_shared<const FaultPopulation>(
            model->samplePopulation(512, 720));
        for (const double v : {0.65, 0.6, 0.575}) {
            const std::string ctx =
                std::string(name) + " v=" + std::to_string(v);
            const auto view = model->activeView(*die, 720, v);
            const auto a = model->adopt(die, view);
            const auto b = model->adopt(die, view);
            EXPECT_EQ(&a->activeView(), view.get()) << ctx;
            EXPECT_EQ(&b->activeView(), view.get()) << ctx;
            EXPECT_EQ(a->voltage(), v) << ctx;
            const FaultMap cold = coldMap(*model, die, v);
            expectSameQueries(*a, cold, ctx);
            expectSameQueries(*b, cold, ctx);
        }
        if (model->monotoneVoltage())
            continue;
        // Droop may raise V: a map stepped down and back up through
        // handed views equals a cold activation at the raised point.
        auto map = model->adopt(die, model->activeView(*die, 720, 0.575));
        const auto raised = model->activeView(*die, 720, 0.625);
        map->setVoltage(0.625, raised);
        EXPECT_EQ(&map->activeView(), raised.get());
        expectSameQueries(*map, coldMap(*model, die, 0.625),
                          std::string(name) + " raised to 0.625");
    }
}

TEST(ActiveViewTest, PlantingLeavesSharedViewAndSiblingsUnchanged)
{
    ScenarioSpec spec;
    spec.seed = 37;
    const auto model = FaultModel::fromScenario(spec);
    const auto die = std::make_shared<const FaultPopulation>(
        model->samplePopulation(256, 720));
    const auto view = model->activeView(*die, 720, 0.575);
    const auto a = model->adopt(die, view);
    const auto b = model->adopt(die, view);
    const auto before = snapshotActive(*b);

    std::size_t line = 0;
    while (line < b->numLines() && b->lineFaults(line).empty())
        ++line;
    ASSERT_LT(line, b->numLines());
    const FaultCell first = b->lineFaults(line).front();
    a->plantFault(line, first.bit, !first.stuckValue);
    a->plantFault(line, 719, true);
    a->plantFault(line + 1, 3, false);

    // a planted into private copies of the die and the view.
    EXPECT_NE(&a->activeView(), view.get());
    EXPECT_NE(&a->population(), die.get());
    EXPECT_EQ(a->lineFaults(line).front().stuckValue, !first.stuckValue);
    EXPECT_EQ(a->lineFaults(line).back().bit, 719);
    EXPECT_EQ(a->countFaults(line + 1, 4), 1u);
    // b still reads the shared view and die, which did not move.
    EXPECT_EQ(&b->activeView(), view.get());
    EXPECT_EQ(&b->population(), die.get());
    const auto after = snapshotActive(*b);
    ASSERT_EQ(before.size(), after.size());
    for (std::size_t l = 0; l < before.size(); ++l) {
        ASSERT_EQ(before[l].size(), after[l].size()) << "line " << l;
        for (std::size_t i = 0; i < before[l].size(); ++i) {
            EXPECT_EQ(before[l][i].bit, after[l][i].bit);
            EXPECT_EQ(before[l][i].stuckValue, after[l][i].stuckValue);
        }
    }
    expectSameQueries(*b, coldMap(*model, die, 0.575), "sibling");

    // The plants survive a voltage step, and a handed shared view
    // cannot drop them: a planted map activates its own die.
    const auto lower = model->activeView(*die, 720, 0.55);
    a->setVoltage(0.55, lower);
    EXPECT_NE(&a->activeView(), lower.get());
    EXPECT_EQ(a->lineFaults(line).back().bit, 719);
    EXPECT_EQ(a->countFaults(line + 1, 4), 1u);
}

TEST(ActiveViewDeathTest, UnsortedOrOutOfRangeDieIsFatalAtViewBuild)
{
    const VoltageModel vm;
    const auto cell = [](std::uint16_t bit) {
        return FaultCell{bit, true, FaultKind::Writeability, 0.0f};
    };
    const FaultPopulation unsorted{{}, {cell(5), cell(3)}};
    const FaultPopulation duplicate{{cell(4), cell(4)}};
    const FaultPopulation outside{{cell(1), cell(720)}};
    EXPECT_DEATH(ActiveView(unsorted, 720, vm, 0.6, 1.0),
                 "population line 1 not sorted strictly by bit at "
                 "position 1");
    EXPECT_DEATH(ActiveView(duplicate, 720, vm, 0.6, 1.0),
                 "population line 0 not sorted strictly by bit");
    EXPECT_DEATH(ActiveView(outside, 720, vm, 0.6, 1.0),
                 "population line 0 cell 720 outside 720-bit line");
    // A map that activates the die itself builds a view too.
    EXPECT_DEATH(FaultMap(std::make_shared<const FaultPopulation>(
                              unsorted),
                          720, vm),
                 "not sorted strictly by bit");
    // Adopting a view of another die is a caller bug.
    const auto other = std::make_shared<const ActiveView>(
        FaultPopulation(3), 720, vm, 0.6, 1.0);
    EXPECT_DEATH(FaultMap(std::make_shared<const FaultPopulation>(2),
                          other, vm),
                 "is not of this 2-line die");
}

TEST(ActiveViewTest, EvaluationSweepBuildsOneViewPerCampaign)
{
    // Every point of a campaign runs at the same operating point of
    // the same die, so the campaign activates it once and every
    // point, on every worker, adopts that one view.
    SweepOptions opt;
    opt.scale = 0.001;
    opt.warmupPasses = 0;
    opt.jobs = 2;
    opt.workloads = {"spmv", "xsbench"};
    opt.schemes = {"DECTED", "Killi 1:256"};
    const std::uint64_t before = ActiveView::builds();
    const SweepResult res = runEvaluationSweep(opt);
    EXPECT_EQ(ActiveView::builds() - before, 1u);
    EXPECT_EQ(res.campaign.jobs.size(), 6u);
    ASSERT_EQ(res.workloads.size(), 2u);
    for (const WorkloadSweep &w : res.workloads) {
        for (const SchemeRun &run : w.schemes)
            EXPECT_TRUE(run.ok) << w.workload << "/" << run.scheme;
    }
}
