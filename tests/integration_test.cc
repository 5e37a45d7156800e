/**
 * @file
 * Cross-module integration tests: full GPU runs with Killi and the
 * baselines on real fault populations at low voltage. The central
 * invariants: the write-through system never delivers silent data
 * corruption beyond the documented §5.6.2 window, DFH training
 * converges onto the true fault populations, and the performance
 * ordering of the paper holds (baseline <= FLAIR <= Killi, with
 * bigger ECC caches no slower than tiny ones).
 */

#include <gtest/gtest.h>

#include "baselines/precharacterized.hh"
#include "fault/fault_map.hh"
#include "fault/voltage_model.hh"
#include "gpu/gpu_system.hh"
#include "killi/killi.hh"
#include "iid_die.hh"

using namespace killi;

namespace
{

struct Rig
{
    explicit Rig(double voltage, std::uint64_t seed = 21)
        : faults(iidDie(gp.l2Geom.numLines(), seed), 720, model)
    {
        faults.setVoltage(voltage);
    }

    RunResult
    runKilli(const char *wlName, KilliParams kp = KilliParams{},
             KilliProtection **protOut = nullptr)
    {
        const auto wl = makeWorkload(wlName, 0.15);
        killiProt = std::make_unique<KilliProtection>(faults, kp);
        if (protOut)
            *protOut = killiProt.get();
        GpuSystem sys(gp, *killiProt, *wl);
        return sys.run();
    }

    RunResult
    runBaseline(const char *wlName)
    {
        const auto wl = makeWorkload(wlName, 0.15);
        FaultFreeProtection prot;
        GpuSystem sys(gp, prot, *wl);
        return sys.run();
    }

    RunResult
    runFlair(const char *wlName)
    {
        const auto wl = makeWorkload(wlName, 0.15);
        auto prot = makeFlair(faults);
        GpuSystem sys(gp, *prot, *wl);
        return sys.run();
    }

    GpuParams gp;
    VoltageModel model;
    FaultMap faults;
    std::unique_ptr<KilliProtection> killiProt;
};

} // namespace

TEST(IntegrationTest, NoSdcAtOperatingVoltageForFlair)
{
    // Pre-characterized SECDED with <=1 fault per enabled line can
    // never miscorrect: zero SDC, always.
    Rig s(0.625);
    for (const char *wl : {"xsbench", "dgemm"}) {
        const RunResult r = s.runFlair(wl);
        EXPECT_EQ(r.sdc, 0u) << wl;
    }
}

TEST(IntegrationTest, KilliSdcStaysInsidePaperWindow)
{
    // §5.6.2: only same-segment masked multi-bit faults can slip
    // through (0.003%-of-lines scale). Distinct corrupted lines must
    // stay within a small multiple of that window.
    Rig s(0.625);
    const RunResult r = s.runKilli("xsbench");
    // Generous bound: windowed lines ~ 0.015% of 32768 lines ~ 5;
    // each can be read multiple times while corrupt.
    EXPECT_LT(r.sdc, 200u);
}

TEST(IntegrationTest, InvertedWriteEliminatesSdc)
{
    Rig s(0.625);
    KilliParams kp;
    kp.invertedWriteCheck = true;
    const RunResult r = s.runKilli("xsbench", kp);
    EXPECT_EQ(r.sdc, 0u);
}

TEST(IntegrationTest, DfhTrainingConvergesTowardTruth)
{
    Rig s(0.625);
    KilliProtection *prot = nullptr;
    s.runKilli("xsbench", KilliParams{}, &prot);
    ASSERT_NE(prot, nullptr);
    const auto hist = prot->dfhHistogram();
    const auto truth = s.faults.histogram(516);

    // Most of the touched cache must have left the initial state,
    // and the trained populations must be ordered like the truth:
    // mostly fault-free, some single-fault, few disabled.
    EXPECT_GT(hist[0], hist[2]);
    EXPECT_GT(hist[2], hist[3]);
    EXPECT_LE(hist[3], truth.twoPlus * 2);
    EXPECT_GT(hist[0] + hist[2] + hist[3],
              s.gp.l2Geom.numLines() / 2);
}

TEST(IntegrationTest, PerformanceOrderingHolds)
{
    Rig s(0.625);
    const RunResult base = s.runBaseline("xsbench");
    const RunResult flair = s.runFlair("xsbench");
    const RunResult killi16 = s.runKilli("xsbench", [] {
        KilliParams kp;
        kp.ratio = 16;
        return kp;
    }());
    EXPECT_EQ(base.sdc, 0u);
    // FLAIR at 0.625xVDD is near-baseline (paper Fig. 4).
    EXPECT_LT(double(flair.cycles) / double(base.cycles), 1.05);
    // Killi costs more than FLAIR (online training) but stays in the
    // same regime at this reduced run length.
    EXPECT_LT(double(killi16.cycles) / double(base.cycles), 1.25);
}

TEST(IntegrationTest, BiggerEccCacheNeverMuchWorse)
{
    Rig s(0.625);
    const RunResult small = s.runKilli("xsbench", [] {
        KilliParams kp;
        kp.ratio = 256;
        return kp;
    }());
    const RunResult large = s.runKilli("xsbench", [] {
        KilliParams kp;
        kp.ratio = 16;
        return kp;
    }());
    // Paper Fig. 4/5: performance is regulated by the ECC cache
    // size; the 1:16 configuration tracks or beats 1:256.
    EXPECT_LE(double(large.cycles), double(small.cycles) * 1.02);
    EXPECT_LE(large.mpki(), small.mpki() * 1.02);
}

TEST(IntegrationTest, VoltageChangeRequiresRelearn)
{
    Rig s(0.65);
    KilliParams kp;
    KilliProtection *prot = nullptr;
    s.runKilli("dgemm", kp, &prot);
    ASSERT_NE(prot, nullptr);

    // Drop the voltage: the fault population grows; Killi resets its
    // DFH knowledge and the histogram returns to all-Initial.
    s.faults.setVoltage(0.575);
    prot->reset();
    const auto hist = prot->dfhHistogram();
    EXPECT_EQ(hist[1], s.gp.l2Geom.numLines());
    EXPECT_EQ(prot->eccCache().validEntries(), 0u);
}

TEST(IntegrationTest, LowerVoltageDisablesMoreLines)
{
    Rig s(0.575, 33);
    KilliProtection *prot = nullptr;
    s.runKilli("xsbench", KilliParams{}, &prot);
    const auto hist575 = prot->dfhHistogram();

    Rig s2(0.625, 33);
    KilliProtection *prot2 = nullptr;
    s2.runKilli("xsbench", KilliParams{}, &prot2);
    const auto hist625 = prot2->dfhHistogram();

    EXPECT_GT(hist575[3], hist625[3] * 5);
}

TEST(IntegrationTest, DectedStableEnablesMoreCapacityAtLowVoltage)
{
    // §5.2: storing DECTED in the ECC cache keeps 2-fault lines
    // usable, which matters at voltages below 0.625.
    Rig s(0.59, 7);
    KilliProtection *plain = nullptr;
    s.runKilli("xsbench", KilliParams{}, &plain);
    const std::size_t disabledPlain = plain->dfhHistogram()[3];

    Rig s2(0.59, 7);
    KilliParams kp;
    kp.dectedStable = true;
    KilliProtection *strong = nullptr;
    s2.runKilli("xsbench", kp, &strong);
    const std::size_t disabledStrong = strong->dfhHistogram()[3];

    EXPECT_LT(disabledStrong, disabledPlain / 2);
}

TEST(IntegrationTest, FaultFreeVoltageKilliMatchesBaselineWarm)
{
    // At nominal voltage there are no faults. After a warmup pass
    // amortizes the one-shot DFH training, Killi's steady-state cost
    // is just the 1-cycle check latency.
    Rig s(1.0);
    const auto wl = makeWorkload("dgemm", 0.15);
    FaultFreeProtection baseProt;
    GpuSystem baseSys(s.gp, baseProt, *wl);
    const RunResult base = baseSys.run(/*warmupPasses=*/4);

    KilliProtection killiProt(s.faults, KilliParams{});
    GpuSystem killiSys(s.gp, killiProt, *wl);
    const RunResult killi = killiSys.run(/*warmupPasses=*/4);

    EXPECT_EQ(killi.sdc, 0u);
    EXPECT_EQ(killi.l2ErrorMisses, 0u);
    EXPECT_LT(double(killi.cycles) / double(base.cycles), 1.10);
}
