/**
 * @file
 * Tests for the GPU substrate: workload determinism and shape
 * (footprints, write mixes, compute ratios, MPKI banding at reduced
 * scale), compute-unit progress, and the wired GpuSystem.
 */

#include <gtest/gtest.h>

#include "cache/protection.hh"
#include "gpu/gpu_system.hh"
#include "gpu/workload.hh"

using namespace killi;

TEST(WorkloadTest, TenWorkloadsExist)
{
    const auto names = workloadNames();
    EXPECT_EQ(names.size(), 10u);
    for (const auto &name : names) {
        const auto wl = makeWorkload(name, 0.01);
        EXPECT_EQ(wl->name(), name);
        EXPECT_GT(wl->opsPerWavefront(), 0u);
        EXPECT_GT(wl->wavefrontsPerCu(), 0u);
    }
}

TEST(WorkloadTest, UnknownNameIsFatal)
{
    EXPECT_DEATH(makeWorkload("nonesuch"), "");
}

TEST(WorkloadTest, OpsAreDeterministic)
{
    for (const auto &name : workloadNames()) {
        const auto a = makeWorkload(name, 0.1);
        const auto b = makeWorkload(name, 0.1);
        for (std::uint64_t idx = 0; idx < 200; ++idx) {
            const MemOp opA = a->op(3, 2, idx);
            const MemOp opB = b->op(3, 2, idx);
            EXPECT_EQ(opA.addr, opB.addr);
            EXPECT_EQ(opA.isWrite, opB.isWrite);
            EXPECT_EQ(opA.computeCycles, opB.computeCycles);
        }
    }
}

TEST(WorkloadTest, AddressesAreLineAligned)
{
    for (const auto &name : workloadNames()) {
        const auto wl = makeWorkload(name, 0.05);
        for (std::uint64_t idx = 0; idx < 500; ++idx)
            EXPECT_EQ(wl->op(0, 0, idx).addr % 64, 0u) << name;
    }
}

TEST(WorkloadTest, MemoryBoundSplitMatchesFig5)
{
    // Fig. 5 groups: xsbench/fft/stream/spmv memory-bound.
    unsigned memBound = 0;
    for (const auto &name : workloadNames()) {
        const auto wl = makeWorkload(name, 0.01);
        if (wl->memoryBound())
            ++memBound;
    }
    EXPECT_EQ(memBound, 4u);
    EXPECT_TRUE(makeWorkload("xsbench", 0.01)->memoryBound());
    EXPECT_TRUE(makeWorkload("fft", 0.01)->memoryBound());
    EXPECT_FALSE(makeWorkload("dgemm", 0.01)->memoryBound());
}

TEST(WorkloadTest, ComputeBoundWorkloadsHaveLongComputeSections)
{
    double memAvg = 0, compAvg = 0;
    unsigned memN = 0, compN = 0;
    for (const auto &name : workloadNames()) {
        const auto wl = makeWorkload(name, 0.05);
        double sum = 0;
        for (std::uint64_t i = 0; i < 300; ++i)
            sum += wl->op(1, 1, i).computeCycles;
        if (wl->memoryBound()) {
            memAvg += sum / 300;
            ++memN;
        } else {
            compAvg += sum / 300;
            ++compN;
        }
    }
    EXPECT_LT(memAvg / memN, compAvg / compN);
}

TEST(WorkloadTest, ScaleChangesOpCount)
{
    const auto small = makeWorkload("xsbench", 0.1);
    const auto large = makeWorkload("xsbench", 1.0);
    EXPECT_LT(small->opsPerWavefront(), large->opsPerWavefront());
}

TEST(WorkloadTest, WritesPresentWhereExpected)
{
    // stream (triad stores) and fft (butterfly results) must write.
    for (const char *name : {"stream", "fft"}) {
        const auto wl = makeWorkload(name, 0.05);
        unsigned writes = 0;
        for (std::uint64_t i = 0; i < 1000; ++i)
            writes += wl->op(0, 0, i).isWrite;
        EXPECT_GT(writes, 100u) << name;
    }
}

TEST(GpuSystemTest, RunsToCompletion)
{
    GpuParams gp;
    FaultFreeProtection prot;
    const auto wl = makeWorkload("dgemm", 0.02);
    GpuSystem sys(gp, prot, *wl);
    const RunResult r = sys.run();
    EXPECT_GT(r.cycles, 0u);
    EXPECT_EQ(r.sdc, 0u);
    const std::uint64_t totalOps = std::uint64_t{gp.numCus} *
        wl->wavefrontsPerCu() * wl->opsPerWavefront();
    EXPECT_GE(r.instructions, totalOps);
}

TEST(GpuSystemTest, DeterministicAcrossRuns)
{
    GpuParams gp;
    const auto wl = makeWorkload("spmv", 0.02);
    FaultFreeProtection p1, p2;
    const RunResult a = GpuSystem(gp, p1, *wl).run();
    const RunResult b = GpuSystem(gp, p2, *wl).run();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.l2ReadMisses, b.l2ReadMisses);
    EXPECT_EQ(a.instructions, b.instructions);
}

TEST(GpuSystemTest, MemoryBoundWorkloadsMissMore)
{
    GpuParams gp;
    const auto hot = makeWorkload("dgemm", 0.05);
    const auto cold = makeWorkload("stream", 0.05);
    FaultFreeProtection p1, p2;
    const RunResult rHot = GpuSystem(gp, p1, *hot).run();
    const RunResult rCold = GpuSystem(gp, p2, *cold).run();
    EXPECT_LT(rHot.mpki(), rCold.mpki());
    EXPECT_GT(rCold.mpki(), 100.0);
    EXPECT_LT(rHot.mpki(), 50.0);
}

TEST(GpuSystemTest, WriteTrafficReachesDram)
{
    GpuParams gp;
    FaultFreeProtection prot;
    const auto wl = makeWorkload("stream", 0.02);
    const RunResult r = GpuSystem(gp, prot, *wl).run();
    EXPECT_GT(r.dramWrites, 0u);
}

TEST(GpuSystemTest, WarmupExcludesTrainingFromStats)
{
    GpuParams gp;
    FaultFreeProtection p1, p2;
    const auto wl = makeWorkload("dgemm", 0.02);
    const RunResult cold = GpuSystem(gp, p1, *wl).run();
    const RunResult warm = GpuSystem(gp, p2, *wl).run(1);
    // The warmed pass re-runs the same kernel with hot caches: far
    // fewer misses and cycles than the cold pass.
    EXPECT_LT(warm.l2ReadMisses, cold.l2ReadMisses / 2);
    EXPECT_LT(warm.cycles, cold.cycles);
    EXPECT_EQ(warm.instructions, cold.instructions);
}

TEST(GpuSystemTest, MpkiFormula)
{
    RunResult r;
    r.instructions = 1'000'000;
    r.l2ReadMisses = 5000;
    r.l2ErrorMisses = 1000;
    EXPECT_DOUBLE_EQ(r.mpki(), 6.0);
    EXPECT_EQ(r.l2Accesses(), 6000u);
}
