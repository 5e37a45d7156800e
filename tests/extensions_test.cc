/**
 * @file
 * Tests for the extension features beyond the paper's headline
 * configuration: transient (soft-error) injection and its Table 2
 * handling, the scrubber (footnote 7), and §5.6.1 write-back support
 * with DFH-graded dirty-line protection.
 */

#include <gtest/gtest.h>

#include <memory>

#include "baselines/precharacterized.hh"
#include "fault/fault_map.hh"
#include "fault/voltage_model.hh"
#include "gpu/gpu_system.hh"
#include "killi/killi.hh"
#include "iid_die.hh"

using namespace killi;

namespace
{

class MockHost : public L2Backdoor
{
  public:
    void
    invalidateLine(std::size_t lineId) override
    {
        invalidated.push_back(lineId);
    }

    Tick now() const override { return 0; }

    std::vector<std::size_t> invalidated;
};

CacheGeometry
testGeom()
{
    return CacheGeometry{16 * 1024, 16, 64, 2};
}

struct Rig
{
    explicit Rig(KilliParams kp = KilliParams{})
        : faults(std::make_unique<FaultMap>(
              iidDie(testGeom().numLines(), 77), 720, model))
    {
        faults->setVoltage(1.0);
        prot = std::make_unique<KilliProtection>(*faults, kp);
        prot->attach(host, testGeom());
    }

    BitVec
    zeros() const
    {
        return BitVec(512);
    }

    VoltageModel model;
    MockHost host;
    std::unique_ptr<FaultMap> faults;
    std::unique_ptr<KilliProtection> prot;
};

} // namespace

// --- Transient faults in the fault map --------------------------------

TEST(TransientTest, VisibleRegardlessOfStoredValue)
{
    Rig r;
    r.faults->injectTransient(0, 100);
    BitVec zeros(512), ones(512);
    for (std::size_t i = 0; i < 512; ++i)
        ones.set(i);
    for (const BitVec *data : {&zeros, &ones}) {
        const auto errs = r.faults->visibleErrors(0, *data);
        ASSERT_EQ(errs.size(), 1u);
        EXPECT_EQ(errs[0], 100u);
    }
}

TEST(TransientTest, ClearedOnRewrite)
{
    Rig r;
    r.faults->injectTransient(0, 100);
    r.faults->clearTransients(0);
    EXPECT_TRUE(r.faults->visibleErrors(0, BitVec(512)).empty());
}

TEST(TransientTest, DoubleUpsetTogglesBack)
{
    Rig r;
    r.faults->injectTransient(0, 100);
    r.faults->injectTransient(0, 100);
    EXPECT_TRUE(r.faults->visibleErrors(0, BitVec(512)).empty());
}

TEST(TransientTest, StuckCellsAreImmune)
{
    Rig r;
    r.faults->plantFault(0, 100, /*stuck=*/false);
    r.faults->injectTransient(0, 100);
    // Stored 0 over stuck-0: masked, and the transient cannot flip a
    // defect-held cell.
    EXPECT_TRUE(r.faults->visibleErrors(0, BitVec(512)).empty());
}

TEST(TransientTest, CountFaultsExcludesTransients)
{
    Rig r;
    r.faults->injectTransient(0, 5);
    EXPECT_EQ(r.faults->countFaults(0, 512), 0u);
}

// --- Killi's transient handling (Table 2 transient rows) --------------

TEST(TransientTest, Stable0TransientRaisesErrorMissAndRelearns)
{
    Rig r;
    const BitVec data = r.zeros();
    r.prot->onFill(0, data);
    r.prot->onReadHit(0, data);
    ASSERT_EQ(r.prot->dfhOf(0), Dfh::Stable0);

    r.faults->injectTransient(0, 33);
    const AccessResult res = r.prot->onReadHit(0, data);
    EXPECT_TRUE(res.errorInducedMiss);
    EXPECT_FALSE(res.sdc);
    EXPECT_EQ(r.prot->dfhOf(0), Dfh::Initial);

    // The refetch rewrites the cells (the L2 clears transients) and
    // the line proves clean again.
    r.faults->clearTransients(0);
    r.prot->onFill(0, data);
    r.prot->onReadHit(0, data);
    EXPECT_EQ(r.prot->dfhOf(0), Dfh::Stable0);
}

TEST(TransientTest, Stable1TransientCorrectedInPlace)
{
    Rig r;
    r.faults->plantFault(1, 10, true);
    const BitVec data = r.zeros();
    r.prot->onFill(1, data);
    r.prot->onReadHit(1, data);
    ASSERT_EQ(r.prot->dfhOf(1), Dfh::Stable1);

    // Write data that masks the LV fault, then hit a transient: the
    // single visible error is corrected by the stored checkbits.
    BitVec masking = r.zeros();
    masking.set(10); // matches the stuck-at-1 cell
    r.prot->onWriteHit(1, masking);
    r.faults->injectTransient(1, 200);
    const AccessResult res = r.prot->onReadHit(1, masking);
    EXPECT_FALSE(res.errorInducedMiss);
    EXPECT_FALSE(res.sdc);
}

TEST(TransientTest, MultiBitBurstDetectedByInterleavedParity)
{
    // Two adjacent upsets land in different folded groups: the
    // multi-bit soft-error case interleaving exists for.
    Rig r;
    const BitVec data = r.zeros();
    r.prot->onFill(2, data);
    r.prot->onReadHit(2, data);
    r.faults->injectTransient(2, 64);
    r.faults->injectTransient(2, 65);
    const AccessResult res = r.prot->onReadHit(2, data);
    EXPECT_TRUE(res.errorInducedMiss);
    EXPECT_FALSE(res.sdc);
    EXPECT_EQ(r.prot->dfhOf(2), Dfh::Disabled);
}

TEST(ScrubberTest, ReclaimsTransientDisabledLines)
{
    Rig r;
    const BitVec data = r.zeros();
    r.prot->onFill(2, data);
    r.prot->onReadHit(2, data);
    r.faults->injectTransient(2, 64);
    r.faults->injectTransient(2, 65);
    r.prot->onReadHit(2, data); // disables
    ASSERT_EQ(r.prot->dfhOf(2), Dfh::Disabled);
    ASSERT_FALSE(r.prot->canAllocate(2));

    r.prot->onMaintenance();
    EXPECT_EQ(r.prot->dfhOf(2), Dfh::Initial);
    EXPECT_TRUE(r.prot->canAllocate(2));
    EXPECT_EQ(r.prot->killiStats().scrubReclaims, 1u);
}

TEST(ScrubberTest, PersistentMultiFaultLinesRedisable)
{
    Rig r;
    r.faults->plantFault(3, 10, true);
    r.faults->plantFault(3, 11, true);
    const BitVec data = r.zeros();
    r.prot->onFill(3, data);
    r.prot->onReadHit(3, data);
    ASSERT_EQ(r.prot->dfhOf(3), Dfh::Disabled);

    r.prot->onMaintenance();
    EXPECT_EQ(r.prot->dfhOf(3), Dfh::Initial);
    // First use re-discovers the persistent population.
    r.prot->onFill(3, data);
    r.prot->onReadHit(3, data);
    EXPECT_EQ(r.prot->dfhOf(3), Dfh::Disabled);
}

// --- End-to-end soft-error injection -----------------------------------

TEST(SoftErrorSimTest, InjectionRaisesErrorMissesNotSdc)
{
    GpuParams gp;
    gp.l2.softErrorRatePerBitCycle = 2e-9; // aggressive, for signal
    gp.l2.maintenanceInterval = 100000;
    VoltageModel model;
    FaultMap faults(iidDie(gp.l2Geom.numLines(), 9), 720, model);
    faults.setVoltage(0.625);

    KilliProtection prot(faults, KilliParams{});
    const auto wl = makeWorkload("dgemm", 0.1);
    GpuSystem sys(gp, prot, *wl, &faults);
    const RunResult r = sys.run();
    EXPECT_GT(sys.l2().stats().softErrors, 0u);
    EXPECT_GT(r.l2ErrorMisses, 0u);
    // Single-bit upsets are always detected (parity) or corrected
    // (SECDED); only the 5.6.2 persistent-fault window may leak.
    EXPECT_LT(r.sdc, 50u);
}

TEST(SoftErrorSimTest, RequiresFaultMap)
{
    GpuParams gp;
    gp.l2.softErrorRatePerBitCycle = 1e-9;
    FaultFreeProtection prot;
    const auto wl = makeWorkload("dgemm", 0.01);
    EXPECT_DEATH({ GpuSystem sys(gp, prot, *wl, nullptr); }, "");
}

// --- Write-back mode (§5.6.1) ------------------------------------------

namespace
{

struct WbRig
{
    explicit WbRig(double voltage, KilliParams kp = [] {
        KilliParams k;
        k.writebackMode = true;
        return k;
    }())
        : faults(iidDie(gp.l2Geom.numLines(), 55), 720, model)
    {
        gp.l2.writePolicy = WritePolicy::WriteBack;
        faults.setVoltage(voltage);
        prot = std::make_unique<KilliProtection>(faults, kp);
    }

    GpuParams gp;
    VoltageModel model;
    FaultMap faults;
    std::unique_ptr<KilliProtection> prot;
};

} // namespace

TEST(WritebackTest, DirtyLinesFlushOnlyAtEviction)
{
    WbRig rig(1.0);
    const auto wl = makeWorkload("dgemm", 0.05);
    GpuSystem sys(rig.gp, *rig.prot, *wl, &rig.faults);
    const RunResult r = sys.run();

    // Write-back coalesces stores: memory writes are write-backs,
    // strictly fewer than the stores issued.
    const std::uint64_t stores = r.l2WriteHits + r.l2WriteMisses;
    EXPECT_GT(stores, 0u);
    EXPECT_GT(sys.l2().stats().writebacks, 0u);
    EXPECT_LT(r.dramWrites, stores);
    EXPECT_EQ(r.sdc, 0u);
    EXPECT_EQ(sys.l2().stats().wbDataLoss, 0u);
}

TEST(WritebackTest, WriteThroughWritesEveryStore)
{
    // Control experiment: the same workload under write-through
    // sends every store to memory.
    VoltageModel model;
    GpuParams gp; // default write-through
    FaultMap faults(iidDie(gp.l2Geom.numLines(), 55), 720, model);
    faults.setVoltage(1.0);
    KilliProtection prot(faults, KilliParams{});
    const auto wl = makeWorkload("dgemm", 0.05);
    GpuSystem sys(gp, prot, *wl, &faults);
    const RunResult r = sys.run();
    EXPECT_EQ(r.dramWrites, r.l2WriteHits + r.l2WriteMisses);
}

TEST(WritebackTest, DirtyStable0LineGetsCheckbits)
{
    KilliParams kp;
    kp.writebackMode = true;
    Rig r(kp);
    const BitVec data = r.zeros();
    r.prot->onFill(0, data);
    r.prot->onReadHit(0, data);
    ASSERT_EQ(r.prot->dfhOf(0), Dfh::Stable0);
    EXPECT_EQ(r.prot->eccCache().find(0), nullptr);

    // The store dirties the line: SECDED checkbits appear on demand.
    r.prot->onWriteHit(0, data);
    EXPECT_NE(r.prot->eccCache().find(0), nullptr);
}

TEST(WritebackTest, DirtyTransientCorrectedWithoutRefetch)
{
    KilliParams kp;
    kp.writebackMode = true;
    Rig r(kp);
    const BitVec data = r.zeros();
    r.prot->onFill(0, data);
    r.prot->onReadHit(0, data);
    r.prot->onWriteHit(0, data); // dirty
    r.faults->injectTransient(0, 123);

    const AccessResult res = r.prot->onReadHit(0, data);
    EXPECT_FALSE(res.errorInducedMiss) << "dirty data must not be "
                                          "dropped";
    EXPECT_FALSE(res.sdc);
    // The line is now suspected faulty.
    EXPECT_EQ(r.prot->dfhOf(0), Dfh::Stable1);
}

TEST(WritebackTest, DirtyStable1CarriesDected)
{
    KilliParams kp;
    kp.writebackMode = true;
    Rig r(kp);
    r.faults->plantFault(1, 10, true);
    const BitVec data = r.zeros();
    r.prot->onFill(1, data);
    r.prot->onReadHit(1, data);
    ASSERT_EQ(r.prot->dfhOf(1), Dfh::Stable1);

    // Dirty the line, then add a transient on top of the LV fault:
    // two visible errors — beyond SECDED, within DECTED.
    r.prot->onWriteHit(1, data);
    r.faults->injectTransient(1, 300);
    const AccessResult res = r.prot->onReadHit(1, data);
    EXPECT_FALSE(res.errorInducedMiss);
    EXPECT_FALSE(res.sdc);
    EXPECT_EQ(r.prot->dfhOf(1), Dfh::Stable1);
}

TEST(WritebackTest, CleanWritebackReportsClean)
{
    KilliParams kp;
    kp.writebackMode = true;
    Rig r(kp);
    const BitVec data = r.zeros();
    r.prot->onFill(0, data);
    r.prot->onWriteHit(0, data);
    const WritebackOutcome out = r.prot->onWriteback(0, data);
    EXPECT_TRUE(out.clean);
}

TEST(WritebackTest, CorrectableWritebackIsRepaired)
{
    KilliParams kp;
    kp.writebackMode = true;
    Rig r(kp);
    const BitVec data = r.zeros();
    r.prot->onFill(0, data);
    r.prot->onWriteHit(0, data);
    r.faults->injectTransient(0, 42);
    const WritebackOutcome out = r.prot->onWriteback(0, data);
    EXPECT_TRUE(out.clean);
    EXPECT_GT(out.extraCost, 0u);
}

TEST(WritebackTest, UncorrectableWritebackIsLoss)
{
    KilliParams kp;
    kp.writebackMode = true;
    Rig r(kp);
    const BitVec data = r.zeros();
    r.prot->onFill(0, data);
    r.prot->onWriteHit(0, data);
    // Two upsets on a dirty b'00 line: beyond SECDED.
    r.faults->injectTransient(0, 42);
    r.faults->injectTransient(0, 300);
    const WritebackOutcome out = r.prot->onWriteback(0, data);
    EXPECT_FALSE(out.clean);
}

TEST(WritebackTest, EndToEndAtOperatingVoltage)
{
    WbRig rig(0.625);
    const auto wl = makeWorkload("spmv", 0.1);
    GpuSystem sys(rig.gp, *rig.prot, *wl, &rig.faults);
    const RunResult r = sys.run();
    EXPECT_EQ(sys.l2().stats().wbDataLoss, 0u);
    EXPECT_EQ(sys.l2().stats().dirtyErrorLoss, 0u);
    EXPECT_LT(r.sdc, 50u); // 5.6.2 window only
}

TEST(WritebackTest, PrecharacterizedWritebackProbe)
{
    VoltageModel model;
    FaultMap faults(iidDie(testGeom().numLines(), 3), 720, model);
    faults.setVoltage(1.0);
    faults.plantFault(4, 10, true);
    auto scheme = makeFlair(faults);
    MockHost host;
    scheme->attach(host, testGeom());
    const BitVec data(512);
    scheme->onFill(4, data);
    const WritebackOutcome ok = scheme->onWriteback(4, data);
    EXPECT_TRUE(ok.clean); // single fault: SECDED repairs it
    faults.injectTransient(4, 400);
    const WritebackOutcome bad = scheme->onWriteback(4, data);
    EXPECT_FALSE(bad.clean); // double error: detect-only
}

// --- DFH bookkeeping regressions ---------------------------------------

TEST(ScrubberTest, ScrubReclaimIsAFirstClassTransition)
{
    // Regression: the scrubber used to mutate state[] directly,
    // bypassing noteTransition — no b'11 -> b'01 transition count
    // and no per-line dfh.transition trace event.
    Rig r;
    TraceSink sink;
    r.prot->setTrace(&sink);
    const BitVec data = r.zeros();
    r.prot->onFill(2, data);
    r.prot->onReadHit(2, data);
    r.faults->injectTransient(2, 64);
    r.faults->injectTransient(2, 65);
    r.prot->onReadHit(2, data); // disables
    ASSERT_EQ(r.prot->dfhOf(2), Dfh::Disabled);

    r.prot->onMaintenance();
    EXPECT_EQ(r.prot->dfhOf(2), Dfh::Initial);
    EXPECT_EQ(r.prot->killiStats().scrubReclaims, 1u);
    EXPECT_EQ(r.prot->killiStats().transitions[0b11][0b01], 1u);

    bool sawScrubTransition = false;
    for (const TraceEvent &ev : sink.events()) {
        if (std::string(ev.name) != "dfh.transition")
            continue;
        for (unsigned a = 0; a < ev.nargs; ++a) {
            if (std::string(ev.args[a].key) == "trigger" &&
                std::string(ev.args[a].s) == "scrub")
                sawScrubTransition = true;
        }
    }
    EXPECT_TRUE(sawScrubTransition);
}

TEST(WritebackTest, CleanDirtyWritebackReleasesEccEntry)
{
    // Regression: onWriteback cleared the dirty bit but never
    // released the ECC-cache entry a dirty b'00 line acquired at its
    // store (§5.6.1) — stranded capacity, and a latent panic under
    // KILLI_CHECK_INVARIANTS on the next hook.
    KilliParams kp;
    kp.writebackMode = true;
    Rig r(kp);
    const BitVec data = r.zeros();
    r.prot->onFill(5, data);
    r.prot->onReadHit(5, data); // clean training read -> b'00
    ASSERT_EQ(r.prot->dfhOf(5), Dfh::Stable0);
    r.prot->onWriteHit(5, data); // dirty: acquires SECDED entry
    ASSERT_NE(r.prot->eccCache().find(5), nullptr);

    const WritebackOutcome wb = r.prot->onWriteback(5, data);
    EXPECT_TRUE(wb.clean);
    EXPECT_EQ(r.prot->dfhOf(5), Dfh::Stable0);
    EXPECT_EQ(r.prot->eccCache().find(5), nullptr);
    // The next hook's invariant sweep must pass (panics if the entry
    // had been stranded, when KILLI_CHECK_INVARIANTS is on).
    r.prot->onReadHit(5, data);
}

TEST(WritebackTest, CorrectedDirtyWritebackReclassifiesLine)
{
    KilliParams kp;
    kp.writebackMode = true;
    Rig r(kp);
    const BitVec data = r.zeros();
    r.prot->onFill(6, data);
    r.prot->onReadHit(6, data); // -> b'00
    r.prot->onWriteHit(6, data);
    r.faults->injectTransient(6, 100); // single flip: correctable

    const WritebackOutcome wb = r.prot->onWriteback(6, data);
    EXPECT_TRUE(wb.clean);
    EXPECT_EQ(wb.extraCost, kp.correctionLatency);
    // Mirrors decideDirty: a b'00 line revealing a correctable error
    // is reclassified b'10.
    EXPECT_EQ(r.prot->dfhOf(6), Dfh::Stable1);
    EXPECT_EQ(r.prot->killiStats().transitions[0b00][0b10], 1u);
}

TEST(WritebackTest, UncorrectableDirtyWritebackDisablesLine)
{
    KilliParams kp;
    kp.writebackMode = true;
    Rig r(kp);
    const BitVec data = r.zeros();
    r.prot->onFill(7, data);
    r.prot->onReadHit(7, data); // -> b'00
    r.prot->onWriteHit(7, data);
    r.faults->injectTransient(7, 100);
    r.faults->injectTransient(7, 200); // double flip: uncorrectable

    const WritebackOutcome wb = r.prot->onWriteback(7, data);
    // The only copy is unrecoverable: the host sees !clean and the
    // line disables, exactly as decideDirty rules on the read path.
    EXPECT_FALSE(wb.clean);
    EXPECT_EQ(r.prot->dfhOf(7), Dfh::Disabled);
    EXPECT_EQ(r.prot->eccCache().find(7), nullptr);
    EXPECT_FALSE(r.prot->canAllocate(7));
}
