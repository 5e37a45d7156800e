/**
 * @file
 * Tests for the pre-characterized baseline schemes: MBIST disable
 * thresholds (including masked faults, which MBIST sees and Killi
 * does not), real-codec correction behaviour on read hits, and
 * voltage-reset recharacterization.
 */

#include <gtest/gtest.h>

#include <memory>

#include "baselines/precharacterized.hh"
#include "cache/geometry.hh"
#include "common/rng.hh"
#include "fault/voltage_model.hh"
#include "iid_die.hh"

using namespace killi;

namespace
{

class NullHost : public L2Backdoor
{
  public:
    void invalidateLine(std::size_t) override {}
    Tick now() const override { return 0; }
};

CacheGeometry
testGeom()
{
    return CacheGeometry{16 * 1024, 16, 64, 2};
}

struct BaselineFixture
{
    BaselineFixture()
        : faults(std::make_unique<FaultMap>(
              iidDie(testGeom().numLines(), 5), 720, model))
    {
        faults->setVoltage(1.0); // plant deterministically
    }

    void
    use(std::unique_ptr<PrecharacterizedScheme> s)
    {
        scheme = std::move(s);
        scheme->attach(host, testGeom());
    }

    VoltageModel model;
    NullHost host;
    std::unique_ptr<FaultMap> faults;
    std::unique_ptr<PrecharacterizedScheme> scheme;
};

} // namespace

TEST(BaselineTest, FlairDisablesTwoFaultLines)
{
    BaselineFixture f;
    f.faults->plantFault(3, 10, true);
    f.faults->plantFault(5, 10, true);
    f.faults->plantFault(5, 200, false); // masked on zeros — MBIST
                                         // still sees it
    f.use(makeFlair(*f.faults));
    EXPECT_TRUE(f.scheme->canAllocate(3));   // 1 fault: SECDED copes
    EXPECT_FALSE(f.scheme->canAllocate(5));  // 2 faults: disabled
    EXPECT_EQ(f.scheme->disabledLines(), 1u);
}

TEST(BaselineTest, DectedToleratesTwoDisablesThree)
{
    BaselineFixture f;
    f.faults->plantFault(3, 10, true);
    f.faults->plantFault(3, 11, true);
    f.faults->plantFault(4, 10, true);
    f.faults->plantFault(4, 11, true);
    f.faults->plantFault(4, 12, true);
    f.use(makeDectedLine(*f.faults));
    EXPECT_TRUE(f.scheme->canAllocate(3));
    EXPECT_FALSE(f.scheme->canAllocate(4));
}

TEST(BaselineTest, MsEccToleratesElevenFaults)
{
    BaselineFixture f;
    for (unsigned i = 0; i < 11; ++i)
        f.faults->plantFault(6, static_cast<std::uint16_t>(i * 40),
                             true);
    for (unsigned i = 0; i < 12; ++i)
        f.faults->plantFault(7, static_cast<std::uint16_t>(i * 40),
                             true);
    f.use(makeMsEcc(*f.faults));
    EXPECT_TRUE(f.scheme->canAllocate(6));
    EXPECT_FALSE(f.scheme->canAllocate(7));
}

TEST(BaselineTest, SingleFaultCorrectedOnRead)
{
    BaselineFixture f;
    f.faults->plantFault(3, 10, true);
    f.use(makeFlair(*f.faults));
    const BitVec data(512); // zeros: fault visible
    f.scheme->onFill(3, data);
    const AccessResult res = f.scheme->onReadHit(3, data);
    EXPECT_FALSE(res.errorInducedMiss);
    EXPECT_FALSE(res.sdc);
    EXPECT_EQ(f.scheme->stats().corrections, 1u);
    // codec + correction latency.
    EXPECT_EQ(res.extraLatency, 2u);
}

TEST(BaselineTest, MaskedFaultCostsNothing)
{
    BaselineFixture f;
    f.faults->plantFault(3, 10, /*stuck=*/false);
    f.use(makeFlair(*f.faults));
    const BitVec data(512); // zeros match the stuck value
    f.scheme->onFill(3, data);
    const AccessResult res = f.scheme->onReadHit(3, data);
    EXPECT_FALSE(res.errorInducedMiss);
    EXPECT_EQ(f.scheme->stats().corrections, 0u);
    EXPECT_EQ(res.extraLatency, 0u); // masked: check hidden in pipe
}

TEST(BaselineTest, CheckbitCellFaultHandled)
{
    // SECDED checkbits live in the LV array too (positions 512+).
    BaselineFixture f;
    f.faults->plantFault(3, 515, true);
    f.use(makeFlair(*f.faults));
    BitVec data(512);
    data.set(1); // make the target checkbit 0 so the fault shows
    f.scheme->onFill(3, data);
    const AccessResult res = f.scheme->onReadHit(3, data);
    // Either masked (checkbit happened to be 1) or corrected; never
    // an SDC or a miss for a single fault.
    EXPECT_FALSE(res.errorInducedMiss);
    EXPECT_FALSE(res.sdc);
}

TEST(BaselineTest, FaultFreeFastPathSkipsCodec)
{
    BaselineFixture f;
    f.use(makeDectedLine(*f.faults));
    const BitVec data(512);
    f.scheme->onFill(9, data);
    const AccessResult res = f.scheme->onReadHit(9, data);
    EXPECT_EQ(res.extraLatency, 0u); // clean path: latency hidden
    EXPECT_FALSE(res.errorInducedMiss);
}

TEST(BaselineTest, DectedCorrectsTwoVisibleFaults)
{
    BaselineFixture f;
    f.faults->plantFault(4, 10, true);
    f.faults->plantFault(4, 300, true);
    f.use(makeDectedLine(*f.faults));
    const BitVec data(512);
    f.scheme->onFill(4, data);
    const AccessResult res = f.scheme->onReadHit(4, data);
    EXPECT_FALSE(res.errorInducedMiss);
    EXPECT_FALSE(res.sdc);
    EXPECT_EQ(f.scheme->stats().corrections, 1u);
}

TEST(BaselineTest, MsEccBehavioralCorrection)
{
    BaselineFixture f;
    for (unsigned i = 0; i < 8; ++i)
        f.faults->plantFault(6, static_cast<std::uint16_t>(i * 60),
                             true);
    f.use(makeMsEcc(*f.faults));
    const BitVec data(512);
    f.scheme->onFill(6, data);
    const AccessResult res = f.scheme->onReadHit(6, data);
    EXPECT_FALSE(res.errorInducedMiss);
    EXPECT_FALSE(res.sdc);
    EXPECT_EQ(f.scheme->stats().corrections, 1u);
}

TEST(BaselineTest, ResetRecharacterizes)
{
    BaselineFixture f;
    f.use(makeFlair(*f.faults));
    EXPECT_EQ(f.scheme->disabledLines(), 0u);
    f.faults->plantFault(8, 10, true);
    f.faults->plantFault(8, 11, true);
    f.scheme->reset();
    EXPECT_FALSE(f.scheme->canAllocate(8));
    EXPECT_EQ(f.scheme->disabledLines(), 1u);
}

TEST(BaselineTest, UsableLinesAccounting)
{
    BaselineFixture f;
    f.faults->plantFault(1, 0, true);
    f.faults->plantFault(1, 1, true);
    f.faults->plantFault(2, 0, true);
    f.faults->plantFault(2, 1, true);
    f.use(makeFlair(*f.faults));
    EXPECT_EQ(f.scheme->usableLines(), testGeom().numLines() - 2);
}

TEST(BaselineTest, SchemeNames)
{
    BaselineFixture f;
    EXPECT_EQ(makeFlair(*f.faults)->name(), "FLAIR");
    EXPECT_EQ(makeSecdedLine(*f.faults)->name(), "SECDED");
    EXPECT_EQ(makeDectedLine(*f.faults)->name(), "DECTED");
    EXPECT_EQ(makeMsEcc(*f.faults)->name(), "MS-ECC");
}

// --- Payload contract ---------------------------------------------------

TEST(BaselineTest, TransientAfterFaultFreeFillIsCorrectedOrDetected)
{
    // No checkbits are stored: the probe re-encodes them from the
    // data it is handed, so an upset landing after a payload-free
    // fill is still corrected (one flip) or detected (two).
    BaselineFixture f;
    f.use(makeSecdedLine(*f.faults));
    BitVec data(512);
    Rng rng(22);
    data.randomize(rng);

    EXPECT_FALSE(f.scheme->readsPayload(5));
    f.scheme->onFill(5, data);
    f.faults->injectTransient(5, 200);
    EXPECT_TRUE(f.scheme->readsPayload(5));
    AccessResult res = f.scheme->onReadHit(5, data);
    EXPECT_FALSE(res.errorInducedMiss);
    EXPECT_FALSE(res.sdc);
    EXPECT_EQ(f.scheme->stats().corrections, 1u);

    // A checkbit cell (positions 512..522) flips as well.
    f.faults->clearTransients(6);
    f.scheme->onFill(6, data);
    f.faults->injectTransient(6, 517);
    res = f.scheme->onReadHit(6, data);
    EXPECT_FALSE(res.errorInducedMiss);
    EXPECT_FALSE(res.sdc);
    EXPECT_EQ(f.scheme->stats().corrections, 2u);

    f.scheme->onFill(7, data);
    f.faults->injectTransient(7, 10);
    f.faults->injectTransient(7, 11);
    res = f.scheme->onReadHit(7, data);
    EXPECT_TRUE(res.errorInducedMiss);
    EXPECT_FALSE(res.sdc);
    EXPECT_EQ(f.scheme->stats().errorMisses, 1u);
}

TEST(BaselineTest, OnlyCodecSchemesReadPayloads)
{
    BaselineFixture f;
    f.faults->plantFault(2, 10, true);
    f.use(makeMsEcc(*f.faults));
    EXPECT_FALSE(f.scheme->readsPayload(2)); // behavioural
    f.use(makeDectedLine(*f.faults));
    EXPECT_TRUE(f.scheme->readsPayload(2));
    EXPECT_FALSE(f.scheme->readsPayload(3)); // fault-free
    FaultFreeProtection none;
    EXPECT_FALSE(none.readsPayload(2));
}
