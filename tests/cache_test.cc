/**
 * @file
 * Tests for the cache models: L1 hit/miss/LRU behaviour and the
 * banked write-through L2 — miss handling, MSHR merging, LRU
 * eviction, write-through semantics, protection-scheme integration
 * (error-induced misses, allocation gating and priorities, SDC
 * accounting, backdoor invalidation), and the payload contract: a hook
 * that reads its data gets the golden data of the line's version.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/l1cache.hh"
#include "cache/l2cache.hh"
#include "cache/protection.hh"
#include "sim/dram.hh"
#include "sim/event_queue.hh"
#include "sim/golden.hh"

using namespace killi;

namespace
{

/** Tiny geometry: 8KB, 4-way, 64B lines, 2 banks -> 32 sets. */
CacheGeometry
tinyGeom()
{
    return CacheGeometry{8 * 1024, 4, 64, 2};
}

/** Scriptable protection for driving the L2's hooks. */
class MockProtection : public ProtectionScheme
{
  public:
    /** One hook call that read its payload. */
    struct PayloadSeen
    {
        std::string hook;
        std::size_t line;
        BitVec data;
    };

    std::string name() const override { return "Mock"; }

    bool
    readsPayload(std::size_t lineId) const override
    {
        (void)lineId;
        return payloadReads;
    }

    /** Record @p data as seen by @p hook when the script reads it. */
    void
    see(const char *hook, std::size_t lineId, const BitVec &data)
    {
        if (payloadReads)
            seen.push_back({hook, lineId, data});
    }

    bool
    canAllocate(std::size_t lineId) const override
    {
        return allocatable.empty() || allocatable[lineId];
    }

    int
    allocPriority(std::size_t lineId) const override
    {
        return priorities.empty() ? 0 : priorities[lineId];
    }

    AccessResult
    onReadHit(std::size_t lineId, const BitVec &data) override
    {
        see("read_hit", lineId, data);
        lastReadLine = lineId;
        ++readHits;
        AccessResult res = nextResult;
        nextResult = AccessResult{};
        return res;
    }

    Cycle
    onFill(std::size_t lineId, const BitVec &data) override
    {
        see("fill", lineId, data);
        ++fills;
        lastFillLine = lineId;
        return 0;
    }

    Cycle
    onEvict(std::size_t lineId, const BitVec &data) override
    {
        see("evict", lineId, data);
        ++evicts;
        lastEvictLine = lineId;
        return 0;
    }

    void
    onWriteHit(std::size_t lineId, const BitVec &data) override
    {
        see("write_hit", lineId, data);
    }

    WritebackOutcome
    onWriteback(std::size_t lineId, const BitVec &data) override
    {
        see("writeback", lineId, data);
        return {};
    }

    void onInvalidate(std::size_t lineId) override
    {
        ++invalidates;
        lastInvalidateLine = lineId;
    }

    AccessResult nextResult;
    /** Scripted readsPayload() answer. */
    bool payloadReads = false;
    std::vector<PayloadSeen> seen;
    std::vector<bool> allocatable;
    std::vector<int> priorities;
    unsigned readHits = 0;
    unsigned fills = 0;
    unsigned evicts = 0;
    unsigned invalidates = 0;
    std::size_t lastReadLine = ~0u;
    std::size_t lastFillLine = ~0u;
    std::size_t lastEvictLine = ~0u;
    std::size_t lastInvalidateLine = ~0u;
};

struct L2Fixture
{
    L2Fixture()
        : dram(DramParams{}),
          l2(eq, dram, golden, prot, tinyGeom(), L2Params{})
    {
    }

    /** Issue a read and run to completion; returns response tick. */
    Tick
    readBlocking(Addr addr)
    {
        Tick done = 0;
        bool responded = false;
        l2.read(addr, [&](Tick when) {
            done = when;
            responded = true;
        });
        eq.run();
        EXPECT_TRUE(responded);
        return done;
    }

    EventQueue eq;
    GoldenMemory golden;
    DramModel dram;
    MockProtection prot;
    L2Cache l2;
};

} // namespace

TEST(L1CacheTest, MissThenHit)
{
    L1Cache l1(CacheGeometry{16 * 1024, 4, 64, 1});
    EXPECT_FALSE(l1.lookup(0x1000));
    l1.fill(0x1000);
    EXPECT_TRUE(l1.lookup(0x1000));
    EXPECT_TRUE(l1.lookup(0x1010)); // same line
    EXPECT_FALSE(l1.lookup(0x2000));
}

TEST(L1CacheTest, LruEvictsOldest)
{
    // 4-way set: fill 5 conflicting lines, the first must be gone.
    CacheGeometry g{16 * 1024, 4, 64, 1};
    L1Cache l1(g);
    const std::size_t setStride = g.numSets() * g.lineBytes;
    for (int i = 0; i < 5; ++i)
        l1.fill(0x1000 + i * setStride);
    EXPECT_FALSE(l1.lookup(0x1000));
    for (int i = 1; i < 5; ++i)
        EXPECT_TRUE(l1.lookup(0x1000 + i * setStride));
}

TEST(L1CacheTest, LookupRefreshesRecency)
{
    CacheGeometry g{16 * 1024, 4, 64, 1};
    L1Cache l1(g);
    const std::size_t setStride = g.numSets() * g.lineBytes;
    for (int i = 0; i < 4; ++i)
        l1.fill(0x0 + i * setStride);
    EXPECT_TRUE(l1.lookup(0x0)); // refresh way 0
    l1.fill(4 * setStride);      // evicts way 1 (now LRU)
    EXPECT_TRUE(l1.lookup(0x0));
    EXPECT_FALSE(l1.lookup(1 * setStride));
}

TEST(L1CacheTest, WriteThroughNeverAllocates)
{
    L1Cache l1(CacheGeometry{16 * 1024, 4, 64, 1});
    l1.writeThrough(0x3000);
    EXPECT_FALSE(l1.lookup(0x3000));
}

TEST(L1CacheTest, FlushDropsEverything)
{
    L1Cache l1(CacheGeometry{16 * 1024, 4, 64, 1});
    l1.fill(0x1000);
    l1.flush();
    EXPECT_FALSE(l1.lookup(0x1000));
}

TEST(CacheIndexTest, ShiftMaskMatchesGeometryDivision)
{
    const CacheGeometry geoms[] = {tinyGeom(),
                                   CacheGeometry{16 * 1024, 4, 64, 1},
                                   CacheGeometry{}};
    for (const CacheGeometry &g : geoms) {
        const SetIndex index(g, "test");
        for (Addr addr = 0; addr < (Addr{1} << 40);
             addr = addr * 3 + 0x1234567) {
            const Addr line = g.lineAddr(addr);
            EXPECT_EQ(index.setOf(addr), g.setOf(addr));
            EXPECT_EQ(index.tagOf(addr), g.tagOf(addr));
            EXPECT_EQ(index.lineAddr(g.tagOf(line), g.setOf(line)),
                      line);
        }
    }
}

TEST(CacheIndexDeathTest, NonPowerOfTwoGeometryIsFatal)
{
    // 3 sets of 4 ways, 64B lines.
    EXPECT_DEATH(L1Cache(CacheGeometry{3 * 4 * 64, 4, 64, 1}),
                 "L1Cache: .*powers of two");
    // 48B lines.
    EXPECT_DEATH(
        {
            EventQueue eq;
            GoldenMemory golden(48);
            DramModel dram(DramParams{});
            MockProtection prot;
            L2Cache l2(eq, dram, golden, prot,
                       CacheGeometry{48 * 4 * 32, 4, 48, 2}, L2Params{});
        },
        "L2Cache: .*powers of two");
}

TEST(L2CacheTest, MissThenHitCounters)
{
    L2Fixture f;
    f.readBlocking(0x1000);
    EXPECT_EQ(f.l2.stats().counterValue("read_misses"), 1u);
    EXPECT_TRUE(f.l2.isCached(0x1000));
    f.readBlocking(0x1000);
    EXPECT_EQ(f.l2.stats().counterValue("read_hits"), 1u);
    EXPECT_EQ(f.prot.readHits, 1u);
    EXPECT_EQ(f.prot.fills, 1u);
}

TEST(L2CacheTest, HitIsFasterThanMiss)
{
    L2Fixture f;
    const Tick miss = f.readBlocking(0x40);
    const Tick start = f.eq.curTick();
    const Tick hit = f.readBlocking(0x40);
    EXPECT_GT(miss, 200u);          // paid DRAM latency
    EXPECT_LT(hit - start, 20u);    // tag + data + xbar only
}

TEST(L2CacheTest, MshrMergesConcurrentMisses)
{
    L2Fixture f;
    int responses = 0;
    f.l2.read(0x80, [&](Tick) { ++responses; });
    f.l2.read(0x84, [&](Tick) { ++responses; }); // same line
    f.l2.read(0xB0, [&](Tick) { ++responses; }); // same line
    f.eq.run();
    EXPECT_EQ(responses, 3);
    EXPECT_EQ(f.dram.reads(), 1u);
    EXPECT_EQ(f.prot.fills, 1u);
}

TEST(L2CacheTest, FullMshrRetriesAndKeepsWaiterOrder)
{
    // One MSHR per bank: a miss to a second line of the same bank
    // finds the file full and replays after mshrRetryDelay. The delay
    // outlasts the first fill, so exactly one retry happens.
    L2Params params;
    params.mshrsPerBank = 1;
    params.mshrRetryDelay = 1000;
    EventQueue eq;
    GoldenMemory golden;
    DramModel dram(DramParams{});
    MockProtection prot;
    L2Cache l2(eq, dram, golden, prot, tinyGeom(), params);
    const Addr lineA = 0x0000; // set 0, bank 0
    const Addr lineB = 0x0080; // set 2, bank 0
    ASSERT_EQ(tinyGeom().bankOf(lineA), tinyGeom().bankOf(lineB));

    std::vector<int> order;
    std::vector<Tick> whenA;
    Tick whenB = 0;
    for (int i = 1; i <= 3; ++i) {
        l2.read(lineA + 4 * i, [&, i](Tick t) {
            order.push_back(i);
            whenA.push_back(t);
        });
    }
    l2.read(lineB, [&](Tick t) { whenB = t; });
    eq.run();

    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    ASSERT_EQ(whenA.size(), 3u);
    EXPECT_EQ(whenA[0], whenA[1]);
    EXPECT_EQ(whenA[1], whenA[2]);
    EXPECT_EQ(l2.stats().counterValue("mshr_retries"), 1u);
    EXPECT_EQ(l2.stats().counterValue("read_misses"), 4u);
    EXPECT_EQ(dram.reads(), 2u);
    // B's DRAM read starts only after the retry delay.
    EXPECT_GE(whenB, params.mshrRetryDelay + DramParams{}.latency);
    EXPECT_GT(whenB, whenA[0]);
    EXPECT_TRUE(l2.isCached(lineA));
    EXPECT_TRUE(l2.isCached(lineB));
}

TEST(L2CacheTest, WriteThroughUpdatesMemoryAndLine)
{
    L2Fixture f;
    f.readBlocking(0x100);
    EXPECT_TRUE(f.l2.isCached(0x100));
    f.l2.write(0x100);
    f.eq.run();
    EXPECT_EQ(f.l2.stats().counterValue("write_hits"), 1u);
    EXPECT_EQ(f.dram.writes(), 1u);
    // Memory version bumped: the refetched data must be v1.
    EXPECT_EQ(f.golden.version(0x100), 1u);
}

TEST(L2CacheTest, WriteMissDoesNotAllocate)
{
    L2Fixture f;
    f.l2.write(0x200);
    f.eq.run();
    EXPECT_EQ(f.l2.stats().counterValue("write_misses"), 1u);
    EXPECT_FALSE(f.l2.isCached(0x200));
    EXPECT_EQ(f.dram.writes(), 1u);
}

TEST(L2CacheTest, LruEvictionAcrossWays)
{
    L2Fixture f;
    const CacheGeometry g = tinyGeom();
    const std::size_t setStride = g.numSets() * g.lineBytes;
    // Fill all 4 ways of set 0, then a 5th line evicts the LRU.
    for (int i = 0; i < 4; ++i)
        f.readBlocking(i * setStride);
    f.readBlocking(0); // refresh the first line
    f.readBlocking(4 * setStride);
    EXPECT_EQ(f.l2.stats().counterValue("evictions"), 1u);
    EXPECT_TRUE(f.l2.isCached(0));
    EXPECT_FALSE(f.l2.isCached(1 * setStride));
    EXPECT_EQ(f.prot.evicts, 1u);
    EXPECT_EQ(f.prot.invalidates, 1u);
}

TEST(L2CacheTest, ErrorInducedMissRefetches)
{
    L2Fixture f;
    f.readBlocking(0x40);
    f.prot.nextResult.errorInducedMiss = true;
    const Tick start = f.eq.curTick();
    const Tick resp = f.readBlocking(0x40);
    EXPECT_EQ(f.l2.stats().counterValue("error_misses"), 1u);
    EXPECT_GT(resp - start, 200u); // went to memory
    EXPECT_EQ(f.dram.reads(), 2u);
    EXPECT_TRUE(f.l2.isCached(0x40)); // refilled
    // The drop also notified the scheme.
    EXPECT_GE(f.prot.invalidates, 1u);
}

TEST(L2CacheTest, SdcCounterFollowsProtection)
{
    L2Fixture f;
    f.readBlocking(0x40);
    f.prot.nextResult.sdc = true;
    f.readBlocking(0x40);
    EXPECT_EQ(f.l2.stats().counterValue("sdc"), 1u);
}

TEST(L2CacheTest, ExtraLatencyCharged)
{
    L2Fixture f;
    f.readBlocking(0x40);
    const Tick s1 = f.eq.curTick();
    const Tick fastHit = f.readBlocking(0x40) - s1;
    f.prot.nextResult.extraLatency = 7;
    const Tick s2 = f.eq.curTick();
    const Tick slowHit = f.readBlocking(0x40) - s2;
    EXPECT_EQ(slowHit, fastHit + 7);
}

TEST(L2CacheTest, DisabledSetBypasses)
{
    L2Fixture f;
    const CacheGeometry g = tinyGeom();
    f.prot.allocatable.assign(g.numLines(), true);
    // Disable all 4 ways of the target set.
    const std::size_t set = g.setOf(0x0);
    for (unsigned w = 0; w < g.assoc; ++w)
        f.prot.allocatable[g.lineId(set, w)] = false;
    f.readBlocking(0x0);
    EXPECT_EQ(f.l2.stats().counterValue("bypass_fills"), 1u);
    EXPECT_FALSE(f.l2.isCached(0x0));
    // A second access misses again.
    f.readBlocking(0x0);
    EXPECT_EQ(f.l2.stats().counterValue("read_misses"), 2u);
}

TEST(L2CacheTest, AllocPriorityChoosesPreferredWay)
{
    L2Fixture f;
    const CacheGeometry g = tinyGeom();
    f.prot.priorities.assign(g.numLines(), 0);
    const std::size_t set = g.setOf(0x0);
    f.prot.priorities[g.lineId(set, 2)] = 5;
    f.readBlocking(0x0);
    EXPECT_EQ(f.prot.lastFillLine, g.lineId(set, 2));
}

TEST(L2CacheTest, BackdoorInvalidationDropsLine)
{
    L2Fixture f;
    f.readBlocking(0x40);
    EXPECT_TRUE(f.l2.isCached(0x40));
    f.l2.invalidateLine(f.prot.lastFillLine);
    EXPECT_FALSE(f.l2.isCached(0x40));
    EXPECT_EQ(f.l2.stats().counterValue("prot_invalidations"), 1u);
    // The drop routes through onEvict (classification chance).
    EXPECT_EQ(f.prot.evicts, 1u);
    EXPECT_EQ(f.prot.lastEvictLine, f.prot.lastFillLine);
}

TEST(L2CacheTest, ValidLinesTracksResidency)
{
    L2Fixture f;
    EXPECT_EQ(f.l2.validLines(), 0u);
    f.readBlocking(0x000);
    f.readBlocking(0x040);
    f.readBlocking(0x080);
    EXPECT_EQ(f.l2.validLines(), 3u);
}

TEST(L2CacheTest, BankConflictsSerialize)
{
    // Two concurrent reads to lines in the same bank queue behind
    // one another; reads to different banks do not.
    L2Fixture f;
    f.readBlocking(0x0000);       // warm bank 0
    f.readBlocking(0x0040);       // warm bank 1 (set 1)
    const CacheGeometry g = tinyGeom();
    const std::size_t setStride = g.numSets() * g.lineBytes;

    Tick sameA = 0, sameB = 0;
    f.l2.read(0x0000, [&](Tick t) { sameA = t; });
    f.l2.read(0x0000 + setStride * 0 + 0x1000, [&](Tick t) {
        // 0x1000 = set 0 again (32 sets * 64B = 0x800... pick the
        // same bank via same set parity): same bank as 0x0000.
        sameB = t;
    });
    f.eq.run();
    (void)sameA;
    (void)sameB;
    // The occupancy model guarantees distinct issue slots per bank;
    // with both requests arriving together the second completes no
    // earlier than the first.
    EXPECT_GE(sameB, sameA);
}

namespace
{

struct WbL2Fixture
{
    WbL2Fixture()
        : dram(DramParams{}),
          l2(eq, dram, golden, prot, tinyGeom(),
             [] {
                 L2Params p;
                 p.writePolicy = WritePolicy::WriteBack;
                 return p;
             }())
    {
    }

    Tick
    readBlocking(Addr addr)
    {
        Tick done = 0;
        l2.read(addr, [&](Tick when) { done = when; });
        eq.run();
        return done;
    }

    EventQueue eq;
    GoldenMemory golden;
    DramModel dram;
    MockProtection prot;
    L2Cache l2;
};

} // namespace

TEST(L2WritebackTest, WriteHitDirtiesWithoutMemoryWrite)
{
    WbL2Fixture f;
    f.readBlocking(0x100);
    f.l2.write(0x100);
    f.eq.run();
    EXPECT_EQ(f.l2.stats().counterValue("write_hits"), 1u);
    EXPECT_EQ(f.dram.writes(), 0u); // deferred until eviction
}

TEST(L2WritebackTest, WriteMissAllocates)
{
    WbL2Fixture f;
    f.l2.write(0x200);
    f.eq.run();
    EXPECT_TRUE(f.l2.isCached(0x200)); // write-allocate
    EXPECT_EQ(f.dram.writes(), 0u);
    EXPECT_EQ(f.prot.fills, 1u);
}

TEST(L2WritebackTest, EvictionFlushesDirtyLine)
{
    WbL2Fixture f;
    const CacheGeometry g = tinyGeom();
    const std::size_t setStride = g.numSets() * g.lineBytes;
    f.l2.write(0x0);
    f.eq.run();
    // Evict the dirty line by filling the set's four ways plus one.
    for (int i = 1; i <= 4; ++i)
        f.readBlocking(i * setStride);
    EXPECT_EQ(f.l2.stats().counterValue("writebacks"), 1u);
    EXPECT_EQ(f.dram.writes(), 1u);
    EXPECT_FALSE(f.l2.isCached(0x0));
}

TEST(L2WritebackTest, BackdoorInvalidationFlushesDirtyLine)
{
    WbL2Fixture f;
    f.l2.write(0x140);
    f.eq.run();
    EXPECT_TRUE(f.l2.isCached(0x140));
    f.l2.invalidateLine(f.prot.lastFillLine);
    EXPECT_EQ(f.l2.stats().counterValue("writebacks"), 1u);
    EXPECT_EQ(f.dram.writes(), 1u);
}

TEST(L2WritebackTest, CleanEvictionWritesNothing)
{
    WbL2Fixture f;
    const CacheGeometry g = tinyGeom();
    const std::size_t setStride = g.numSets() * g.lineBytes;
    for (int i = 0; i <= 4; ++i)
        f.readBlocking(i * setStride);
    EXPECT_EQ(f.l2.stats().counterValue("evictions"), 1u);
    EXPECT_EQ(f.dram.writes(), 0u);
}

// --- Payload contract ---------------------------------------------------

TEST(L2PayloadTest, HooksReadGoldenDataAtTheLineVersion)
{
    L2Fixture f;
    f.prot.payloadReads = true;
    const CacheGeometry g = tinyGeom();
    const std::size_t setStride = g.numSets() * g.lineBytes;
    const Addr a = 0x100;

    f.readBlocking(a); // fill, version 0
    const std::size_t line = f.prot.lastFillLine;
    f.readBlocking(a); // read hit
    f.l2.write(a);     // write hit, version 1
    f.eq.run();
    f.readBlocking(a); // read hit at version 1
    // Evict it: three more lines take the set's free ways, the fourth
    // evicts the LRU way, which is a's, and refills it.
    for (int i = 1; i <= 4; ++i)
        f.readBlocking(a + i * setStride);
    ASSERT_EQ(f.prot.lastEvictLine, line);

    const BitVec v0 = f.golden.data(a, 0);
    const BitVec v1 = f.golden.data(a, 1);
    ASSERT_NE(v0, v1);
    std::vector<std::pair<std::string, BitVec>> seen;
    for (const auto &s : f.prot.seen) {
        if (s.line == line)
            seen.emplace_back(s.hook, s.data);
    }
    const std::vector<std::pair<std::string, BitVec>> want = {
        {"fill", v0},     {"read_hit", v0}, {"write_hit", v1},
        {"read_hit", v1}, {"evict", v1},
        {"fill", f.golden.data(a + 4 * setStride)}};
    EXPECT_EQ(seen, want);
}

TEST(L2PayloadTest, PayloadBuiltOnDemandAfterAPayloadFreeFill)
{
    // A line filled while its scheme reads nothing (no fault yet)
    // still hands the right data to a later probe that does read it:
    // the case of a transient landing on a fault-free line.
    L2Fixture f;
    const Addr a = 0x2c0;
    f.readBlocking(a);
    f.l2.write(a);
    f.eq.run();
    EXPECT_TRUE(f.prot.seen.empty());

    f.prot.payloadReads = true;
    f.readBlocking(a);
    ASSERT_EQ(f.prot.seen.size(), 1u);
    EXPECT_EQ(f.prot.seen[0].hook, "read_hit");
    EXPECT_EQ(f.prot.seen[0].data, f.golden.data(a));
    EXPECT_EQ(f.golden.version(a), 1u);

    f.l2.invalidateLine(f.prot.lastReadLine);
    ASSERT_EQ(f.prot.seen.size(), 2u);
    EXPECT_EQ(f.prot.seen[1].hook, "evict");
    EXPECT_EQ(f.prot.seen[1].data, f.golden.data(a));
}

TEST(L2PayloadTest, WritebackReadsOutTheStoredVersion)
{
    WbL2Fixture f;
    f.prot.payloadReads = true;
    const CacheGeometry g = tinyGeom();
    const std::size_t setStride = g.numSets() * g.lineBytes;
    const Addr a = 0x0;

    f.readBlocking(a); // clean fill at version 0
    f.l2.write(a);     // dirty, version 1
    f.eq.run();
    for (int i = 1; i <= 4; ++i)
        f.readBlocking(a + i * setStride);
    ASSERT_EQ(f.l2.stats().counterValue("writebacks"), 1u);

    const BitVec v1 = f.golden.data(a, 1);
    std::vector<std::string> hooks;
    for (const auto &s : f.prot.seen) {
        if (s.hook == "write_hit" || s.hook == "evict" ||
            s.hook == "writeback") {
            hooks.push_back(s.hook);
            EXPECT_EQ(s.data, v1) << s.hook;
        }
    }
    EXPECT_EQ(hooks, (std::vector<std::string>{"write_hit", "evict",
                                               "writeback"}));

    // Write-allocate: the fill and the store both see the new version.
    f.prot.seen.clear();
    const Addr b = 0x200;
    f.l2.write(b);
    f.eq.run();
    ASSERT_EQ(f.prot.seen.size(), 2u);
    EXPECT_EQ(f.prot.seen[0].hook, "fill");
    EXPECT_EQ(f.prot.seen[1].hook, "write_hit");
    EXPECT_EQ(f.prot.seen[0].data, f.golden.data(b));
    EXPECT_EQ(f.prot.seen[1].data, f.golden.data(b));
    EXPECT_EQ(f.golden.version(b), 1u);
}
