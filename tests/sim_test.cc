/**
 * @file
 * Tests for the simulation kernel: event ordering and determinism,
 * DRAM latency/occupancy behaviour, and the golden-memory oracle.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <vector>

#include "sim/dram.hh"
#include "sim/event_queue.hh"
#include "sim/golden.hh"

using namespace killi;

// Counting replacements for the global allocation functions, so a
// test can assert that a code path never reaches the heap. Every
// non-aligned form is replaced, so new and delete stay paired on
// malloc/free (also under sanitizers that intercept malloc).
namespace
{
std::atomic<std::uint64_t> heapAllocations{0};

void *
countedAlloc(std::size_t n)
{
    heapAllocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n ? n : 1);
}

void *
countedAllocOrThrow(std::size_t n)
{
    if (void *p = countedAlloc(n))
        return p;
    throw std::bad_alloc();
}
} // namespace

void *operator new(std::size_t n) { return countedAllocOrThrow(n); }
void *operator new[](std::size_t n) { return countedAllocOrThrow(n); }
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

TEST(EventQueueTest, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueueTest, TiesBreakByPriorityThenInsertion)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] { order.push_back(1); }, 0);
    eq.schedule(5, [&] { order.push_back(2); }, -1); // runs first
    eq.schedule(5, [&] { order.push_back(3); }, 0);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{2, 1, 3}));
}

TEST(EventQueueTest, PopOrderIsTotalOverWhenPrioritySeq)
{
    // The determinism contract (DESIGN.md): pops are strictly
    // increasing in (when, priority, seq), regardless of heap
    // internals or insertion order. Insert a deterministic shuffle
    // of (tick, priority) pairs and check the exact total order.
    EventQueue eq;
    struct Popped
    {
        Tick when;
        int priority;
        std::uint64_t seq;
    };
    std::vector<Popped> pops;
    std::uint64_t seq = 0;
    // A fixed LCG shuffles insertion without platform randomness.
    std::uint64_t lcg = 12345;
    for (int i = 0; i < 64; ++i) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        const Tick when = Tick(10 + (lcg >> 33) % 4);  // 4 tick bins
        const int priority = int((lcg >> 13) % 3) - 1; // -1, 0, 1
        const std::uint64_t mySeq = seq++;
        eq.schedule(when, [&pops, &eq, when, priority, mySeq] {
            EXPECT_EQ(eq.curTick(), when);
            pops.push_back({when, priority, mySeq});
        }, priority);
    }
    eq.run();
    ASSERT_EQ(pops.size(), 64u);
    for (std::size_t i = 1; i < pops.size(); ++i) {
        const Popped &a = pops[i - 1];
        const Popped &b = pops[i];
        const bool increasing =
            a.when != b.when
                ? a.when < b.when
                : a.priority != b.priority ? a.priority < b.priority
                                           : a.seq < b.seq;
        EXPECT_TRUE(increasing)
            << "pop " << i << ": (" << a.when << "," << a.priority
            << "," << a.seq << ") then (" << b.when << ","
            << b.priority << "," << b.seq << ")";
    }
}

TEST(EventQueueTest, SameTickScheduleDuringPopRunsAfterPeers)
{
    // An event scheduled *during* a same-tick pop gets a larger seq
    // than every already-queued peer, so it runs after them — the
    // property replay recordings depend on for stable pop logs.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] {
        order.push_back(1);
        eq.schedule(5, [&] { order.push_back(3); });
    });
    eq.schedule(5, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, CallbacksMayScheduleMore)
{
    EventQueue eq;
    int fired = 0;
    std::function<void()> chain = [&] {
        if (++fired < 5)
            eq.scheduleIn(2, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(eq.curTick(), 8u);
}

TEST(EventQueueTest, RunHonoursLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(100, [&] { ++fired; });
    EXPECT_FALSE(eq.run(50));
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.curTick(), 50u);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, SchedulingIntoThePastPanics)
{
    EventQueue eq;
    eq.schedule(10, [&] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(5, [] {}), "");
}

TEST(EventQueueTest, MoveOnlyCaptureSchedulesAndRuns)
{
    EventQueue eq;
    int seen = 0;
    auto payload = std::make_unique<int>(42);
    eq.schedule(3, [&seen, p = std::move(payload)] { seen = *p; });
    eq.run();
    EXPECT_EQ(seen, 42);
}

TEST(EventQueueTest, CapturedStateIsDestroyedExactlyOnce)
{
    const auto token = std::make_shared<int>(0);
    {
        EventQueue eq;
        for (Tick t = 1; t <= 4; ++t)
            eq.schedule(t, [token] { ++*token; });
        EXPECT_EQ(token.use_count(), 5);
        eq.run();
        EXPECT_EQ(*token, 4);
        EXPECT_EQ(token.use_count(), 1);

        // Pending events still own their captures until the queue
        // goes away.
        eq.schedule(100, [token] { ++*token; });
        eq.schedule(200, [token] { ++*token; });
        EXPECT_FALSE(eq.run(150));
        EXPECT_EQ(token.use_count(), 2);
    }
    EXPECT_EQ(*token, 5);
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueueTest, PeriodicNullUninstalls)
{
    EventQueue eq;
    const auto token = std::make_shared<int>(0);
    eq.setPeriodic(10, [token] { ++*token; });
    EXPECT_EQ(token.use_count(), 2);
    eq.setPeriodic(0, nullptr);
    EXPECT_EQ(token.use_count(), 1);
    eq.schedule(35, [] {});
    eq.run();
    EXPECT_EQ(*token, 0);
}

TEST(EventQueueTest, SameTickBurstPopsInSeqOrder)
{
    // 10K events scheduled at the current tick from inside a callback
    // exercise deep heap sifts; they must still pop in seq order.
    constexpr int kEvents = 10000;
    EventQueue eq;
    std::vector<int> order;
    order.reserve(kEvents);
    eq.schedule(7, [&] {
        for (int i = 0; i < kEvents; ++i)
            eq.schedule(7, [&order, i] { order.push_back(i); });
    });
    eq.run();
    ASSERT_EQ(order.size(), std::size_t(kEvents));
    for (int i = 0; i < kEvents; ++i)
        ASSERT_EQ(order[i], i);
    EXPECT_EQ(eq.curTick(), 7u);
}

namespace
{

/** Self-rescheduling event shaped like a CU continuation: 24 bytes
 *  of captured state, a few lanes in flight at once. */
struct Hop
{
    EventQueue *eq;
    std::uint64_t *remaining;
    unsigned lane;

    void
    operator()() const
    {
        if (*remaining == 0)
            return;
        --*remaining;
        eq->scheduleIn(1 + lane % 3, *this, int(lane % 2));
    }
};

} // namespace

TEST(EventQueueTest, SteadyStateIsAllocationFree)
{
    constexpr unsigned kLanes = 64;
    EventQueue eq;
    std::uint64_t remaining = 0;
    const auto cycle = [&] {
        remaining = 10000;
        for (unsigned lane = 0; lane < kLanes; ++lane)
            eq.scheduleIn(1, Hop{&eq, &remaining, lane});
        eq.run();
    };
    const std::uint64_t start = heapAllocations.load();
    cycle(); // warm-up: grows the slab, the free list and the heap
    // The counter is live: growing the queue's storage allocates.
    EXPECT_GT(heapAllocations.load(), start);

    const std::uint64_t before = heapAllocations.load();
    const std::uint64_t eventsBefore = eq.eventsExecuted();
    cycle();
    const std::uint64_t allocations = heapAllocations.load() - before;
    EXPECT_EQ(allocations, 0u);
    EXPECT_EQ(eq.eventsExecuted() - eventsBefore, 10000u + kLanes);
}

TEST(DramTest, LatencyApplied)
{
    DramParams p;
    p.latency = 200;
    p.occupancyPerAccess = 4;
    DramModel dram(p);
    EXPECT_EQ(dram.access(0, false, 100), 300u);
}

TEST(DramTest, ChannelOccupancySerializes)
{
    DramParams p;
    p.channels = 1;
    p.latency = 100;
    p.occupancyPerAccess = 4;
    DramModel dram(p);
    const Tick t1 = dram.access(0, false, 0);
    const Tick t2 = dram.access(64, false, 0);
    const Tick t3 = dram.access(128, false, 0);
    EXPECT_EQ(t1, 100u);
    EXPECT_EQ(t2, 104u); // queued behind the first burst
    EXPECT_EQ(t3, 108u);
}

TEST(DramTest, ChannelsInterleaveByLine)
{
    DramParams p;
    p.channels = 2;
    p.latency = 100;
    p.occupancyPerAccess = 4;
    DramModel dram(p);
    const Tick a = dram.access(0, false, 0);   // channel 0
    const Tick b = dram.access(64, false, 0);  // channel 1
    EXPECT_EQ(a, 100u);
    EXPECT_EQ(b, 100u); // no queuing across channels
}

TEST(DramTest, CountsReadsAndWrites)
{
    DramModel dram(DramParams{});
    dram.access(0, false, 0);
    dram.access(0, true, 0);
    dram.access(64, true, 0);
    EXPECT_EQ(dram.stats().reads, 1u);
    EXPECT_EQ(dram.stats().writes, 2u);
}

TEST(GoldenMemoryTest, DeterministicContent)
{
    GoldenMemory mem;
    const BitVec a = mem.data(0x1000, 0);
    const BitVec b = mem.data(0x1000, 0);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.size(), 512u);
}

TEST(GoldenMemoryTest, VersionsChangeContent)
{
    GoldenMemory mem;
    const BitVec v0 = mem.data(0x40, 0);
    EXPECT_EQ(mem.version(0x40), 0u);
    EXPECT_EQ(mem.write(0x40), 1u);
    const BitVec v1 = mem.data(0x40);
    EXPECT_NE(v0, v1);
    EXPECT_EQ(mem.data(0x40, 0), v0); // old versions reproducible
}

TEST(GoldenMemoryTest, DistinctLinesDiffer)
{
    GoldenMemory mem;
    EXPECT_NE(mem.data(0, 0), mem.data(64, 0));
}
