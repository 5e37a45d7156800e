/**
 * @file
 * Tests for the ktrace layer: category masks (compile-time grammar
 * and runtime filtering), ring wraparound accounting, JSONL / Chrome
 * trace_event serialization validated through the strict JSON
 * parser, StatTimeseries semantics, EventQueue periodic sampling,
 * and trace determinism across repeated runs.
 */

#include <bit>
#include <cmath>
#include <sstream>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "check/checker.hh"
#include "check/scenario.hh"
#include "common/log.hh"
#include "sim/event_queue.hh"
#include "trace/timeseries.hh"
#include "trace/trace.hh"

using namespace killi;

namespace
{

/** Record @p n events with increasing ticks into @p sink. */
void
recordN(TraceSink &sink, std::uint64_t n,
        TraceCat cat = TraceCat::Sim)
{
    for (std::uint64_t i = 0; i < n; ++i)
        sink.record(Tick(i), cat, "ev", {{"i", i}});
}

} // namespace

// ---- category mask grammar -----------------------------------------

TEST(TraceMask, CompileTimeGrammar)
{
    static_assert(traceMaskFromList("all") == kAllTraceCats);
    static_assert(traceMaskFromList("*") == kAllTraceCats);
    static_assert(traceMaskFromList("") == 0);
    static_assert(traceMaskFromList("none") == 0);
    static_assert(traceMaskFromList("dfh") ==
                  std::uint32_t(TraceCat::Dfh));
    static_assert(traceMaskFromList("dfh,ecc,l2") ==
                  (TraceCat::Dfh | TraceCat::Ecc |
                   std::uint32_t(TraceCat::L2)));
    static_assert(traceMaskFromList("bogus") == kBadTraceMask);
    static_assert(traceMaskFromList("dfh,bogus") == kBadTraceMask);
    // Stray commas are harmless.
    static_assert(traceMaskFromList(",dfh,,ecc,") ==
                  (TraceCat::Dfh | TraceCat::Ecc));
}

TEST(TraceMask, ParseReportsUnknownNames)
{
    std::uint32_t mask = 0;
    std::string err;
    EXPECT_TRUE(parseTraceCats("dfh,error", mask, &err));
    EXPECT_EQ(mask, TraceCat::Dfh | TraceCat::Error);

    EXPECT_FALSE(parseTraceCats("dfh,nope", mask, &err));
    EXPECT_NE(err.find("nope"), std::string::npos)
        << "error should name the bad token: " << err;
    // The message lists the known categories for discoverability.
    EXPECT_NE(err.find("dfh"), std::string::npos) << err;
}

TEST(TraceMask, EveryCategoryRoundTripsThroughItsName)
{
    for (unsigned bit = 0; bit < 8; ++bit) {
        const TraceCat cat = TraceCat(1u << bit);
        std::uint32_t mask = 0;
        ASSERT_TRUE(parseTraceCats(traceCatName(cat), mask));
        EXPECT_EQ(mask, std::uint32_t(cat))
            << "category " << traceCatName(cat);
    }
}

// ---- runtime filtering ---------------------------------------------

TEST(TraceSink, RuntimeMaskFiltersCategories)
{
    TraceSink sink;
    sink.setMask(std::uint32_t(TraceCat::Dfh));
    Tick t = 0;
    KTRACE(&sink, ++t, TraceCat::Dfh, "kept", {"x", 1});
    KTRACE(&sink, ++t, TraceCat::Ecc, "filtered", {"x", 2});
    KTRACE(&sink, ++t, TraceCat::L2, "filtered", {"x", 3});

    const auto events = sink.events();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_STREQ(events[0].name, "kept");
    EXPECT_EQ(events[0].cat, TraceCat::Dfh);
    EXPECT_EQ(sink.recorded(), 1u);
}

TEST(TraceSink, NullSinkIsSafe)
{
    TraceSink *sink = nullptr;
    // Must not dereference; the macro guards the null itself.
    KTRACE(sink, 1, TraceCat::Sim, "nothing", {"x", 1});
    SUCCEED();
}

// ---- ring wraparound -----------------------------------------------

TEST(TraceSink, RingWraparoundKeepsNewestAndCountsDropped)
{
    TraceSink sink(8);
    recordN(sink, 20);
    EXPECT_EQ(sink.recorded(), 20u);
    EXPECT_EQ(sink.dropped(), 12u);
    EXPECT_EQ(sink.retained(), 8u);

    const auto events = sink.events();
    ASSERT_EQ(events.size(), 8u);
    // The survivors are the newest 8, still in tick order.
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i].tick, Tick(12 + i));
}

TEST(TraceSink, ClearDropsEventsButKeepsRecording)
{
    TraceSink sink(8);
    recordN(sink, 5);
    const auto before = sink.events();
    ASSERT_EQ(before.size(), 5u);
    const std::uint64_t maxSeqBefore = before.back().seq;

    sink.clear();
    EXPECT_EQ(sink.retained(), 0u);
    recordN(sink, 3);
    EXPECT_EQ(sink.retained(), 3u);

    // Sequence numbers stay monotonic across clear(): the (tick, seq)
    // record order remains unique over the whole sink lifetime.
    for (const TraceEvent &ev : sink.events())
        EXPECT_GT(ev.seq, maxSeqBefore);
}

// ---- serialization -------------------------------------------------

TEST(TraceSink, JsonlIsOneStrictJsonObjectPerLine)
{
    TraceSink sink;
    sink.record(1, TraceCat::Dfh, "dfh.transition",
                {{"line", 7}, {"from", "b01"}, {"to", "b10"},
                 {"frac", 0.5}, {"ok", true}});
    sink.record(2, TraceCat::Ecc, "ecc.install", {{"line", 9}});

    std::ostringstream os;
    sink.writeJsonl(os);
    std::istringstream is(os.str());
    std::string line;
    std::size_t lines = 0;
    while (std::getline(is, line)) {
        Json doc;
        std::string err;
        ASSERT_TRUE(Json::parse(line, doc, &err))
            << err << " in: " << line;
        EXPECT_TRUE(doc.contains("t"));
        EXPECT_TRUE(doc.contains("cat"));
        EXPECT_TRUE(doc.contains("name"));
        ++lines;
    }
    EXPECT_EQ(lines, 2u);
}

TEST(TraceSink, ChromeTraceRoundTripsThroughStrictParser)
{
    TraceSink sink;
    sink.record(10, TraceCat::L2, "l2.read_hit", {{"line", 3}});
    sink.record(11, TraceCat::Error, "error.detect",
                {{"line", 3}, {"dfh", "b01"}});

    std::ostringstream os;
    sink.writeChromeTrace(os);
    Json doc;
    std::string err;
    ASSERT_TRUE(Json::parse(os.str(), doc, &err)) << err;

    const Json &events = doc.at("traceEvents");
    ASSERT_EQ(events.size(), 2u);
    const Json &first = events.at(0);
    // Fields the trace_event spec requires for instant events.
    EXPECT_EQ(first.at("ph").asString(), "i");
    EXPECT_EQ(first.at("s").asString(), "t");
    EXPECT_EQ(first.at("ts").asInt(), 10);
    EXPECT_EQ(first.at("name").asString(), "l2.read_hit");
    EXPECT_EQ(first.at("cat").asString(), "l2");
    EXPECT_EQ(first.at("args").at("line").asInt(), 3);
    // Bookkeeping lands in otherData.
    EXPECT_EQ(doc.at("otherData").at("recorded").asInt(), 2);
}

TEST(TraceSink, ArgTypesSerializeFaithfully)
{
    TraceSink sink;
    sink.record(1, TraceCat::Sim, "types",
                {{"u", std::uint64_t{1} << 40}, {"i", -5},
                 {"f", 2.5}, {"b", false}, {"s", "txt"}});
    const Json doc = sink.toJson();
    const Json &args = doc.at(0).at("args");
    EXPECT_EQ(args.at("u").asInt(), std::int64_t{1} << 40);
    EXPECT_EQ(args.at("i").asInt(), -5);
    EXPECT_DOUBLE_EQ(args.at("f").asDouble(), 2.5);
    EXPECT_FALSE(args.at("b").asBool());
    EXPECT_EQ(args.at("s").asString(), "txt");
}

// ---- determinism ---------------------------------------------------

TEST(TraceDeterminism, IdenticalScenarioYieldsIdenticalTrace)
{
    // The property the sweep relies on at any --jobs: a point's
    // trace is a function of its inputs only, so re-running the same
    // seed gives a byte-identical file.
    const check::Scenario sc = check::Scenario::generate(1234);
    std::string first;
    for (int round = 0; round < 2; ++round) {
        TraceSink sink;
        check::runScenario(sc, 8, &sink);
        std::ostringstream os;
        sink.writeChromeTrace(os);
        if (round == 0) {
            first = os.str();
            EXPECT_GT(sink.retained(), 0u)
                << "scenario produced no events";
        } else {
            EXPECT_EQ(first, os.str());
        }
    }
}

// ---- StatTimeseries ------------------------------------------------

TEST(StatTimeseries, SamplesColumnsInRegistrationOrder)
{
    StatTimeseries ts(100);
    double x = 1.0;
    ts.addSource("x", [&x] { return x; });
    ts.addSource("x2", [&x] { return x * x; });

    ts.sample(100);
    x = 3.0;
    ts.sample(200);

    EXPECT_EQ(ts.samples(), 2u);
    EXPECT_DOUBLE_EQ(ts.lastValue("x"), 3.0);
    EXPECT_DOUBLE_EQ(ts.lastValue("x2"), 9.0);

    const Json doc = ts.toJson();
    EXPECT_EQ(doc.at("interval").asInt(), 100);
    EXPECT_EQ(doc.at("columns").at(0).asString(), "tick");
    EXPECT_EQ(doc.at("columns").at(1).asString(), "x");
    EXPECT_EQ(doc.at("columns").at(2).asString(), "x2");
    EXPECT_EQ(doc.at("samples").at(1).at(0).asInt(), 200);
    EXPECT_DOUBLE_EQ(doc.at("samples").at(0).at(2).asDouble(), 1.0);
}

TEST(StatTimeseries, SameTickOverwritesInsteadOfDuplicating)
{
    StatTimeseries ts(10);
    double v = 1.0;
    ts.addSource("v", [&v] { return v; });
    ts.sample(50);
    v = 2.0;
    ts.sample(50); // the explicit final sample may coincide
    EXPECT_EQ(ts.samples(), 1u);
    EXPECT_DOUBLE_EQ(ts.lastValue("v"), 2.0);
}

TEST(StatTimeseries, LastValueOfUnknownColumnIsNaN)
{
    StatTimeseries ts;
    EXPECT_TRUE(std::isnan(ts.lastValue("missing")));
    ts.addSource("v", [] { return 1.0; });
    EXPECT_TRUE(std::isnan(ts.lastValue("v"))); // never sampled
}

TEST(StatTimeseriesDeath, AddSourceAfterSamplingPanics)
{
    StatTimeseries ts;
    ts.addSource("v", [] { return 1.0; });
    ts.sample(1);
    EXPECT_DEATH(ts.addSource("late", [] { return 0.0; }),
                 "sampling");
}

TEST(StatTimeseriesDeath, DuplicateColumnPanics)
{
    StatTimeseries ts;
    ts.addSource("v", [] { return 1.0; });
    EXPECT_DEATH(ts.addSource("v", [] { return 2.0; }), "v");
}

// ---- EventQueue periodic hook --------------------------------------

TEST(EventQueuePeriodic, FiresEveryIntervalWhileEventsRemain)
{
    EventQueue eq;
    std::vector<Tick> fired;
    eq.setPeriodic(10, [&] { fired.push_back(eq.curTick()); });
    eq.schedule(35, [] {});
    EXPECT_TRUE(eq.run());
    // Fires at 10, 20, 30; stops with the last event at 35.
    EXPECT_EQ(fired, (std::vector<Tick>{10, 20, 30}));
}

TEST(EventQueuePeriodic, SampleAtTickSeesStateBeforeSameTickEvents)
{
    EventQueue eq;
    int value = 0;
    std::vector<int> observed;
    eq.setPeriodic(10, [&] { observed.push_back(value); });
    // The event at tick 10 coincides with the periodic firing: the
    // snapshot must observe the world *before* the event runs.
    eq.schedule(10, [&value] { value = 7; });
    eq.schedule(15, [] {});
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(observed, (std::vector<int>{0}));
}

TEST(EventQueuePeriodic, TracesScheduleAndPeriodicEvents)
{
    EventQueue eq;
    TraceSink sink;
    eq.setTrace(&sink);
    eq.setPeriodic(5, [] {});
    eq.schedule(7, [] {});
    EXPECT_TRUE(eq.run());

    bool sawSchedule = false, sawPeriodic = false;
    for (const TraceEvent &ev : sink.events()) {
        if (std::string_view(ev.name) == "sim.schedule")
            sawSchedule = true;
        if (std::string_view(ev.name) == "sim.periodic")
            sawPeriodic = true;
    }
    EXPECT_TRUE(sawSchedule);
    EXPECT_TRUE(sawPeriodic);
}

TEST(EventQueuePeriodic, IntervalZeroUninstalls)
{
    EventQueue eq;
    int fired = 0;
    eq.setPeriodic(10, [&fired] { ++fired; });
    eq.setPeriodic(0, nullptr);
    eq.schedule(25, [] {});
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, 0);
}

// ---- drop accounting (kmetrics satellite) --------------------------

TEST(TraceSink, StatsAttributeDropsToTheOverwrittenCategory)
{
    TraceSink sink(4);
    // 6 Sim events then 2 Ecc: the ring holds the newest 4, so the
    // first 4 overwritten victims are all Sim events.
    recordN(sink, 6, TraceCat::Sim);
    recordN(sink, 2, TraceCat::Ecc);

    const TraceSinkStats stats = sink.stats();
    EXPECT_EQ(stats.recorded, 8u);
    EXPECT_EQ(stats.retained, 4u);
    EXPECT_EQ(stats.dropped, 4u);
    std::uint64_t byCatTotal = 0;
    for (const std::uint64_t n : stats.droppedByCat)
        byCatTotal += n;
    EXPECT_EQ(byCatTotal, stats.dropped)
        << "per-category drops must sum to the total";
    // All victims were Sim records.
    EXPECT_EQ(stats.droppedByCat[std::countr_zero(
                  std::uint32_t(TraceCat::Sim))],
              4u);

    const Json doc = stats.toJson();
    EXPECT_EQ(doc.at("dropped").asInt(), 4);
    EXPECT_EQ(doc.at("dropped_by_cat").at("sim").asInt(), 4);
    // Categories that never dropped are omitted.
    EXPECT_FALSE(doc.at("dropped_by_cat").contains("ecc"));
}

TEST(TraceSink, DroppedRecordsFeedTheProcessWideTotal)
{
    const std::uint64_t before = traceDroppedRecordsTotal();
    TraceSink sink(2);
    recordN(sink, 10);
    EXPECT_EQ(traceDroppedRecordsTotal(), before + 8u);
}

TEST(TraceSink, FirstDropWarnsOnceAndOnlyOnce)
{
    ScopedLogCapture capture;
    TraceSink sink(4);
    recordN(sink, 4);
    EXPECT_FALSE(capture.contains("ring buffer full"))
        << "no drop yet, no warning";
    recordN(sink, 10);
    EXPECT_TRUE(capture.contains("ring buffer full"));

    std::size_t warnings = 0;
    for (const std::string &line : capture.messages())
        if (line.find("ring buffer full") != std::string::npos)
            ++warnings;
    EXPECT_EQ(warnings, 1u) << "the warn() must be one-shot";

    // Further drops stay silent but keep counting.
    recordN(sink, 10);
    warnings = 0;
    for (const std::string &line : capture.messages())
        if (line.find("ring buffer full") != std::string::npos)
            ++warnings;
    EXPECT_EQ(warnings, 1u);
    // 24 recorded into a 4-slot ring.
    EXPECT_EQ(sink.stats().dropped, 20u);
}

TEST(TraceSink, ClearResetsPerCategoryDropCounts)
{
    TraceSink sink(2);
    recordN(sink, 6, TraceCat::L2);
    ASSERT_GT(sink.stats().dropped, 0u);
    sink.clear();
    const TraceSinkStats stats = sink.stats();
    for (const std::uint64_t n : stats.droppedByCat)
        EXPECT_EQ(n, 0u);
}
