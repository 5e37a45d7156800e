/**
 * @file
 * Unit tests for the kcommon utility library: BitVec semantics and
 * invariants, RNG determinism and distribution sanity, JSON
 * documents, and table rendering.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <sstream>
#include <thread>

#include "common/bitvec.hh"
#include "common/hash.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "common/table.hh"

using namespace killi;

TEST(BitVecTest, ConstructsZeroed)
{
    BitVec v(523);
    EXPECT_EQ(v.size(), 523u);
    EXPECT_TRUE(v.zero());
    EXPECT_EQ(v.popcount(), 0u);
    EXPECT_FALSE(v.parity());
}

TEST(BitVecTest, SetGetFlip)
{
    BitVec v(100);
    v.set(0);
    v.set(63);
    v.set(64);
    v.set(99);
    EXPECT_TRUE(v.get(0));
    EXPECT_TRUE(v.get(63));
    EXPECT_TRUE(v.get(64));
    EXPECT_TRUE(v.get(99));
    EXPECT_FALSE(v.get(1));
    EXPECT_EQ(v.popcount(), 4u);
    v.flip(0);
    EXPECT_FALSE(v.get(0));
    v.set(99, false);
    EXPECT_FALSE(v.get(99));
    EXPECT_EQ(v.popcount(), 2u);
}

TEST(BitVecTest, TailMaskingInvariant)
{
    // Writing a full word into the last partial word must not leak
    // bits beyond size(): popcount and parity depend on it.
    BitVec v(65);
    v.setWord(1, ~std::uint64_t{0});
    EXPECT_EQ(v.popcount(), 1u);
    EXPECT_TRUE(v.get(64));
}

TEST(BitVecTest, XorAndOr)
{
    BitVec a(70), b(70);
    a.set(3);
    a.set(68);
    b.set(3);
    b.set(10);
    const BitVec x = a ^ b;
    EXPECT_FALSE(x.get(3));
    EXPECT_TRUE(x.get(10));
    EXPECT_TRUE(x.get(68));
    const BitVec an = a & b;
    EXPECT_EQ(an.popcount(), 1u);
    EXPECT_TRUE(an.get(3));
    const BitVec o = a | b;
    EXPECT_EQ(o.popcount(), 3u);
}

TEST(BitVecTest, Parity)
{
    BitVec v(523);
    EXPECT_FALSE(v.parity());
    v.set(5);
    EXPECT_TRUE(v.parity());
    v.set(511);
    EXPECT_FALSE(v.parity());
    v.set(522);
    EXPECT_TRUE(v.parity());
}

TEST(BitVecTest, DotParityMatchesExplicitAnd)
{
    Rng rng(7);
    for (int iter = 0; iter < 50; ++iter) {
        BitVec a(523), m(523);
        a.randomize(rng);
        m.randomize(rng);
        EXPECT_EQ(a.dotParity(m), (a & m).parity());
    }
}

TEST(BitVecTest, HammingDistance)
{
    BitVec a(128), b(128);
    a.set(0);
    a.set(100);
    b.set(100);
    b.set(101);
    EXPECT_EQ(a.hammingDistance(b), 2u);
    EXPECT_EQ(a.hammingDistance(a), 0u);
}

TEST(BitVecTest, OnesPositions)
{
    BitVec v(130);
    v.set(0);
    v.set(64);
    v.set(129);
    const auto ones = v.onesPositions();
    ASSERT_EQ(ones.size(), 3u);
    EXPECT_EQ(ones[0], 0u);
    EXPECT_EQ(ones[1], 64u);
    EXPECT_EQ(ones[2], 129u);
}

TEST(BitVecTest, StringRoundTrip)
{
    Rng rng(11);
    BitVec v(75);
    v.randomize(rng);
    const BitVec back = BitVec::fromString(v.toString());
    EXPECT_EQ(back, v);
}

TEST(RngTest, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next64(), b.next64());
}

TEST(RngTest, SeedsDiffer)
{
    Rng a(1), b(2);
    EXPECT_NE(a.next64(), b.next64());
}

TEST(RngTest, UniformInRange)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(RngTest, BelowIsBounded)
{
    Rng rng(5);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 3000; ++i) {
        const std::uint64_t v = rng.below(7);
        EXPECT_LT(v, 7u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u); // all residues reachable
}

TEST(RngTest, BernoulliFrequency)
{
    Rng rng(9);
    int hits = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(hits / double(trials), 0.3, 0.02);
}

TEST(RngTest, PoissonMean)
{
    Rng rng(13);
    double sum = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i)
        sum += rng.poisson(2.5);
    EXPECT_NEAR(sum / trials, 2.5, 0.1);
}

TEST(TableTest, RendersAligned)
{
    TextTable t;
    t.header({"name", "value"});
    t.row({"alpha", "1"});
    t.row({"b", "22.5"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("| name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("22.5"), std::string::npos);
}

TEST(TableTest, NumFormatting)
{
    EXPECT_EQ(TextTable::num(0.625, 3), "0.625");
    EXPECT_EQ(TextTable::num(1.0, 1), "1.0");
}

TEST(TableTest, MismatchedRowWidthIsFatal)
{
    TextTable t;
    t.header({"a", "b"});
    EXPECT_DEATH(t.row({"only-one"}), "");
}

TEST(BitVecTest, FromStringRejectsGarbage)
{
    EXPECT_DEATH(BitVec::fromString("01x0"), "");
}

TEST(RngTest, ForkedStreamsDiverge)
{
    Rng parent(5);
    Rng childA = parent.fork();
    Rng childB = parent.fork();
    EXPECT_NE(childA.next64(), childB.next64());
}

TEST(JsonTest, ScalarRoundTrip)
{
    Json doc = Json::object();
    doc.set("i", Json::number(std::int64_t{-42}));
    doc.set("u", Json::number(std::uint64_t{1} << 63));
    doc.set("d", Json::number(0.625));
    doc.set("s", Json::string("hi \"there\"\n"));
    doc.set("t", Json::boolean(true));
    doc.set("n", Json::null());

    Json back;
    std::string err;
    ASSERT_TRUE(Json::parse(doc.toString(), back, &err)) << err;
    EXPECT_EQ(back, doc);
    EXPECT_EQ(back.at("i").asInt(), -42);
    EXPECT_DOUBLE_EQ(back.at("d").asDouble(), 0.625);
    EXPECT_EQ(back.at("s").asString(), "hi \"there\"\n");
    EXPECT_TRUE(back.at("n").isNull());
}

TEST(JsonTest, NestedArraysAndObjects)
{
    Json arr = Json::array();
    for (int i = 0; i < 3; ++i) {
        Json entry = Json::object();
        entry.set("idx", Json::number(std::int64_t(i)));
        arr.push(std::move(entry));
    }
    Json doc = Json::object();
    doc.set("rows", std::move(arr));

    Json back;
    ASSERT_TRUE(Json::parse(doc.toString(), back, nullptr));
    ASSERT_EQ(back.at("rows").size(), 3u);
    EXPECT_EQ(back.at("rows").at(2).at("idx").asInt(), 2);
}

TEST(JsonTest, ObjectsPreserveInsertionOrder)
{
    Json doc = Json::object();
    doc.set("zebra", Json::number(std::int64_t{1}));
    doc.set("alpha", Json::number(std::int64_t{2}));
    ASSERT_EQ(doc.members().size(), 2u);
    EXPECT_EQ(doc.members()[0].first, "zebra");
    EXPECT_EQ(doc.members()[1].first, "alpha");
}

TEST(JsonTest, NonFiniteDoublesSerializeAsNull)
{
    Json doc = Json::object();
    doc.set("bad", Json::number(std::nan("")));
    EXPECT_NE(doc.toString().find("null"), std::string::npos);
    Json back;
    ASSERT_TRUE(Json::parse(doc.toString(), back, nullptr));
    EXPECT_TRUE(back.at("bad").isNull());
}

TEST(JsonTest, ParserRejectsMalformedInput)
{
    Json out;
    std::string err;
    EXPECT_FALSE(Json::parse("{\"a\": }", out, &err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(Json::parse("[1, 2", out, &err));
    EXPECT_FALSE(Json::parse("{\"a\": 1} trailing", out, &err));
    EXPECT_FALSE(Json::parse("", out, &err));
}

TEST(JsonTest, DoubleKindSurvivesRoundTripForWholeValues)
{
    // 2.0 must come back as a Double (not Int) so that results files
    // are stable under rewrite.
    Json doc = Json::number(2.0);
    Json back;
    ASSERT_TRUE(Json::parse(doc.toString(), back, nullptr));
    EXPECT_EQ(back.kind(), Json::Kind::Double);
    EXPECT_EQ(back, doc);
}

TEST(JsonTest, FileRoundTripCreatesParentDirs)
{
    const std::string dir = ::testing::TempDir() + "/killi_json_test";
    const std::string path = dir + "/nested/out.json";
    Json doc = Json::object();
    doc.set("answer", Json::number(std::int64_t{42}));
    writeJsonFile(path, doc);
    EXPECT_EQ(readJsonFile(path), doc);
    std::remove(path.c_str());
}

TEST(TableTest, ToJsonKeysRowsByHeader)
{
    TextTable t;
    t.header({"name", "value"});
    t.row({"alpha", "1"});
    t.row({"beta", "2"});
    const Json doc = t.toJson();
    ASSERT_EQ(doc.size(), 2u);
    EXPECT_EQ(doc.at(0).at("name").asString(), "alpha");
    EXPECT_EQ(doc.at(1).at("value").asString(), "2");
}

// ---- logging: pluggable sink, capture, cycle timestamps ------------

TEST(LogTest, CaptureSeesWarnAndInform)
{
    ScopedLogCapture capture;
    warn("deprecated knob %s", "x");
    inform("loaded %d entries", 7);
    EXPECT_TRUE(capture.contains("deprecated knob x"));
    EXPECT_TRUE(capture.contains("loaded 7 entries"));
    ASSERT_EQ(capture.messages().size(), 2u);
    EXPECT_EQ(capture.messages()[0].rfind("warn:", 0), 0u)
        << capture.messages()[0];
    capture.clear();
    EXPECT_TRUE(capture.messages().empty());
}

TEST(LogTest, CaptureRestoresPreviousSinkOnDestruction)
{
    ScopedLogCapture outer;
    {
        ScopedLogCapture inner;
        warn("inner message");
        EXPECT_TRUE(inner.contains("inner message"));
        EXPECT_FALSE(outer.contains("inner message"));
    }
    warn("outer message");
    EXPECT_TRUE(outer.contains("outer message"));
}

TEST(LogTest, ClockPrefixesMessagesWithTick)
{
    ScopedLogCapture capture;
    {
        Tick t = 1234;
        ScopedLogClock clock([&t] { return t; });
        warn("mid-run condition");
    }
    warn("post-run condition");
    ASSERT_EQ(capture.messages().size(), 2u);
    EXPECT_NE(capture.messages()[0].find("@1234"), std::string::npos)
        << capture.messages()[0];
    EXPECT_EQ(capture.messages()[1].find("@"), std::string::npos)
        << capture.messages()[1];
}

TEST(LogTest, ClockIsPerThread)
{
    // Regression test: concurrent simulations (runner --jobs=N) each
    // install a ScopedLogClock on their own worker thread. The old
    // process-global clock made overlapping scopes restore/delete
    // each other's clocks (use-after-free); now each thread stamps
    // with its own clock and other threads are unaffected.
    ScopedLogCapture capture;
    std::thread a([] {
        ScopedLogClock clock([] { return Tick(111); });
        for (int i = 0; i < 200; ++i)
            warn("from thread a");
    });
    std::thread b([] {
        ScopedLogClock clock([] { return Tick(222); });
        for (int i = 0; i < 200; ++i)
            warn("from thread b");
    });
    a.join();
    b.join();
    // The main thread never installed a clock, so it is unstamped.
    warn("from main");

    const std::vector<std::string> lines = capture.messages();
    ASSERT_EQ(lines.size(), 401u);
    for (const std::string &line : lines) {
        if (line.find("thread a") != std::string::npos)
            EXPECT_NE(line.find("@111"), std::string::npos) << line;
        else if (line.find("thread b") != std::string::npos)
            EXPECT_NE(line.find("@222"), std::string::npos) << line;
        else
            EXPECT_EQ(line.find('@'), std::string::npos) << line;
    }
}

TEST(LogTest, QuietLevelSuppressesWarnings)
{
    ScopedLogCapture capture;
    const LogLevel prev = logLevel();
    setLogLevel(LogLevel::Quiet);
    warn("should vanish");
    inform("also vanishes");
    setLogLevel(prev);
    EXPECT_TRUE(capture.messages().empty());
}

TEST(LogTest, SetLogLevelIsThreadSafe)
{
    // The old implementation raced on a plain global; this hammers
    // the accessors from two threads so TSan (CI) can prove the
    // atomic rewrite. Values are restored afterwards.
    const LogLevel prev = logLevel();
    std::thread a([] {
        for (int i = 0; i < 1000; ++i)
            setLogLevel(i % 2 ? LogLevel::Quiet : LogLevel::Normal);
    });
    std::thread b([] {
        for (int i = 0; i < 1000; ++i)
            (void)logLevel();
    });
    a.join();
    b.join();
    setLogLevel(prev);
    SUCCEED();
}

// ---------------------------------------------------------------
// SHA-256 (common/hash.hh) — FIPS 180-4 vectors
// ---------------------------------------------------------------

TEST(HashTest, Sha256KnownVectors)
{
    EXPECT_EQ(sha256Hex(""),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934c"
              "a495991b7852b855");
    EXPECT_EQ(sha256Hex("abc"),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9c"
              "b410ff61f20015ad");
    EXPECT_EQ(
        sha256Hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmno"
                  "mnopnopq"),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd4"
        "19db06c1");
}

TEST(HashTest, Sha256MultiBlockAndDeterminism)
{
    // 'a' x 1000 crosses many 64-byte blocks and exercises padding.
    const std::string thousand(1000, 'a');
    const std::string h = sha256Hex(thousand);
    EXPECT_EQ(h.size(), 64u);
    EXPECT_EQ(h, sha256Hex(thousand));
    EXPECT_NE(h, sha256Hex(std::string(999, 'a')));
}

// ---------------------------------------------------------------
// tryReadJsonFile — the daemon's non-fatal config/request reader
// ---------------------------------------------------------------

TEST(JsonFileTest, TryReadMissingFileFailsSoftly)
{
    Json out = Json::string("untouched");
    std::string err;
    EXPECT_FALSE(
        tryReadJsonFile("definitely/not/a/file.json", out, &err));
    EXPECT_FALSE(err.empty());
    EXPECT_EQ(out.asString(), "untouched"); // out left alone
}

TEST(JsonFileTest, TryReadMalformedFileFailsSoftly)
{
    const std::string path = "common_test_malformed.json";
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("{\"broken\": ", f);
        std::fclose(f);
    }
    Json out;
    std::string err;
    EXPECT_FALSE(tryReadJsonFile(path, out, &err));
    EXPECT_FALSE(err.empty());
    std::remove(path.c_str());
}

TEST(JsonFileTest, TryReadRoundTripsAGoodFile)
{
    const std::string path = "common_test_good.json";
    Json doc = Json::object();
    doc.set("answer", Json::number(std::int64_t(42)));
    writeJsonFile(path, doc);
    Json out;
    ASSERT_TRUE(tryReadJsonFile(path, out));
    EXPECT_EQ(out.at("answer").asInt(), 42);
    std::remove(path.c_str());
}
