/**
 * @file
 * Deterministic record-replay and divergence bisection (src/replay).
 *
 * Covers record-replay end to end: a fig4 sweep point and a kcheck
 * scenario each record and replay bit-identically on the same
 * build; tampered recordings are flagged at their first divergent
 * stream entry; and the bisector, fed two runs that differ by one
 * seeded SECDED decode perturbation at a *known* (tick, seq),
 * reports exactly that site in O(log n) digest probes. The
 * killi-recording-v1 parser is fuzzed with seeded byte and
 * structural mutations of a real recording: each one is rejected
 * with a reason or loads a recording krr can summarize and bisect.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "bench/sweep.hh"
#include "check/checker.hh"
#include "check/scenario.hh"
#include "common/bitvec.hh"
#include "common/hotpath.hh"
#include "common/log.hh"
#include "common/replay_probe.hh"
#include "common/rng.hh"
#include "ecc/secded.hh"
#include "replay/bisect.hh"
#include "replay/recording.hh"
#include "replay/session.hh"
#include "sim/event_queue.hh"

namespace killi::replay
{
namespace
{

/** The cheapest interesting sweep point: one workload, one scheme. */
SweepOptions
tinySweep()
{
    SweepOptions opt;
    opt.scale = 0.01;
    opt.warmupPasses = 0;
    opt.workloads = {"stream"};
    opt.schemes = {"Killi 1:256"};
    opt.jobs = 1;
    return opt;
}

// ---------------------------------------------------------------
// RngSegmentBuilder
// ---------------------------------------------------------------

TEST(RngSegmentBuilder, SplitsOnStreamLabelAndPopChanges)
{
    RngSegmentBuilder builder;
    PendingSegment seg;
    EXPECT_FALSE(builder.feed("faultmap", 0, 11, seg));
    EXPECT_FALSE(builder.feed("faultmap", 0, 22, seg));
    // Stream change closes the faultmap segment.
    ASSERT_TRUE(builder.feed("?", 0, 33, seg));
    EXPECT_EQ(seg.stream, "faultmap");
    EXPECT_EQ(seg.pop, 0u);
    EXPECT_EQ(seg.count, 2u);
    std::uint64_t expect = textDigest("faultmap");
    expect = rollDigest(expect, 11);
    expect = rollDigest(expect, 22);
    EXPECT_EQ(seg.digest, expect);
    // Pop change closes the next one.
    ASSERT_TRUE(builder.feed("?", 1, 44, seg));
    EXPECT_EQ(seg.stream, "?");
    EXPECT_EQ(seg.pop, 0u);
    EXPECT_EQ(seg.count, 1u);
    // Flush emits the in-flight tail exactly once.
    ASSERT_TRUE(builder.flush(seg));
    EXPECT_EQ(seg.pop, 1u);
    EXPECT_EQ(seg.count, 1u);
    EXPECT_FALSE(builder.flush(seg));
}

// ---------------------------------------------------------------
// Directed mini-simulation harness
// ---------------------------------------------------------------

/**
 * A deterministic toy run with a fully known schedule: eight events
 * at ticks 10..80, each performing one SECDED decode of a clean
 * codeword and one RNG draw — plus one *extra* draw whenever the
 * decode reports anything but NoError. Arming the hot-path decode
 * perturbation at evaluation N therefore changes the draw count of
 * exactly pop N, i.e. the injected divergence site is (tick, seq)
 * of the Nth event, known a priori.
 */
constexpr int kHarnessEvents = 8;

std::string
runHarness(ReplayProbe *probe, std::uint64_t perturbNth)
{
    const ScopedReplayProbe scope(probe);
    EventQueue q;
    const Secded code(64);
    Rng rng(7);
    std::string log;
    setHotpathPerturbDecode(perturbNth);
    for (int i = 0; i < kHarnessEvents; ++i) {
        q.schedule(Tick(10 * (i + 1)), [&] {
            BitVec data(64);
            BitVec check = code.encode(data);
            const DecodeResult r = code.decode(data, check);
            rng.next64();
            if (r.status != DecodeStatus::NoError)
                rng.next64();
            log += r.status == DecodeStatus::NoError ? '.' : 'X';
        });
    }
    q.run();
    setHotpathPerturbDecode(0);
    return log;
}

Recording
recordHarness(std::uint64_t perturbNth)
{
    Recorder recorder("test");
    recorder.recording().perturbDecode = perturbNth;
    const std::string result = runHarness(&recorder, perturbNth);
    recorder.finish(result);
    return std::move(recorder.recording());
}

TEST(ReplayHarness, CleanRunRecordsOneSegmentPerPop)
{
    const Recording rec = recordHarness(0);
    EXPECT_EQ(rec.pops.size(), std::size_t(kHarnessEvents));
    ASSERT_EQ(rec.rng.size(), std::size_t(kHarnessEvents));
    for (int i = 0; i < kHarnessEvents; ++i) {
        EXPECT_EQ(rec.pops[i].when, Tick(10 * (i + 1)));
        EXPECT_EQ(rec.rng[i].pop, std::uint64_t(i + 1));
        EXPECT_EQ(rec.rng[i].count, 1u);
    }
    EXPECT_FALSE(rec.resultDigest.empty());
}

TEST(ReplayHarness, ReplayerVerifiesCleanReRun)
{
    const Recording rec = recordHarness(0);
    Replayer rep(rec);
    const std::string result = runHarness(&rep, 0);
    rep.finish(result);
    EXPECT_TRUE(rep.ok()) << rep.divergence().describe();
}

TEST(ReplayHarness, ReplayerFlagsSeededDecodeAtExactTickSeq)
{
    // The 4th SECDED evaluation happens inside the 4th event, at
    // tick 40 — the replayer must name exactly that site.
    const Recording rec = recordHarness(0);
    Replayer rep(rec);
    const std::string result = runHarness(&rep, 4);
    rep.finish(result);
    ASSERT_FALSE(rep.ok());
    const Divergence &div = rep.divergence();
    EXPECT_EQ(div.stream, "rng");
    EXPECT_EQ(div.tick, Tick(40));
    EXPECT_EQ(div.seq, rec.pops[3].seq);
}

TEST(ReplayBisect, PinpointsSeededDecodeDivergence)
{
    const Recording a = recordHarness(0);
    const Recording b = recordHarness(4);
    const BisectReport rep = bisectRecordings(a, b);
    ASSERT_TRUE(rep.diverged);
    EXPECT_EQ(rep.stream, "rng");
    EXPECT_EQ(rep.index, 3u); // segments for pops 1..8; pop 4 differs
    EXPECT_EQ(rep.tick, Tick(40));
    EXPECT_EQ(rep.seq, a.pops[3].seq);
    // 3 streams, <= ~log2(n)+1 digest probes each.
    EXPECT_LE(rep.probes, 12u);
}

TEST(ReplayBisect, IdenticalRecordingsAreClean)
{
    const Recording a = recordHarness(0);
    const Recording b = recordHarness(0);
    const BisectReport rep = bisectRecordings(a, b);
    EXPECT_FALSE(rep.diverged) << rep.summary();
}

TEST(ReplayBisect, ProbeCountStaysLogarithmic)
{
    // Two synthetic pop streams of 4096 entries differing only at
    // index 2500: the bisector must land exactly there in O(log n)
    // probes, not scan linearly.
    Recording a, b;
    a.tool = b.tool = "test";
    for (std::uint64_t i = 0; i < 4096; ++i) {
        EventPop p;
        p.when = Tick(i);
        p.seq = i;
        a.pops.push_back(p);
        if (i == 2500)
            p.priority = 1;
        b.pops.push_back(p);
    }
    a.resultDigest = b.resultDigest = "same";
    const BisectReport rep = bisectRecordings(a, b);
    ASSERT_TRUE(rep.diverged);
    EXPECT_EQ(rep.stream, "pop");
    EXPECT_EQ(rep.index, 2500u);
    EXPECT_LE(rep.probes, 3 * 13u);
}

TEST(ReplayBisect, ResultOnlyDivergenceFallsBackToResultStream)
{
    Recording a = recordHarness(0);
    Recording b = recordHarness(0);
    b.resultDigest[0] = b.resultDigest[0] == '0' ? '1' : '0';
    const BisectReport rep = bisectRecordings(a, b);
    ASSERT_TRUE(rep.diverged);
    EXPECT_EQ(rep.stream, "result");
}

// ---------------------------------------------------------------
// ScopedLogClock under replay
// ---------------------------------------------------------------

TEST(ReplayHarness, ScopedLogClockTimestampsAreReplayDeterministic)
{
    // Log timestamps come from the simulated clock, so a replayed
    // run must emit byte-identical "@<tick>" prefixes — wall time
    // never leaks in.
    const auto loggedRun = [](ReplayProbe *probe) {
        ScopedLogCapture capture;
        const ScopedReplayProbe scope(probe);
        EventQueue q;
        const ScopedLogClock clock([&q] { return q.curTick(); });
        Rng rng(3);
        for (int i = 0; i < 3; ++i) {
            q.schedule(Tick(5 * (i + 1)), [&] {
                rng.next64();
                inform("harness event");
            });
        }
        q.run();
        return capture.messages();
    };

    Recorder recorder("test");
    const auto recorded = loggedRun(&recorder);
    recorder.finish("logclock");

    Replayer rep(recorder.recording());
    const auto replayed = loggedRun(&rep);
    rep.finish("logclock");

    EXPECT_TRUE(rep.ok()) << rep.divergence().describe();
    ASSERT_EQ(recorded.size(), 3u);
    EXPECT_NE(recorded[0].find("@5"), std::string::npos)
        << recorded[0];
    EXPECT_EQ(recorded, replayed);
}

// ---------------------------------------------------------------
// Recording file format
// ---------------------------------------------------------------

TEST(RecordingFormat, FileRoundTripPreservesStreams)
{
    const Recording rec = recordHarness(0);
    const std::string path = "replay_test_roundtrip.krr.json";
    rec.writeFile(path);
    const Recording back = Recording::loadFile(path);
    std::remove(path.c_str());

    EXPECT_EQ(back.tool, rec.tool);
    EXPECT_EQ(back.resultDigest, rec.resultDigest);
    ASSERT_EQ(back.rng.size(), rec.rng.size());
    ASSERT_EQ(back.pops.size(), rec.pops.size());
    for (std::size_t i = 0; i < rec.rng.size(); ++i) {
        // Digests exceed 2^53; the string encoding must preserve
        // them exactly through the double-backed JSON layer.
        EXPECT_EQ(back.rng[i].digest, rec.rng[i].digest);
        EXPECT_EQ(back.rng[i].count, rec.rng[i].count);
        EXPECT_EQ(back.rng[i].pop, rec.rng[i].pop);
    }
    for (std::size_t i = 0; i < rec.pops.size(); ++i) {
        EXPECT_EQ(back.pops[i].when, rec.pops[i].when);
        EXPECT_EQ(back.pops[i].seq, rec.pops[i].seq);
    }
    const BisectReport rep = bisectRecordings(rec, back);
    EXPECT_FALSE(rep.diverged) << rep.summary();
}

TEST(RecordingFormat, RejectsMalformedDocuments)
{
    Recording out;
    std::string err;
    EXPECT_FALSE(
        Recording::tryFromJson(Json::string("nope"), out, &err));
    EXPECT_FALSE(err.empty());
    Json doc = recordHarness(0).toJson();
    doc.set("format", Json::string("killi-recording-v2"));
    EXPECT_FALSE(Recording::tryFromJson(doc, out, &err));
    EXPECT_NE(err.find(kRecordingFormat), std::string::npos) << err;

    // 64-bit fields travel as decimal strings; a sign or leading
    // space is malformed, not a wrapped value.
    for (const char *bad : {"-1", " 7", "+7"}) {
        Json signedDoc = recordHarness(0).toJson();
        signedDoc.set("perturb_decode", Json::string(bad));
        EXPECT_FALSE(Recording::tryFromJson(signedDoc, out, &err))
            << bad;
    }

    // A well-formed file whose sweep meta is missing cannot be
    // replayed as a sweep.
    Recording noMeta = recordHarness(0);
    noMeta.tool = "sweep";
    EXPECT_DEATH(sweepOptionsFromMeta(noMeta), "no meta.options");
}

// ---------------------------------------------------------------
// killi-recording-v1 parser fuzz (runs under ASan/UBSan in CI)
// ---------------------------------------------------------------

/**
 * The fuzz seed: a real sweep recording, cut to its first pops and
 * trace records (checkpoints rebuilt, marks clamped) so the document
 * stays a few KB and thousands of mutations stay cheap.
 */
const Recording &
fuzzSeed()
{
    static const Recording seed = [] {
        Recording rec = recordSweep(tinySweep()).recording;
        rec.pops.resize(std::min<std::size_t>(rec.pops.size(), 48));
        rec.trace.resize(std::min<std::size_t>(rec.trace.size(), 48));
        for (Mark &m : rec.marks) {
            m.pops = std::min<std::uint64_t>(m.pops, rec.pops.size());
            m.trace =
                std::min<std::uint64_t>(m.trace, rec.trace.size());
        }
        rec.rebuildCheckpoints(16);
        return rec;
    }();
    return seed;
}

/**
 * One candidate document: the parser either rejects it and says why,
 * or loads a recording that everything krr does with a loaded file
 * (info, bisect against another recording) handles. Returns whether
 * it loaded.
 */
bool
rejectedOrUsable(const Json &doc)
{
    Recording loaded;
    std::string err;
    if (!Recording::tryFromJson(doc, loaded, &err)) {
        EXPECT_FALSE(err.empty());
        return false;
    }
    EXPECT_FALSE(loaded.summary().empty());
    EXPECT_FALSE(bisectRecordings(fuzzSeed(), loaded).summary().empty());
    EXPECT_FALSE(bisectRecordings(loaded, fuzzSeed()).summary().empty());
    return true;
}

/** @p doc with member @p key set to @p value, or dropped when
 *  @p value is null. */
Json
withMember(const Json &doc, const std::string &key, const Json *value)
{
    Json out = Json::object();
    for (const auto &[name, member] : doc.members()) {
        if (name != key)
            out.set(name, member);
        else if (value)
            out.set(name, *value);
    }
    return out;
}

/** @p arr with element @p index replaced by @p value. */
Json
withElement(const Json &arr, std::size_t index, const Json &value)
{
    Json out = Json::array();
    for (std::size_t i = 0; i < arr.size(); ++i)
        out.push(i == index ? value : arr.at(i));
    return out;
}

/** Values no well-formed recording field holds all of: wrong kinds,
 *  negative and huge numbers, non-integers, bad numeric strings, and
 *  interned-name indices one past the end of the seed's tables. */
std::vector<Json>
hostileValues()
{
    const Recording &seed = fuzzSeed();
    return {Json::null(),
            Json::boolean(true),
            Json::number(std::int64_t(-1)),
            Json::number(0.5),
            Json::number(1e300),
            Json::number(9007199254740992.0),
            Json::number(std::int64_t(2147483648LL)),
            Json::number(std::int64_t(-2147483649LL)),
            Json::number(std::uint64_t(seed.streams.size())),
            Json::number(std::uint64_t(seed.names.size())),
            Json::string(""),
            Json::string("-1"),
            Json::string("18446744073709551615"),
            Json::string("18446744073709551616"),
            Json::string("12abc"),
            Json::string("4294967296"),
            Json::array(),
            Json::object()};
}

/** The members whose values are arrays of entries. */
constexpr const char *kStreamMembers[] = {
    "streams", "names", "rng", "pops", "trace", "marks", "checkpoints"};

TEST(RecordingFuzz, SeededByteMutationsAreRejectedOrLoad)
{
    const std::string text = fuzzSeed().toJson().toString(0);
    Rng rng(0x6b727266757aULL); // fixed seed ("krrfuz")
    for (int round = 0; round < 3000; ++round) {
        std::string mutated = text;
        if (rng.below(8) == 0) {
            mutated.resize(rng.below(mutated.size()));
        } else {
            const unsigned edits = 1 + unsigned(rng.below(4));
            for (unsigned e = 0; e < edits && !mutated.empty(); ++e) {
                const std::size_t at = rng.below(mutated.size());
                switch (rng.below(4)) {
                  case 0: // flip to a random byte
                    mutated[at] = char(rng.below(256));
                    break;
                  case 1: // to a random digit or sign
                    mutated[at] = "0123456789-+.e"[rng.below(14)];
                    break;
                  case 2: // delete
                    mutated.erase(at, 1);
                    break;
                  default: // duplicate
                    mutated.insert(at, 1, mutated[at]);
                    break;
                }
            }
        }
        // A JSON-level rejection must say why; an accepted document
        // goes to the recording parser.
        Json doc;
        std::string err;
        if (Json::parse(mutated, doc, &err))
            rejectedOrUsable(doc);
        else
            EXPECT_FALSE(err.empty());
    }
}

TEST(RecordingFuzz, StructuralMutationsAreRejectedOrLoad)
{
    const Json doc = fuzzSeed().toJson();
    ASSERT_TRUE(rejectedOrUsable(doc));
    const std::vector<Json> hostile = hostileValues();
    unsigned loaded = 0, rejected = 0;
    const auto tally = [&](const Json &candidate) {
        if (rejectedOrUsable(candidate))
            ++loaded;
        else
            ++rejected;
    };

    // Every top-level member missing, or replaced by each value.
    for (const auto &[key, member] : doc.members()) {
        tally(withMember(doc, key, nullptr));
        for (const Json &value : hostile)
            tally(withMember(doc, key, &value));
    }

    // In every stream array: the first entry replaced whole, each of
    // its fields replaced, the entry's arity shrunk and grown, and an
    // entry appended.
    for (const char *key : kStreamMembers) {
        const Json &arr = doc.at(key);
        ASSERT_GT(arr.size(), 0u) << key;
        const Json &entry = arr.at(std::size_t(0));
        std::vector<Json> variants = hostile;
        if (entry.kind() == Json::Kind::Array) {
            for (std::size_t f = 0; f < entry.size(); ++f)
                for (const Json &value : hostile)
                    variants.push_back(withElement(entry, f, value));
            Json shorter = Json::array();
            for (std::size_t f = 0; f + 1 < entry.size(); ++f)
                shorter.push(entry.at(f));
            Json longer = entry;
            longer.push(Json::number(std::uint64_t(0)));
            variants.push_back(shorter);
            variants.push_back(longer);
        } else if (entry.kind() == Json::Kind::Object) {
            for (const auto &member : entry.members()) {
                const std::string &field = member.first;
                variants.push_back(withMember(entry, field, nullptr));
                for (const Json &value : hostile)
                    variants.push_back(withMember(entry, field, &value));
            }
        }
        for (const Json &variant : variants) {
            tally(withMember(doc, key, &variant));
            Json appended = arr;
            appended.push(variant);
            tally(withMember(doc, key, &appended));
            const Json replaced = withElement(arr, 0, variant);
            tally(withMember(doc, key, &replaced));
        }
    }

    // Emptied interned tables under entries that index them.
    const Json empty = Json::array();
    tally(withMember(doc, "streams", &empty));
    tally(withMember(doc, "names", &empty));

    // A duplicated stream array never reaches the recording parser:
    // the JSON layer rejects the repeated key.
    const std::string text = doc.toString(0);
    for (const char *key : kStreamMembers) {
        const std::string dup =
            std::string("{\"") + key + "\":[]," + text.substr(1);
        Json parsed;
        std::string err;
        EXPECT_FALSE(Json::parse(dup, parsed, &err)) << key;
        EXPECT_NE(err.find("duplicate"), std::string::npos) << err;
    }

    // Seeded compound edits: up to three hostile values dropped into
    // random fields of random entries.
    Rng rng(0x6b72727374ULL); // fixed seed ("krrst")
    for (int round = 0; round < 1000; ++round) {
        Json mutated = doc;
        const unsigned edits = 1 + unsigned(rng.below(3));
        for (unsigned e = 0; e < edits; ++e) {
            const char *key =
                kStreamMembers[rng.below(std::size(kStreamMembers))];
            const Json &arr = mutated.at(key);
            if (arr.size() == 0)
                continue;
            const std::size_t at = rng.below(arr.size());
            const Json &entry = arr.at(at);
            const Json &value = hostile[rng.below(hostile.size())];
            Json replaced;
            if (entry.kind() == Json::Kind::Array && entry.size() > 0)
                replaced = withElement(entry, rng.below(entry.size()),
                                       value);
            else if (entry.kind() == Json::Kind::Object &&
                     entry.size() > 0)
                replaced = withMember(
                    entry,
                    entry.members()[rng.below(entry.size())].first,
                    &value);
            else
                replaced = value;
            const Json edited = withElement(arr, at, replaced);
            mutated = withMember(mutated, key, &edited);
        }
        tally(mutated);
    }

    // Sanity: the harness reaches both outcomes.
    EXPECT_GT(rejected, 0u);
    EXPECT_GT(loaded, 0u);
}

// ---------------------------------------------------------------
// Sweep record/replay (the fig4 acceptance point)
// ---------------------------------------------------------------

TEST(ReplaySweep, RecordThenReplayIsBitIdentical)
{
    const SweepSession recorded = recordSweep(tinySweep());
    EXPECT_FALSE(recorded.recording.rng.empty());
    EXPECT_FALSE(recorded.recording.pops.empty());
    EXPECT_EQ(recorded.recording.marks.size(), 2u); // 2 sweep points

    const SweepSession replayed = replaySweep(recorded.recording);
    EXPECT_TRUE(replayed.verified)
        << replayed.divergence.describe();
    EXPECT_EQ(replayed.resultText, recorded.resultText);
}

TEST(ReplaySweep, TamperedRngSegmentIsFlaggedAsFaultMapDivergence)
{
    const SweepSession recorded = recordSweep(tinySweep());
    Recording tampered = recorded.recording;
    ASSERT_FALSE(tampered.rng.empty());
    tampered.rng[0].digest ^= 1;

    const SweepSession replayed = replaySweep(tampered);
    ASSERT_FALSE(replayed.verified);
    EXPECT_EQ(replayed.divergence.stream, "rng");
    EXPECT_EQ(replayed.divergence.index, 0u);
    // The first segment is the fault-map construction stream.
    EXPECT_EQ(replayed.divergence.rngStream, "faultmap");
}

TEST(ReplaySweep, CrossModeBisectPinpointsFaultMapSampling)
{
    // Reference mode swaps the fault map to per-bit sampling — a
    // genuinely different draw stream from the very first segment.
    // The honest bisect verdict is therefore "diverged at fault-map
    // construction", not a later in-sim site.
    RunMode sliced;
    RunMode reference;
    reference.reference = true;
    const SweepSession a = recordSweep(tinySweep(), sliced);
    const SweepSession b = recordSweep(tinySweep(), reference);
    ASSERT_FALSE(a.recording.rng.empty());
    ASSERT_TRUE(b.recording.referenceMode);
    const BisectReport rep =
        bisectRecordings(a.recording, b.recording);
    ASSERT_TRUE(rep.diverged);
    EXPECT_EQ(rep.stream, "rng");
    EXPECT_EQ(rep.index, 0u);
    EXPECT_NE(rep.a.find("faultmap"), std::string::npos) << rep.a;
}

// ---------------------------------------------------------------
// kcheck scenario record/replay
// ---------------------------------------------------------------

TEST(ReplayScenario, RecordThenReplayIsBitIdentical)
{
    const check::Scenario sc = check::Scenario::generate(1234);
    const CheckSession recorded = recordScenario(sc);
    EXPECT_FALSE(recorded.recording.rng.empty());
    EXPECT_EQ(recorded.recording.tool, "kcheck");

    const CheckSession replayed = replayScenario(recorded.recording);
    EXPECT_TRUE(replayed.verified)
        << replayed.divergence.describe();
    EXPECT_EQ(replayed.resultText, recorded.resultText);
}

TEST(ReplayScenario, TamperedResultDigestIsFlagged)
{
    const check::Scenario sc = check::Scenario::generate(99);
    const CheckSession recorded = recordScenario(sc);
    Recording tampered = recorded.recording;
    tampered.resultDigest[0] =
        tampered.resultDigest[0] == '0' ? '1' : '0';
    const CheckSession replayed = replayScenario(tampered);
    ASSERT_FALSE(replayed.verified);
    EXPECT_EQ(replayed.divergence.stream, "result");
}


/** Parse one krr record command line (after the verb). */
void
parseRecord(Options &opts, std::vector<std::string> args)
{
    std::vector<char *> argv;
    static char name[] = "krr";
    argv.push_back(name);
    for (std::string &arg : args)
        argv.push_back(arg.data());
    opts.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(KrrRecordDeathTest, KnobsRecordSweepIgnoresAreUnknown)
{
    // recordSweep() runs on one worker and writes only the recording,
    // so krr record does not take jobs=, json= or timeseries=.
    for (const std::string arg :
         {"json=x.json", "timeseries=x.json", "jobs=4"}) {
        const std::string key = arg.substr(0, arg.find('='));
        EXPECT_DEATH(
            {
                Options opts("krr record", "test");
                declareRecordOptions(opts);
                parseRecord(opts, {arg});
            },
            "unknown option '" + key + "'")
            << arg;
    }
    // The knobs it honours still parse.
    Options opts("krr record", "test");
    declareRecordOptions(opts);
    parseRecord(opts, {"scale=0.01", "stats-interval=1000"});
    const SweepOptions sopt = sweepOptions(opts);
    EXPECT_EQ(sopt.scale, 0.01);
    EXPECT_EQ(sopt.statsInterval, 1000u);
    EXPECT_EQ(sopt.jobs, 1u);
    EXPECT_TRUE(sopt.jsonPath.empty());
    EXPECT_TRUE(sopt.timeseriesPath.empty());
}

} // namespace
} // namespace killi::replay
