/**
 * @file
 * Adversarial tests for the kserved wire protocol: FrameDecoder
 * round-trips, byte-dribble reassembly, and a seeded fuzz loop that
 * mutates valid frames (truncation, bit flips, oversized length
 * prefixes, corrupted JSON) and requires the decoder to either
 * produce a frame or fail cleanly — never crash, never loop. A
 * second seeded fuzz mutates valid submit requests (dropped,
 * duplicated and re-typed members, out-of-range numbers, truncated
 * scenarios) and requires parseSubmit to either reject them with a
 * message or accept a scenario that round-trips canonically. The
 * final tests aim raw garbage at a live daemon socket and assert it
 * answers with an error frame, closes that connection, and keeps
 * serving others.
 */

#include <arpa/inet.h>
#include <cstring>
#include <functional>
#include <iterator>
#include <netinet/in.h>
#include <random>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "fault/scenario_spec.hh"
#include "serve/client/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/submit.hh"

using namespace killi;
using namespace killi::serve;

namespace
{

Json
pingFrame()
{
    Json doc = Json::object();
    doc.set("type", Json::string("ping"));
    return doc;
}

std::string
bigEndianLength(std::uint32_t n)
{
    std::string out(4, '\0');
    out[0] = char((n >> 24) & 0xff);
    out[1] = char((n >> 16) & 0xff);
    out[2] = char((n >> 8) & 0xff);
    out[3] = char(n & 0xff);
    return out;
}

} // namespace

TEST(FrameDecoder, RoundTripsASequenceOfFrames)
{
    std::string wire;
    for (int i = 0; i < 5; ++i) {
        Json doc = Json::object();
        doc.set("type", Json::string("ping"));
        doc.set("i", Json::number(std::int64_t(i)));
        wire += encodeFrame(doc);
    }
    FrameDecoder dec;
    dec.feed(wire.data(), wire.size());
    for (int i = 0; i < 5; ++i) {
        Json out;
        ASSERT_EQ(dec.next(out), FrameDecoder::Status::Frame);
        EXPECT_EQ(out.at("i").asInt(), i);
    }
    Json out;
    EXPECT_EQ(dec.next(out), FrameDecoder::Status::NeedMore);
    EXPECT_EQ(dec.pendingBytes(), 0u);
}

TEST(FrameDecoder, ReassemblesOneByteAtATime)
{
    const std::string wire = encodeFrame(pingFrame());
    FrameDecoder dec;
    Json out;
    for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
        dec.feed(wire.data() + i, 1);
        ASSERT_EQ(dec.next(out), FrameDecoder::Status::NeedMore)
            << "frame complete after only " << (i + 1) << " bytes";
    }
    dec.feed(wire.data() + wire.size() - 1, 1);
    ASSERT_EQ(dec.next(out), FrameDecoder::Status::Frame);
    EXPECT_EQ(out.at("type").asString(), "ping");
}

TEST(FrameDecoder, ReassemblesAcrossEverySplitOffset)
{
    // A TCP read can end at any byte: every offset of the length
    // prefix and payload — including the seam between two frames —
    // must reassemble to the same two documents. The second frame
    // is larger than the first so prefix and payload offsets of
    // both frames land on distinct split points.
    Json first = pingFrame();
    first.set("n", Json::number(std::int64_t(1)));
    Json second = pingFrame();
    second.set("n", Json::number(std::int64_t(2)));
    second.set("pad", Json::string(std::string(64, 'x')));
    const std::string wire =
        encodeFrame(first) + encodeFrame(second);

    for (std::size_t split = 0; split <= wire.size(); ++split) {
        FrameDecoder dec;
        dec.feed(wire.data(), split);
        std::vector<Json> got;
        Json out;
        while (dec.next(out) == FrameDecoder::Status::Frame)
            got.push_back(out);
        ASSERT_FALSE(dec.failed())
            << "split at " << split << ": " << dec.error();
        dec.feed(wire.data() + split, wire.size() - split);
        while (dec.next(out) == FrameDecoder::Status::Frame)
            got.push_back(out);
        ASSERT_FALSE(dec.failed())
            << "split at " << split << ": " << dec.error();
        ASSERT_EQ(got.size(), 2u) << "split at " << split;
        EXPECT_EQ(got[0].at("n").asInt(), 1) << "split at " << split;
        EXPECT_EQ(got[1].at("n").asInt(), 2) << "split at " << split;
        EXPECT_EQ(got[1].toString(0), second.toString(0))
            << "split at " << split;
        EXPECT_EQ(dec.pendingBytes(), 0u) << "split at " << split;
    }
}

TEST(FrameDecoder, PayloadMatchesEncodeFramePayloadSplice)
{
    // encodeFramePayload is the cache-hit fast path: wrapping the
    // stored text must decode to the same document as encodeFrame.
    const Json doc = pingFrame();
    const std::string direct = encodeFrame(doc);
    const std::string spliced = encodeFramePayload(doc.toString(0));
    EXPECT_EQ(direct, spliced);
}

TEST(FrameDecoder, RejectsOversizedLengthPrefix)
{
    FrameDecoder dec;
    const std::string prefix = bigEndianLength(kMaxFrameBytes + 1);
    dec.feed(prefix.data(), prefix.size());
    Json out;
    EXPECT_EQ(dec.next(out), FrameDecoder::Status::Error);
    EXPECT_TRUE(dec.failed());
    // The stream is dead for good.
    const std::string wire = encodeFrame(pingFrame());
    dec.feed(wire.data(), wire.size());
    EXPECT_EQ(dec.next(out), FrameDecoder::Status::Error);
}

TEST(FrameDecoder, RejectsMalformedJsonPayload)
{
    const std::string payload = "{\"type\":"; // truncated JSON
    const std::string wire =
        bigEndianLength(std::uint32_t(payload.size())) + payload;
    FrameDecoder dec;
    dec.feed(wire.data(), wire.size());
    Json out;
    EXPECT_EQ(dec.next(out), FrameDecoder::Status::Error);
}

TEST(FrameDecoder, RejectsNonObjectAndMissingTypePayloads)
{
    for (const std::string &payload :
         {std::string("[1,2,3]"), std::string("42"),
          std::string("{\"nota\":\"type\"}"),
          std::string("{\"type\":7}")}) {
        const std::string wire =
            bigEndianLength(std::uint32_t(payload.size())) + payload;
        FrameDecoder dec;
        dec.feed(wire.data(), wire.size());
        Json out;
        EXPECT_EQ(dec.next(out), FrameDecoder::Status::Error)
            << "payload accepted: " << payload;
    }
}

TEST(FrameDecoder, FuzzMutatedFramesNeverCrash)
{
    // Deterministic mutation fuzz: start from a valid multi-frame
    // wire image, then truncate / flip bits / splice garbage, and
    // pump the decoder to exhaustion. The only acceptable outcomes
    // are Frame, NeedMore, or a sticky Error.
    std::mt19937 rng(0x6b696c6cu); // "kill", seeded + reproducible
    const std::string base = [&] {
        std::string wire;
        Json doc = Json::object();
        doc.set("type", Json::string("submit"));
        Json options = Json::object();
        options.set("scale", Json::number(0.02));
        options.set("workloads", Json::string("spmv"));
        doc.set("options", std::move(options));
        wire += encodeFrame(doc);
        wire += encodeFrame(pingFrame());
        return wire;
    }();

    for (int iter = 0; iter < 2000; ++iter) {
        std::string wire = base;
        const int mutations = 1 + int(rng() % 4);
        for (int m = 0; m < mutations; ++m) {
            switch (rng() % 4) {
            case 0: // truncate
                wire.resize(rng() % (wire.size() + 1));
                break;
            case 1: // flip a bit
                if (!wire.empty())
                    wire[rng() % wire.size()] ^=
                        char(1u << (rng() % 8));
                break;
            case 2: // splice random bytes
                wire.insert(rng() % (wire.size() + 1), 1,
                            char(rng() % 256));
                break;
            case 3: // duplicate a chunk
                if (!wire.empty()) {
                    const std::size_t at = rng() % wire.size();
                    const std::size_t len =
                        1 + rng() % (wire.size() - at);
                    wire += wire.substr(at, len);
                }
                break;
            }
        }

        FrameDecoder dec;
        // Feed in randomly-sized slices to exercise reassembly.
        std::size_t off = 0;
        while (off < wire.size()) {
            const std::size_t n =
                std::min<std::size_t>(1 + rng() % 7,
                                      wire.size() - off);
            dec.feed(wire.data() + off, n);
            off += n;
        }
        Json out;
        int frames = 0;
        for (;;) {
            const FrameDecoder::Status st = dec.next(out);
            if (st == FrameDecoder::Status::Frame) {
                ASSERT_LE(++frames, 16) << "decoder looping";
                continue;
            }
            if (st == FrameDecoder::Status::Error) {
                EXPECT_TRUE(dec.failed());
            }
            break;
        }
    }
}

namespace
{

/** A valid submit carrying every member parseSubmit reads, with an
 *  inline clustered scenario (its params object included). */
Json
validSubmit()
{
    ScenarioSpec spec;
    spec.model = "clustered";
    spec.seed = 7;
    spec.voltage = 0.6;
    Json options = Json::object();
    options.set("scale", Json::number(0.02));
    options.set("warmup", Json::number(std::uint64_t{1}));
    options.set("scenario", spec.toJson());
    options.set("stats_interval", Json::number(std::uint64_t{500}));
    options.set("retries", Json::number(std::uint64_t{2}));
    options.set("workloads", Json::string("spmv,xsbench"));
    Json schemes = Json::array();
    schemes.push(Json::string("DECTED"));
    schemes.push(Json::string("Killi 1:256"));
    options.set("schemes", std::move(schemes));
    Json req = Json::object();
    req.set("type", Json::string("submit"));
    req.set("priority", Json::number(std::int64_t{3}));
    req.set("stream", Json::boolean(false));
    req.set("options", std::move(options));
    return req;
}

using Path = std::vector<std::string>;

/** The object at @p path, or null if the path no longer leads to
 *  one (an earlier mutation dropped or re-typed it). */
const Json *
objectAt(const Json &root, const Path &path)
{
    const Json *cur = &root;
    for (const std::string &key : path) {
        if (cur->kind() != Json::Kind::Object || !cur->contains(key))
            return nullptr;
        cur = &cur->at(key);
    }
    return cur->kind() == Json::Kind::Object ? cur : nullptr;
}

/** Copy of @p node with the object at @p path replaced by
 *  edit(object); unchanged where the path leads nowhere. */
Json
editAt(const Json &node, const Path &path, std::size_t depth,
       const std::function<Json(const Json &)> &edit)
{
    if (node.kind() != Json::Kind::Object)
        return node;
    if (depth == path.size())
        return edit(node);
    Json out = Json::object();
    for (const auto &[key, value] : node.members()) {
        out.set(key, key == path[depth]
                         ? editAt(value, path, depth + 1, edit)
                         : value);
    }
    return out;
}

Json
randomValue(std::mt19937 &rng)
{
    switch (rng() % 7) {
    case 0:
        return Json::null();
    case 1:
        return Json::boolean(rng() % 2 == 0);
    case 2:
        return Json::string("x");
    case 3:
        return Json::string("{");
    case 4:
        return Json::array();
    case 5:
        return Json::object();
    default:
        return Json::number(std::int64_t(rng() % 2001) - 1000);
    }
}

Json
edgeNumber(std::mt19937 &rng)
{
    // Negative, fractional, just past the priority/warmup/retries
    // bounds, past 2^53, and far out of every range.
    static const double kEdges[] = {
        -1.0, 0.0, 0.5, 2.5, 17.0, 1001.0, -1001.0, 1e9,
        9007199254740994.0, 1e300, -1e300};
    return Json::number(kEdges[rng() % std::size(kEdges)]);
}

} // namespace

TEST(SubmitParser, FuzzMutatedSubmitsRejectCleanlyOrRoundTrip)
{
    const Json base = validSubmit();
    {
        SubmitRequest ok;
        std::string err;
        ASSERT_TRUE(parseSubmit(base, ok, err)) << err;
    }
    const Json baseScenario = base.at("options").at("scenario");
    const Path targets[] = {{},
                            {"options"},
                            {"options", "scenario"},
                            {"options", "scenario", "params"}};

    std::mt19937 rng(0x73756266u); // seeded + reproducible
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    for (int iter = 0; iter < 3000; ++iter) {
        Json req = base;
        const int mutations = 1 + int(rng() % 3);
        for (int m = 0; m < mutations; ++m) {
            const Path &path = targets[rng() % std::size(targets)];
            const unsigned op = rng() % 5;
            if (op == 4) {
                // Truncate the scenario: a prefix of its inline JSON
                // text or of its member list.
                const Json *cur = objectAt(req, {"options", "scenario"});
                const Json &sc = cur ? *cur : baseScenario;
                const std::size_t cut = rng();
                req = editAt(req, {"options"}, 0, [&](const Json &o) {
                    Json out = o;
                    if (cut % 2 == 0) {
                        const std::string text = sc.toString(0);
                        out.set("scenario",
                                Json::string(text.substr(
                                    0, cut / 2 % (text.size() + 1))));
                    } else {
                        Json prefix = Json::object();
                        const auto &ms = sc.members();
                        for (std::size_t i = 0;
                             i < cut / 2 % (ms.size() + 1); ++i)
                            prefix.set(ms[i].first, ms[i].second);
                        out.set("scenario", std::move(prefix));
                    }
                    return out;
                });
                continue;
            }
            // A member of another level, for cross-level duplicates
            // (e.g. the scenario's "seed" landing in "options").
            const Json *donorObj =
                objectAt(req, targets[rng() % std::size(targets)]);
            std::pair<std::string, Json> donor;
            if (donorObj && donorObj->size() > 0)
                donor = donorObj->members()[rng() % donorObj->size()];
            const std::uint32_t pick = rng();
            req = editAt(req, path, 0, [&](const Json &obj) {
                const auto &ms = obj.members();
                if (op == 1) {
                    Json out = obj;
                    if (!donor.first.empty())
                        out.set(donor.first, donor.second);
                    return out;
                }
                if (ms.empty())
                    return obj;
                const std::size_t victim = pick % ms.size();
                Json out = Json::object();
                for (std::size_t i = 0; i < ms.size(); ++i) {
                    if (i != victim)
                        out.set(ms[i].first, ms[i].second);
                    else if (op == 2)
                        out.set(ms[i].first, randomValue(rng));
                    else if (op == 3)
                        out.set(ms[i].first, edgeNumber(rng));
                    // op == 0 drops the member.
                }
                return out;
            });
        }

        SubmitRequest out;
        std::string err;
        if (parseSubmit(req, out, err)) {
            ++accepted;
            const Json canon = out.sopt.scenario.toJson();
            ScenarioSpec back;
            std::string specErr;
            ASSERT_TRUE(ScenarioSpec::tryFromJson(canon, back, &specErr))
                << specErr << " for " << req.toString(0);
            EXPECT_EQ(back.toJson().toString(0), canon.toString(0))
                << req.toString(0);
            EXPECT_EQ(out.sopt.seed, out.sopt.scenario.seed);
        } else {
            ++rejected;
            EXPECT_FALSE(err.empty()) << req.toString(0);
        }
    }
    // The mutations must explore both outcomes to mean anything.
    EXPECT_GT(accepted, 100u);
    EXPECT_GT(rejected, 100u);
}

TEST(ServeProtocol, DaemonSurvivesRawGarbageConnections)
{
    ServerOptions so;
    so.port = 0;
    so.threads = 1;
    Server server(so);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    std::mt19937 rng(1337);
    for (int round = 0; round < 8; ++round) {
        // Client::send only ships valid frames, so write the hostile
        // bytes — an oversized length prefix followed by noise — on
        // a raw socket.
        std::string garbage =
            bigEndianLength(kMaxFrameBytes + 1 + 17 * unsigned(round));
        for (int i = 0; i < 64; ++i)
            garbage += char(rng() % 256);

        int raw = ::socket(AF_INET, SOCK_STREAM, 0);
        ASSERT_GE(raw, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(server.boundPort());
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        ASSERT_EQ(::connect(raw, (sockaddr *)&addr, sizeof(addr)), 0);
        ASSERT_EQ(::send(raw, garbage.data(), garbage.size(),
                         MSG_NOSIGNAL),
                  ssize_t(garbage.size()));
        // The daemon answers with an error frame, then closes.
        std::string reply;
        char buf[4096];
        for (;;) {
            const ssize_t n = ::recv(raw, buf, sizeof(buf), 0);
            if (n <= 0)
                break;
            reply.append(buf, std::size_t(n));
        }
        ::close(raw);
        FrameDecoder dec;
        dec.feed(reply.data(), reply.size());
        Json frame;
        ASSERT_EQ(dec.next(frame), FrameDecoder::Status::Frame)
            << "no error frame before close (round " << round << ")";
        EXPECT_EQ(frame.at("type").asString(), "error");
        EXPECT_EQ(frame.at("code").asString(), "protocol");

        // A fresh, well-behaved connection still gets service.
        Client healthy;
        ASSERT_TRUE(healthy.connectTcp(server.boundPort(), &err))
            << err;
        ASSERT_TRUE(healthy.send(pingFrame()));
        Json pong;
        ASSERT_TRUE(healthy.recv(pong, &err)) << err;
        EXPECT_EQ(pong.at("type").asString(), "pong");
    }

    // The protocol errors were counted.
    Client statsClient;
    ASSERT_TRUE(statsClient.connectTcp(server.boundPort(), &err))
        << err;
    Json req = Json::object();
    req.set("type", Json::string("stats"));
    ASSERT_TRUE(statsClient.send(req));
    Json reply;
    ASSERT_TRUE(statsClient.recv(reply));
    EXPECT_GE(reply.at("stats")
                  .at("outcomes")
                  .at("protocol_errors")
                  .asInt(),
              8);
    server.stop();
}
