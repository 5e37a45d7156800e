/**
 * @file
 * Tests for the serving subsystem (src/serve): JobScheduler
 * semantics under deterministic blocking jobs, the content-addressed
 * ResultCache, and loopback integration against a real in-process
 * Server — including the PR's acceptance criteria: daemon results
 * bit-identical to a direct in-process sweep (cold and cached), a
 * 200-request concurrent barrage with a bounded queue, and clean
 * drain semantics over both TCP and Unix sockets.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <future>
#include <mutex>
#include <netinet/in.h>
#include <sstream>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "bench/sweep.hh"
#include "common/hash.hh"
#include "common/log.hh"
#include "fault/fault_model.hh"
#include "metrics/dashboard.hh"
#include "replay/session.hh"
#include "serve/cache.hh"
#include "serve/client/client.hh"
#include "serve/scheduler.hh"
#include "serve/server.hh"
#include "serve/warm_store.hh"

using namespace killi;
using namespace killi::serve;

namespace
{

/** A terminal notification captured by a test. */
struct Finish
{
    std::uint64_t id = 0;
    JobState state = JobState::Queued;
    std::string result;
    std::string error;
};

/** Thread-safe collector for JobFinish callbacks. */
class FinishLog
{
  public:
    JobFinish
    sink()
    {
        return [this](std::uint64_t id, JobState st,
                      const std::string &res, const std::string &err) {
            std::lock_guard<std::mutex> lock(mtx);
            entries.push_back({id, st, res, err});
            cv.notify_all();
        };
    }

    /** Block until @p n terminal notifications have arrived. */
    bool
    waitForCount(std::size_t n)
    {
        std::unique_lock<std::mutex> lock(mtx);
        return cv.wait_for(lock, std::chrono::seconds(30),
                           [&] { return entries.size() >= n; });
    }

    std::vector<Finish>
    all() const
    {
        std::lock_guard<std::mutex> lock(mtx);
        return entries;
    }

    Finish
    forId(std::uint64_t id) const
    {
        std::lock_guard<std::mutex> lock(mtx);
        for (const Finish &f : entries)
            if (f.id == id)
                return f;
        ADD_FAILURE() << "no finish recorded for job " << id;
        return {};
    }

  private:
    mutable std::mutex mtx;
    std::condition_variable cv;
    std::vector<Finish> entries;
};

/** A latch the test opens to release blocked job bodies. */
struct Gate
{
    std::promise<void> promise;
    std::shared_future<void> future{promise.get_future().share()};

    void
    open()
    {
        promise.set_value();
    }
};

/** A job body that blocks until the test opens the gate. */
JobWork
blockOn(const std::shared_ptr<Gate> &gate)
{
    return [gate](const CancelToken &) {
        gate->future.wait();
        return std::string("blocked-done");
    };
}

/**
 * Poll @p pred until it holds or the deadline passes. Every former
 * raw `while (!pred) yield()` spin in this file goes through here so
 * a daemon that never reaches the awaited state is a diagnosed
 * failure (@p what names it) instead of a test that hangs until the
 * harness kills it.
 */
::testing::AssertionResult
waitUntil(const std::function<bool()> &pred, const char *what,
          std::chrono::milliseconds deadline =
              std::chrono::seconds(30))
{
    const auto until = std::chrono::steady_clock::now() + deadline;
    while (std::chrono::steady_clock::now() < until) {
        if (pred())
            return ::testing::AssertionSuccess();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return ::testing::AssertionFailure()
           << "timed out after " << deadline.count()
           << "ms waiting for " << what;
}

/** The fast smoke sweep the CI golden pins (scale 0.02, default
 *  scenario, seed 42). */
Json
smokeSubmit(bool stream)
{
    Json options = Json::object();
    options.set("scale", Json::number(0.02));
    options.set("warmup", Json::number(std::uint64_t{0}));
    options.set("workloads", Json::string("xsbench,spmv"));
    options.set("schemes", Json::string("DECTED,Killi 1:256"));
    Json req = Json::object();
    req.set("type", Json::string("submit"));
    req.set("options", std::move(options));
    req.set("stream", Json::boolean(stream));
    return req;
}

} // namespace

// ---------------------------------------------------------------
// JobScheduler
// ---------------------------------------------------------------

TEST(JobScheduler, RunsJobAndDeliversResultText)
{
    JobScheduler sched(2, 16);
    FinishLog log;
    ASSERT_TRUE(sched.submit(
        1, 0, [](const CancelToken &) { return std::string("r1"); },
        log.sink(), nullptr));
    // Wait for completion before draining: drain() cancels jobs
    // still sitting in the ready queue.
    ASSERT_TRUE(log.waitForCount(1));
    sched.drain();
    const Finish f = log.forId(1);
    EXPECT_EQ(f.state, JobState::Done);
    EXPECT_EQ(f.result, "r1");
    EXPECT_TRUE(sched.idle());
}

TEST(JobScheduler, FailedJobCarriesExceptionText)
{
    JobScheduler sched(1, 16);
    FinishLog log;
    ASSERT_TRUE(sched.submit(
        7, 0,
        [](const CancelToken &) -> std::string {
            throw std::runtime_error("boom");
        },
        log.sink(), nullptr));
    ASSERT_TRUE(log.waitForCount(1));
    sched.drain();
    const Finish f = log.forId(7);
    EXPECT_EQ(f.state, JobState::Failed);
    EXPECT_EQ(f.error, "boom");
}

TEST(JobScheduler, HigherPriorityRunsFirst)
{
    JobScheduler sched(1, 16);
    FinishLog log;
    auto gate = std::make_shared<Gate>();
    std::vector<std::uint64_t> order;
    std::mutex orderMtx;
    const auto record = [&](std::uint64_t id) {
        return [&, id](const CancelToken &) {
            std::lock_guard<std::mutex> lock(orderMtx);
            order.push_back(id);
            return std::string();
        };
    };
    // Occupy the single worker, then queue low before high.
    ASSERT_TRUE(sched.submit(1, 0, blockOn(gate), log.sink(), nullptr));
    ASSERT_TRUE(sched.submit(2, -5, record(2), log.sink(), nullptr));
    ASSERT_TRUE(sched.submit(3, 5, record(3), log.sink(), nullptr));
    ASSERT_TRUE(sched.submit(4, 0, record(4), log.sink(), nullptr));
    gate->open();
    ASSERT_TRUE(log.waitForCount(4));
    sched.drain();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 3u); // priority 5
    EXPECT_EQ(order[1], 4u); // priority 0
    EXPECT_EQ(order[2], 2u); // priority -5
}

TEST(JobScheduler, CancelQueuedJobNeverRuns)
{
    JobScheduler sched(1, 16);
    FinishLog log;
    auto gate = std::make_shared<Gate>();
    std::atomic<bool> ran{false};
    ASSERT_TRUE(sched.submit(1, 0, blockOn(gate), log.sink(), nullptr));
    ASSERT_TRUE(waitUntil([&] { return sched.stats().running > 0; },
                          "job 1 to start running"));
    ASSERT_TRUE(sched.submit(
        2, 0,
        [&](const CancelToken &) {
            ran = true;
            return std::string();
        },
        log.sink(), nullptr));
    EXPECT_TRUE(sched.cancel(2));
    // The terminal notification for a queued cancel fires before
    // cancel() returns.
    const Finish f = log.forId(2);
    EXPECT_EQ(f.state, JobState::Cancelled);
    EXPECT_EQ(f.error, "cancelled");
    gate->open();
    sched.drain();
    EXPECT_FALSE(ran.load());
    EXPECT_FALSE(sched.cancel(2)); // already finished
}

TEST(JobScheduler, CancelRunningTripsToken)
{
    JobScheduler sched(1, 16);
    FinishLog log;
    std::atomic<bool> started{false};
    ASSERT_TRUE(sched.submit(
        1, 0,
        [&](const CancelToken &cancel) {
            started = true;
            // Bounded: if the token never trips, the job returns a
            // sentinel and the state assertion below diagnoses it,
            // instead of wedging the worker (and drain()) forever.
            const auto deadline = std::chrono::steady_clock::now() +
                                  std::chrono::seconds(30);
            while (!cancel.cancelled() &&
                   std::chrono::steady_clock::now() < deadline)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            return std::string(cancel.cancelled()
                                   ? "partial"
                                   : "never-cancelled");
        },
        log.sink(), nullptr));
    ASSERT_TRUE(waitUntil([&] { return started.load(); },
                          "job 1 to enter its body"));
    EXPECT_TRUE(sched.cancel(1));
    sched.drain();
    const Finish f = log.forId(1);
    EXPECT_EQ(f.state, JobState::Cancelled);
    EXPECT_EQ(f.result, ""); // partial result is discarded
}

TEST(JobScheduler, BoundedQueueRejectsWithQueueFull)
{
    JobScheduler sched(1, 1);
    FinishLog log;
    auto gate = std::make_shared<Gate>();
    ASSERT_TRUE(sched.submit(1, 0, blockOn(gate), log.sink(), nullptr));
    // Worker may briefly hold job 1 in the ready queue; wait until
    // it is actually running so the bound applies to job 2 alone.
    ASSERT_TRUE(waitUntil([&] { return sched.stats().running > 0; },
                          "job 1 to start running"));
    ASSERT_TRUE(sched.submit(2, 0, blockOn(gate), log.sink(), nullptr));
    std::string code;
    EXPECT_FALSE(sched.submit(3, 0, blockOn(gate), log.sink(), &code));
    EXPECT_EQ(code, "queue_full");
    EXPECT_EQ(sched.stats().rejected, 1u);
    gate->open();
    ASSERT_TRUE(log.waitForCount(2));
    sched.drain();
}

TEST(JobScheduler, DrainCancelsQueuedAndRejectsNewSubmits)
{
    JobScheduler sched(1, 16);
    FinishLog log;
    auto gate = std::make_shared<Gate>();
    ASSERT_TRUE(sched.submit(1, 0, blockOn(gate), log.sink(), nullptr));
    ASSERT_TRUE(waitUntil([&] { return sched.stats().running > 0; },
                          "job 1 to start running"));
    ASSERT_TRUE(sched.submit(2, 0, blockOn(gate), log.sink(), nullptr));
    sched.beginDrain();
    EXPECT_TRUE(sched.draining());
    // Queued job 2 was cancelled with the drain code...
    const Finish f = log.forId(2);
    EXPECT_EQ(f.state, JobState::Cancelled);
    EXPECT_EQ(f.error, "draining");
    // ...new submits bounce...
    std::string code;
    EXPECT_FALSE(sched.submit(3, 0, blockOn(gate), log.sink(), &code));
    EXPECT_EQ(code, "draining");
    // ...and the in-flight job still finishes normally.
    gate->open();
    sched.drain();
    EXPECT_EQ(log.forId(1).state, JobState::Done);
}

TEST(JobScheduler, StateTracksLifecycle)
{
    JobScheduler sched(1, 16);
    FinishLog log;
    auto gate = std::make_shared<Gate>();
    ASSERT_TRUE(sched.submit(1, 0, blockOn(gate), log.sink(), nullptr));
    bool found = false;
    sched.state(1, &found);
    EXPECT_TRUE(found);
    sched.state(99, &found);
    EXPECT_FALSE(found);
    gate->open();
    ASSERT_TRUE(log.waitForCount(1));
    sched.drain();
    EXPECT_EQ(sched.state(1, &found), JobState::Done);
    EXPECT_TRUE(found);
}

TEST(JobScheduler, TerminalStateIsRecordedBeforeTheNotification)
{
    // Inside onFinish — where the server enqueues the result frame —
    // the job already reads finished: status, cancel and stats agree
    // with the result the client is about to read. The scheduler is
    // not idle yet, so a drain still waits for the notification.
    JobScheduler sched(1, 16);
    JobState seenState = JobState::Queued;
    bool seenCancel = true;
    SchedulerStats seenStats;
    bool seenIdle = true;
    std::promise<void> notified;
    ASSERT_TRUE(sched.submit(
        1, 0, [](const CancelToken &) { return std::string("r1"); },
        [&](std::uint64_t id, JobState, const std::string &,
            const std::string &) {
            seenState = sched.state(id);
            seenCancel = sched.cancel(id);
            seenStats = sched.stats();
            seenIdle = sched.idle();
            notified.set_value();
        },
        nullptr));
    ASSERT_EQ(notified.get_future().wait_for(std::chrono::seconds(30)),
              std::future_status::ready);
    sched.drain();
    EXPECT_EQ(seenState, JobState::Done);
    EXPECT_FALSE(seenCancel);
    EXPECT_EQ(seenStats.running, 0u);
    EXPECT_EQ(seenStats.done, 1u);
    EXPECT_EQ(seenStats.cancelled, 0u);
    EXPECT_FALSE(seenIdle);
    EXPECT_TRUE(sched.idle());
    EXPECT_EQ(sched.stats().cancelled, 0u);
}

// ---------------------------------------------------------------
// ResultCache
// ---------------------------------------------------------------

TEST(ResultCache, HitReturnsStoredBytesVerbatim)
{
    ResultCache cache(8);
    const std::string key = "{\"experiment\":\"sweep\",\"seed\":1}";
    const std::string text = "{\"workloads\":[1,2,3]}";
    std::string out, hash;
    EXPECT_FALSE(cache.lookup(key, out, &hash));
    EXPECT_EQ(hash, sha256Hex(key));
    EXPECT_EQ(cache.insert(key, text), hash);
    ASSERT_TRUE(cache.lookup(key, out));
    EXPECT_EQ(out, text);
    const ResultCache::Stats s = cache.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.insertions, 1u);
    EXPECT_DOUBLE_EQ(s.hitRate(), 0.5);
}

TEST(ResultCache, LruEvictsOldestBeyondCapacity)
{
    ResultCache cache(2);
    cache.insert("a", "ra");
    cache.insert("b", "rb");
    std::string out;
    ASSERT_TRUE(cache.lookup("a", out)); // refresh a; b is now LRU
    cache.insert("c", "rc");             // evicts b
    EXPECT_TRUE(cache.lookup("a", out));
    EXPECT_FALSE(cache.lookup("b", out));
    EXPECT_TRUE(cache.lookup("c", out));
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.stats().entries, 2u);
}

// ---------------------------------------------------------------
// Server loopback integration
// ---------------------------------------------------------------

namespace
{

/** Boot a TCP server on an ephemeral port and connect a client. */
struct Loopback
{
    Server server;
    Client client;

    explicit Loopback(unsigned threads = 2, std::size_t maxQueue = 8)
        : server([&] {
              ServerOptions so;
              so.port = 0;
              so.threads = threads;
              so.maxQueue = maxQueue;
              return so;
          }())
    {
        std::string err;
        if (!server.start(&err))
            ADD_FAILURE() << "server.start: " << err;
        if (!client.connectTcp(server.boundPort(), &err))
            ADD_FAILURE() << "connect: " << err;
    }
};

} // namespace

TEST(ServeIntegration, ResultMatchesDirectRunAndCacheHitIsIdentical)
{
    // The same point computed directly, in-process.
    SweepOptions direct;
    direct.scale = 0.02;
    direct.warmupPasses = 0;
    direct.seed = 42;
    direct.workloads = {"xsbench", "spmv"};
    direct.schemes = {"DECTED", "Killi 1:256"};
    direct.jobs = 1;
    const SweepResult res = runEvaluationSweep(direct);
    const std::string directWorkloads =
        sweepToJson(direct, res).at("workloads").toString(0);

    Loopback lo;
    ScopedLogCapture quiet; // swallow the daemon's progress lines

    Json cold;
    std::string err;
    ASSERT_TRUE(lo.client.submit(smokeSubmit(false), cold, {}, &err))
        << err;
    ASSERT_EQ(cold.at("type").asString(), "result");
    ASSERT_EQ(cold.at("outcome").asString(), "done");
    EXPECT_FALSE(cold.at("cached").asBool());

    // (a) The daemon's deterministic subset is bit-identical to the
    // direct run (same serializer, equal trees, equal bytes).
    EXPECT_EQ(cold.at("result").at("workloads").toString(0),
              directWorkloads);

    // (b) The second submit is answered from the cache, and its
    // result document is the stored bytes of the first reply.
    Json cached;
    ASSERT_TRUE(
        lo.client.submit(smokeSubmit(false), cached, {}, &err))
        << err;
    ASSERT_EQ(cached.at("outcome").asString(), "done");
    EXPECT_TRUE(cached.at("cached").asBool());
    EXPECT_EQ(cached.at("key").asString(), cold.at("key").asString());
    EXPECT_EQ(cached.at("result").toString(0),
              cold.at("result").toString(0));

    lo.server.stop();
}

TEST(ServeIntegration, SubmittedPrecedesResultAndCarriesKey)
{
    Loopback lo;
    ScopedLogCapture quiet;
    ASSERT_TRUE(lo.client.send(smokeSubmit(false)));
    Json frame;
    ASSERT_TRUE(lo.client.recv(frame));
    EXPECT_EQ(frame.at("type").asString(), "submitted");
    const std::string key = frame.at("key").asString();
    EXPECT_EQ(key.size(), 64u); // sha256 hex
    ASSERT_TRUE(lo.client.recv(frame));
    EXPECT_EQ(frame.at("type").asString(), "result");
    EXPECT_EQ(frame.at("key").asString(), key);
    lo.server.stop();
}

TEST(ServeIntegration, CancelRunningJobYieldsCancelledOutcome)
{
    Loopback lo(1);
    ScopedLogCapture quiet;

    // A multi-point sweep with progress streaming: after the first
    // progress frame the job is mid-campaign, and the cancel token
    // is polled between the remaining points.
    Json req = smokeSubmit(true);
    Json options = Json::object();
    options.set("scale", Json::number(0.05));
    options.set("warmup", Json::number(std::uint64_t{0}));
    options.set("workloads", Json::string("xsbench,spmv"));
    options.set("schemes", Json::string("DECTED,Killi 1:256"));
    options.set("stats_interval", Json::number(std::uint64_t{2000}));
    req.set("options", std::move(options));

    // Every receive below is deadline-bounded: a daemon that stops
    // answering mid-cancel fails the test with the frame it was
    // waiting for, instead of hanging on a blocking recv().
    constexpr int kRecvMs = 30000;
    std::string rerr;
    ASSERT_TRUE(lo.client.send(req));
    Json frame;
    ASSERT_TRUE(lo.client.recvWithin(frame, kRecvMs, &rerr))
        << "waiting for submitted: " << rerr;
    ASSERT_EQ(frame.at("type").asString(), "submitted");
    const std::uint64_t id =
        std::uint64_t(frame.at("id").asDouble());

    ASSERT_TRUE(lo.client.recvWithin(frame, kRecvMs, &rerr))
        << "waiting for first progress: " << rerr;
    ASSERT_EQ(frame.at("type").asString(), "progress");

    Json cancel = Json::object();
    cancel.set("type", Json::string("cancel"));
    cancel.set("id", Json::number(id));
    ASSERT_TRUE(lo.client.send(cancel));

    bool sawCancelReply = false;
    // Progress frames already in flight may precede the cancel
    // reply; the terminal result must arrive within the deadline
    // regardless, and the frame budget catches a daemon that streams
    // forever instead of honouring the cancel.
    for (int frames = 0;; ++frames) {
        ASSERT_LT(frames, 10000)
            << "no terminal result after " << frames << " frames";
        ASSERT_TRUE(lo.client.recvWithin(frame, kRecvMs, &rerr))
            << "waiting for cancel_reply/result: " << rerr;
        const std::string &type = frame.at("type").asString();
        if (type == "cancel_reply") {
            EXPECT_TRUE(frame.at("cancelled").asBool());
            sawCancelReply = true;
        } else if (type == "result") {
            break;
        }
    }
    EXPECT_TRUE(sawCancelReply);
    EXPECT_EQ(frame.at("outcome").asString(), "cancelled");
    lo.server.stop();
}

TEST(ServeIntegration, FinishedJobReadsDoneRightAfterItsResult)
{
    // The scheduler records a job's terminal state before it sends the
    // result frame, so a client asking right after reading the result
    // sees the job finished: status "done", a cancel that cancels
    // nothing, and no job running.
    Loopback lo(1);
    ScopedLogCapture quiet;
    constexpr int kRecvMs = 30000;
    std::uint64_t served = 0;
    for (const char *workloads : {"xsbench", "spmv", "xsbench,spmv"}) {
        Json req = smokeSubmit(false);
        Json options = req.at("options");
        options.set("workloads", Json::string(workloads));
        req.set("options", std::move(options));

        std::string rerr;
        ASSERT_TRUE(lo.client.send(req));
        Json frame;
        ASSERT_TRUE(lo.client.recvWithin(frame, kRecvMs, &rerr)) << rerr;
        ASSERT_EQ(frame.at("type").asString(), "submitted");
        const std::uint64_t id = std::uint64_t(frame.at("id").asDouble());
        ASSERT_TRUE(lo.client.recvWithin(frame, kRecvMs, &rerr)) << rerr;
        ASSERT_EQ(frame.at("type").asString(), "result");
        ASSERT_EQ(frame.at("outcome").asString(), "done");
        ++served;

        for (const char *type : {"status", "cancel"}) {
            Json ask = Json::object();
            ask.set("type", Json::string(type));
            ask.set("id", Json::number(id));
            ASSERT_TRUE(lo.client.send(ask));
        }
        Json stats = Json::object();
        stats.set("type", Json::string("stats"));
        ASSERT_TRUE(lo.client.send(stats));

        ASSERT_TRUE(lo.client.recvWithin(frame, kRecvMs, &rerr)) << rerr;
        ASSERT_EQ(frame.at("type").asString(), "status_reply");
        EXPECT_EQ(frame.at("state").asString(), "done") << workloads;
        ASSERT_TRUE(lo.client.recvWithin(frame, kRecvMs, &rerr)) << rerr;
        ASSERT_EQ(frame.at("type").asString(), "cancel_reply");
        EXPECT_FALSE(frame.at("cancelled").asBool()) << workloads;
        ASSERT_TRUE(lo.client.recvWithin(frame, kRecvMs, &rerr)) << rerr;
        ASSERT_EQ(frame.at("type").asString(), "stats_reply");
        const Json &sched = frame.at("stats").at("scheduler");
        EXPECT_EQ(sched.at("running").asInt(), 0) << workloads;
        EXPECT_EQ(std::uint64_t(sched.at("done").asInt()), served);
        EXPECT_EQ(sched.at("cancelled").asInt(), 0);
    }
    lo.server.stop();
}

TEST(ServeIntegration, BadRequestGetsErrorAndServerKeepsServing)
{
    Loopback lo;
    // Each bad submit differs from a valid one in one member: an
    // unknown workload, a fractional priority, the retired record/
    // replay members, and the retired voltage/seed options (faults
    // come only from "scenario").
    const auto submitWith = [](const char *member, Json value,
                               const char *option, Json optValue) {
        Json req = Json::object();
        req.set("type", Json::string("submit"));
        Json options = Json::object();
        if (option)
            options.set(option, std::move(optValue));
        req.set("options", std::move(options));
        if (member)
            req.set(member, std::move(value));
        return req;
    };
    const Json badRequests[] = {
        submitWith(nullptr, Json::null(), "workloads",
                   Json::string("not_a_workload")),
        submitWith("priority", Json::number(2.5), nullptr,
                   Json::null()),
        submitWith("record", Json::boolean(true), nullptr,
                   Json::null()),
        submitWith("replay", Json::object(), nullptr, Json::null()),
        submitWith(nullptr, Json::null(), "voltage",
                   Json::number(0.6)),
        submitWith(nullptr, Json::null(), "seed",
                   Json::number(std::uint64_t{7})),
    };
    Json frame;
    for (const Json &req : badRequests) {
        ASSERT_TRUE(lo.client.send(req));
        ASSERT_TRUE(lo.client.recv(frame));
        EXPECT_EQ(frame.at("type").asString(), "error")
            << req.toString(0);
        EXPECT_EQ(frame.at("code").asString(), "bad_request")
            << req.toString(0);
    }

    // "fetch" is not part of the protocol.
    Json fetch = Json::object();
    fetch.set("type", Json::string("fetch"));
    fetch.set("key", Json::string(std::string(64, '0')));
    ASSERT_TRUE(lo.client.send(fetch));
    ASSERT_TRUE(lo.client.recv(frame));
    EXPECT_EQ(frame.at("type").asString(), "error");
    EXPECT_EQ(frame.at("code").asString(), "unknown_type");

    Json ping = Json::object();
    ping.set("type", Json::string("ping"));
    ASSERT_TRUE(lo.client.send(ping));
    ASSERT_TRUE(lo.client.recv(frame));
    EXPECT_EQ(frame.at("type").asString(), "pong");
    lo.server.stop();
}

TEST(ServeIntegration, DrainRequestAcksFlushesAndCloses)
{
    ServerOptions so;
    so.socketPath = "serve_test_drain.sock";
    so.threads = 1;
    Server server(so);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    Client client;
    ASSERT_TRUE(client.connectUnix(so.socketPath, &err)) << err;
    Json drain = Json::object();
    drain.set("type", Json::string("drain"));
    ASSERT_TRUE(client.send(drain));
    Json frame;
    ASSERT_TRUE(client.recv(frame));
    EXPECT_EQ(frame.at("type").asString(), "draining");
    // With nothing in flight the daemon flushes and closes.
    EXPECT_FALSE(client.recv(frame));
    server.waitDone();
    EXPECT_NE(::access(so.socketPath.c_str(), F_OK), 0)
        << "socket not unlinked after drain";
}

TEST(ServeIntegration, OneReactorServesConcurrentClients)
{
    ServerOptions so;
    so.port = 0;
    so.threads = 2;
    so.maxQueue = 16;
    Server server(so);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    ScopedLogCapture quiet;

    // Seed the cache once, then eight concurrent clients submit the
    // same job: the one reactor must give every connection the
    // identical cached bytes.
    Client seed;
    ASSERT_TRUE(seed.connectTcp(server.boundPort(), &err)) << err;
    Json cold;
    ASSERT_TRUE(seed.submit(smokeSubmit(false), cold, {}, &err))
        << err;
    const std::string want = cold.at("result").toString(0);

    constexpr unsigned kClients = 8;
    std::vector<std::thread> threads;
    std::atomic<unsigned> identical{0};
    for (unsigned i = 0; i < kClients; ++i)
        threads.emplace_back([&] {
            Client c;
            std::string cerr;
            Json reply;
            if (c.connectTcp(server.boundPort(), &cerr) &&
                c.submit(smokeSubmit(false), reply, {}, &cerr) &&
                reply.at("result").toString(0) == want)
                identical.fetch_add(1);
        });
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(identical.load(), kClients);
    server.stop();
}

TEST(ServeIntegration, MaxConnsAnswersExcessAcceptsWithOverloaded)
{
    ServerOptions so;
    so.port = 0;
    so.threads = 1;
    so.maxConns = 1;
    Server server(so);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    Client first;
    ASSERT_TRUE(first.connectTcp(server.boundPort(), &err)) << err;
    Json ping = Json::object();
    ping.set("type", Json::string("ping"));
    Json frame;
    ASSERT_TRUE(first.send(ping));
    ASSERT_TRUE(first.recv(frame));
    EXPECT_EQ(frame.at("type").asString(), "pong");

    // The second connection is accepted only to be told why it is
    // being turned away, then closed.
    Client second;
    ASSERT_TRUE(second.connectTcp(server.boundPort(), &err)) << err;
    ASSERT_TRUE(second.recv(frame));
    EXPECT_EQ(frame.at("type").asString(), "error");
    EXPECT_EQ(frame.at("code").asString(), "overloaded");
    EXPECT_FALSE(second.recv(frame)); // closed after the flush

    // The admitted connection keeps serving.
    ASSERT_TRUE(first.send(ping));
    ASSERT_TRUE(first.recv(frame));
    EXPECT_EQ(frame.at("type").asString(), "pong");
    server.stop();
}

TEST(ServeIntegration, Barrage200RequestsBoundedQueueCleanDrain)
{
    constexpr unsigned kClients = 8;
    constexpr unsigned kPerClient = 25;
    constexpr std::size_t kMaxQueue = 8;

    ServerOptions so;
    so.port = 0;
    so.threads = 2;
    so.maxQueue = kMaxQueue;
    Server server(so);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    ScopedLogCapture quiet;

    // Every request is the same tiny point, pipelined without
    // waiting: the daemon must bound its queue (rejecting the
    // overflow) and answer everything else, increasingly from the
    // cache once the first computation lands.
    Json req = Json::object();
    req.set("type", Json::string("submit"));
    Json options = Json::object();
    options.set("scale", Json::number(0.002));
    options.set("warmup", Json::number(std::uint64_t{0}));
    options.set("workloads", Json::string("spmv"));
    options.set("schemes", Json::string("DECTED"));
    req.set("options", std::move(options));
    req.set("stream", Json::boolean(false));

    std::atomic<unsigned> done{0}, rejected{0}, other{0};
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kClients; ++c) {
        threads.emplace_back([&] {
            Client client;
            std::string cerr;
            ASSERT_TRUE(client.connectTcp(server.boundPort(), &cerr))
                << cerr;
            for (unsigned i = 0; i < kPerClient; ++i)
                ASSERT_TRUE(client.send(req, &cerr)) << cerr;
            // Bounded drain: every pipelined submit owes exactly one
            // terminal frame; a daemon that drops one turns into a
            // diagnosed timeout here, not a hung client thread that
            // the harness eventually kills with no context.
            unsigned terminals = 0;
            while (terminals < kPerClient) {
                Json frame;
                ASSERT_TRUE(client.recvWithin(frame, 60000, &cerr))
                    << "after " << terminals << "/" << kPerClient
                    << " terminals: " << cerr;
                if (frame.at("type").asString() != "result")
                    continue;
                ++terminals;
                const std::string &outcome =
                    frame.at("outcome").asString();
                if (outcome == "done")
                    ++done;
                else if (outcome == "rejected")
                    ++rejected;
                else
                    ++other;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(done + rejected + other, kClients * kPerClient);
    EXPECT_EQ(other.load(), 0u);
    EXPECT_GE(done.load(), 1u);

    // The queue stayed bounded throughout.
    Client statsClient;
    ASSERT_TRUE(statsClient.connectTcp(server.boundPort(), &err))
        << err;
    Json statsReq = Json::object();
    statsReq.set("type", Json::string("stats"));
    ASSERT_TRUE(statsClient.send(statsReq));
    Json reply;
    ASSERT_TRUE(statsClient.recv(reply));
    const Json &stats = reply.at("stats");
    EXPECT_LE(stats.at("scheduler").at("peak_queued").asInt(),
              std::int64_t(kMaxQueue));
    const Json &outcomes = stats.at("outcomes");
    EXPECT_EQ(std::uint64_t(outcomes.at("done").asDouble()) +
                  std::uint64_t(
                      outcomes.at("cache_hits").asDouble()),
              std::uint64_t(done.load()));
    EXPECT_EQ(std::uint64_t(outcomes.at("rejected").asDouble()),
              std::uint64_t(rejected.load()));
    // Every submit consulted the cache (hits depend on timing: a
    // pipelined submit only hits once the first computation lands).
    EXPECT_GE(stats.at("cache").at("misses").asInt(), 1);

    server.stop(); // clean drain with clients gone
}

TEST(ServeIntegration, StatsExposeLatencyQuantiles)
{
    Loopback lo;
    ScopedLogCapture quiet;
    Json terminal;
    std::string err;
    ASSERT_TRUE(
        lo.client.submit(smokeSubmit(false), terminal, {}, &err))
        << err;
    Json statsReq = Json::object();
    statsReq.set("type", Json::string("stats"));
    ASSERT_TRUE(lo.client.send(statsReq));
    Json reply;
    ASSERT_TRUE(lo.client.recv(reply));
    const Json &lat = reply.at("stats").at("latency");
    EXPECT_EQ(lat.at("count").asInt(), 1);
    EXPECT_GE(lat.at("p99_s").asDouble(), lat.at("p50_s").asDouble());
    lo.server.stop();
}

// ---------------------------------------------------------------
// Metrics plane
// ---------------------------------------------------------------

namespace
{

/** Blocking GET http://127.0.0.1:port/path; returns the body. */
std::string
httpGet(std::uint16_t port, const std::string &path,
        std::string *statusLine = nullptr)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return "";
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return "";
    }
    const std::string req =
        "GET " + path + " HTTP/1.0\r\n\r\n";
    (void)!::write(fd, req.data(), req.size());
    std::string response;
    char buf[4096];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof(buf))) > 0)
        response.append(buf, std::size_t(n));
    ::close(fd);
    const auto headerEnd = response.find("\r\n\r\n");
    if (headerEnd == std::string::npos)
        return "";
    if (statusLine)
        *statusLine = response.substr(0, response.find("\r\n"));
    return response.substr(headerEnd + 4);
}

/** Fetch the daemon's `metrics` frame reply. */
Json
metricsFrame(Client &client)
{
    Json req = Json::object();
    req.set("type", Json::string("metrics"));
    EXPECT_TRUE(client.send(req));
    Json reply;
    EXPECT_TRUE(client.recvWithin(reply, 10000));
    EXPECT_EQ(reply.at("type").asString(), "metrics_reply");
    return reply;
}

/**
 * Drop exposition lines the act of scraping itself perturbs —
 * wall-clock uptime, and the wire counters the `metrics` frame and
 * the HTTP request bump (frames, outbox bytes, http requests) — so
 * two scrapes of an otherwise quiescent daemon compare
 * byte-identically on everything that matters.
 */
std::string
stripScrapePerturbed(const std::string &text)
{
    static const char *kVolatile[] = {
        "kserved_uptime_seconds",      "kserved_frames_received_total",
        "kserved_frames_sent_total",   "kserved_outbox_bytes_total",
        "kserved_http_requests_total", "kserved_reactor_wakeups_total",
    };
    std::string out;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        bool skip = false;
        for (const char *name : kVolatile)
            skip = skip || line.find(name) != std::string::npos;
        if (skip)
            continue;
        out += line;
        out += '\n';
    }
    return out;
}

} // namespace

TEST(ServeMetrics, FrameAndHttpScrapeExposeIdenticalFamilies)
{
    ServerOptions so;
    so.port = 0;
    so.threads = 1;
    so.metricsHttp = true;
    so.metricsPort = 0;
    Server server(so);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    ASSERT_NE(server.metricsBoundPort(), 0);
    Client client;
    ASSERT_TRUE(client.connectTcp(server.boundPort(), &err)) << err;
    ScopedLogCapture quiet;

    Json terminal;
    ASSERT_TRUE(client.submit(smokeSubmit(false), terminal, {}, &err))
        << err;
    ASSERT_EQ(terminal.at("outcome").asString(), "done");

    // The terminal frame can reach us a hair before the worker
    // finishes its scheduler bookkeeping; wait for true quiescence
    // so the two scrapes see identical gauge values.
    ASSERT_TRUE(waitUntil(
        [&] {
            Json req = Json::object();
            req.set("type", Json::string("stats"));
            Json reply;
            return client.send(req) &&
                   client.recvWithin(reply, 10000) &&
                   reply.at("stats")
                           .at("scheduler")
                           .at("running")
                           .asInt() == 0;
        },
        "scheduler to go idle"));

    const Json reply = metricsFrame(client);
    const std::string fromFrame = reply.at("text").asString();
    std::string status;
    const std::string fromHttp =
        httpGet(server.metricsBoundPort(), "/metrics", &status);
    EXPECT_NE(status.find("200"), std::string::npos) << status;

    // The daemon is quiescent between the two scrapes: modulo the
    // wall-clock uptime gauge and the wire counters the scrapes
    // themselves bump, the expositions are byte-identical.
    EXPECT_EQ(stripScrapePerturbed(fromFrame),
              stripScrapePerturbed(fromHttp));

    // The structured JSON covers the same families as the text.
    const Json &families = reply.at("metrics").at("families");
    ASSERT_GT(families.size(), 0u);
    for (std::size_t i = 0; i < families.size(); ++i) {
        const std::string &name =
            families.at(i).at("name").asString();
        EXPECT_NE(fromFrame.find("# TYPE " + name + " "),
                  std::string::npos)
            << name;
    }

    // Unknown paths 404, non-GET 405.
    httpGet(server.metricsBoundPort(), "/nope", &status);
    EXPECT_NE(status.find("404"), std::string::npos) << status;

    server.stop();
}

TEST(ServeMetrics, SpanStagesSumToEndToEndLatency)
{
    Loopback lo;
    ScopedLogCapture quiet;
    Json terminal;
    std::string err;
    ASSERT_TRUE(
        lo.client.submit(smokeSubmit(false), terminal, {}, &err))
        << err;
    ASSERT_EQ(terminal.at("outcome").asString(), "done");
    ASSERT_TRUE(terminal.contains("spans"));
    const Json &spans = terminal.at("spans");
    const double total = spans.at("total_s").asDouble();
    ASSERT_GT(total, 0.0);
    double sum = 0.0;
    for (const char *stage : {"decode_s", "queue_s", "setup_s",
                              "run_s", "serialize_s", "reply_s"})
        sum += spans.at(stage).asDouble();
    // Acceptance criterion: the six stages tile the end-to-end
    // latency (within 5%; by construction it is exact modulo fp).
    EXPECT_NEAR(sum, total, 0.05 * total);
    // The run stage dominates a cold sweep.
    EXPECT_GT(spans.at("run_s").asDouble(), 0.5 * total);
    lo.server.stop();
}

TEST(ServeMetrics, CacheHitCountsHitAndSkipsRunStage)
{
    Loopback lo;
    ScopedLogCapture quiet;
    Json cold, hit;
    std::string err;
    ASSERT_TRUE(lo.client.submit(smokeSubmit(false), cold, {}, &err))
        << err;
    ASSERT_TRUE(lo.client.submit(smokeSubmit(false), hit, {}, &err))
        << err;
    ASSERT_TRUE(hit.at("cached").asBool());

    // The cached reply still carries spans (decode + reply only; no
    // run stage ever happened).
    ASSERT_TRUE(hit.contains("spans"));
    EXPECT_EQ(hit.at("spans").at("run_s").asDouble(), 0.0);
    EXPECT_GT(hit.at("spans").at("total_s").asDouble(), 0.0);

    const Json metricsDoc =
        metricsFrame(lo.client).at("metrics");
    const Json snap = metrics::ktopSnapshot(metricsDoc);
    EXPECT_EQ(snap.at("cache").at("hits").asInt(), 1);
    EXPECT_EQ(snap.at("cache").at("misses").asInt(), 1);
    // Only the cold submit was admitted and ran.
    EXPECT_EQ(snap.at("scheduler").at("submitted").asInt(), 1);
    EXPECT_EQ(snap.at("jobs").at("done").asInt(), 1);
    EXPECT_EQ(snap.at("stages").at("run").at("count").asInt(), 1);
    // Both submits observed decode; the hit observed 0 s end-to-end
    // (the historical convention), so latency count is 2.
    EXPECT_EQ(snap.at("stages").at("decode").at("count").asInt(), 2);
    EXPECT_EQ(snap.at("latency").at("count").asInt(), 2);
    lo.server.stop();
}

TEST(ServeMetrics, StatsReplyKeepsBackwardCompatibleMembers)
{
    Loopback lo;
    ScopedLogCapture quiet;
    Json terminal;
    std::string err;
    ASSERT_TRUE(
        lo.client.submit(smokeSubmit(false), terminal, {}, &err))
        << err;
    Json req = Json::object();
    req.set("type", Json::string("stats"));
    ASSERT_TRUE(lo.client.send(req));
    Json reply;
    ASSERT_TRUE(lo.client.recvWithin(reply, 10000));
    const Json &stats = reply.at("stats");
    // The pre-kmetrics member surface, now sourced from the
    // registry: scripts depending on these keys keep working
    // (warm_store is the one additive member).
    for (const char *key :
         {"build", "draining", "scheduler", "cache", "warm_store",
          "latency", "outcomes"})
        EXPECT_TRUE(stats.contains(key)) << key;
    const Json &lat = stats.at("latency");
    for (const char *key : {"count", "mean_s", "p50_s", "p99_s"})
        EXPECT_TRUE(lat.contains(key)) << key;
    const Json &out = stats.at("outcomes");
    for (const char *key :
         {"cache_hits", "done", "failed", "cancelled", "rejected",
          "protocol_errors", "connections"})
        EXPECT_TRUE(out.contains(key)) << key;
    EXPECT_EQ(out.at("done").asInt(), 1);
    lo.server.stop();
}

TEST(ServeMetrics, StatsLatencyQuantilesNullBeforeFirstJob)
{
    // Regression: a fresh daemon has an empty latency histogram;
    // its quantiles used to leak NaN into the stats_reply. The keys
    // must stay present (clients key on them) but carry an explicit
    // null until the first job finishes.
    Loopback lo;
    ScopedLogCapture quiet;
    Json req = Json::object();
    req.set("type", Json::string("stats"));
    ASSERT_TRUE(lo.client.send(req));
    Json reply;
    ASSERT_TRUE(lo.client.recvWithin(reply, 10000));
    const Json &lat = reply.at("stats").at("latency");
    EXPECT_EQ(lat.at("count").asInt(), 0);
    for (const char *key : {"mean_s", "p50_s", "p99_s"}) {
        ASSERT_TRUE(lat.contains(key)) << key;
        EXPECT_TRUE(lat.at(key).isNull()) << key;
    }
    lo.server.stop();
}

// ---------------------------------------------------------------
// Warm-state store
// ---------------------------------------------------------------

namespace
{

/** A smoke submit with an overridable workload subset and seed, so
 *  tests can force distinct result-cache keys that still share (or
 *  not) a die. */
Json
warmSubmit(const std::string &workloads, std::uint64_t seed)
{
    Json options = Json::object();
    options.set("scale", Json::number(0.02));
    options.set("warmup", Json::number(std::uint64_t{0}));
    ScenarioSpec scenario;
    scenario.seed = seed;
    options.set("scenario", scenario.toJson());
    options.set("workloads", Json::string(workloads));
    options.set("schemes", Json::string("DECTED"));
    Json req = Json::object();
    req.set("type", Json::string("submit"));
    req.set("options", std::move(options));
    req.set("stream", Json::boolean(false));
    return req;
}

} // namespace

TEST(ServeIntegration, DuplicateNamesGetBadRequest)
{
    // A repeated workload or scheme (string or array form) would run
    // identical points twice under a cache key of its own.
    Loopback lo;
    Json dupSchemes = warmSubmit("xsbench", 42);
    Json options = dupSchemes.at("options");
    Json schemes = Json::array();
    schemes.push(Json::string("DECTED"));
    schemes.push(Json::string("DECTED"));
    options.set("schemes", std::move(schemes));
    dupSchemes.set("options", std::move(options));
    Json frame;
    for (const Json &req : {warmSubmit("xsbench,spmv,xsbench", 42),
                            dupSchemes}) {
        ASSERT_TRUE(lo.client.send(req));
        ASSERT_TRUE(lo.client.recv(frame));
        EXPECT_EQ(frame.at("type").asString(), "error")
            << req.toString(0);
        EXPECT_EQ(frame.at("code").asString(), "bad_request")
            << req.toString(0);
        EXPECT_NE(frame.at("error").asString().find("listed twice"),
                  std::string::npos)
            << frame.toString(0);
    }
    lo.server.stop();
}

TEST(WarmStore, SingleFlightSynthesizesOnceAcrossConcurrentCallers)
{
    WarmStore store(64 << 20);
    std::atomic<int> syntheses{0};
    Gate gate;
    const auto synth = [&] {
        ++syntheses;
        gate.future.wait();
        return FaultPopulation{{FaultCell{7, true,
                                          FaultKind::Writeability, 0.5f}}};
    };
    const std::string key = "warm-test-key";
    std::shared_ptr<const FaultPopulation> a, b;
    std::thread first([&] { a = store.faultPopulation(key, synth); });
    // The second caller must block on the first's in-flight
    // synthesis, not run its own.
    ASSERT_TRUE(waitUntil([&] { return syntheses.load() == 1; },
                          "first synthesis to start"));
    std::thread second([&] { b = store.faultPopulation(key, synth); });
    gate.open();
    first.join();
    second.join();
    EXPECT_EQ(syntheses.load(), 1);
    ASSERT_TRUE(a && b);
    EXPECT_EQ(a.get(), b.get()); // the one stored population, shared
    const WarmStore::Stats s = store.stats();
    EXPECT_EQ(s.misses, 1u); // misses == syntheses, exactly
    EXPECT_EQ(s.hits, 1u);   // the waiter counts a hit
    EXPECT_EQ(s.insertions, 1u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_GT(s.bytes, 0u);
}

TEST(WarmStore, ByteBoundEvictsLruAndClearZeroesTheGauges)
{
    // 100 cells per population (reserved exactly, so the accounted
    // size is deterministic); bound the store to two payloads so the
    // third insert must evict the least recently used entry.
    const auto bigPopulation = [] {
        FaultPopulation pop(1);
        pop[0].reserve(100);
        for (std::uint16_t bit = 0; bit < 100; ++bit)
            pop[0].push_back(
                FaultCell{bit, false, FaultKind::Writeability, 0.5f});
        return pop;
    };
    const std::size_t payloadBytes = sizeof(FaultPopulation) +
                                     sizeof(std::vector<FaultCell>) +
                                     100 * sizeof(FaultCell);
    WarmStore store(2 * payloadBytes);
    store.faultPopulation("a", bigPopulation);
    store.faultPopulation("b", bigPopulation);
    // Touch "a" so "b" is the LRU victim.
    store.faultPopulation("a", bigPopulation);
    store.faultPopulation("c", bigPopulation);
    WarmStore::Stats s = store.stats();
    EXPECT_EQ(s.misses, 3u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.evictions, 1u);
    // "b" was evicted; "a" survived the touch.
    store.faultPopulation("a", bigPopulation);
    store.faultPopulation("b", bigPopulation);
    s = store.stats();
    EXPECT_EQ(s.misses, 4u);
    EXPECT_EQ(s.hits, 2u);

    const std::uint64_t inserted = s.insertions;
    const std::uint64_t evictedByBound = s.evictions;
    const std::size_t resident = s.entries;
    store.clear();
    s = store.stats();
    EXPECT_EQ(s.entries, 0u);
    EXPECT_EQ(s.bytes, 0u);
    EXPECT_EQ(s.insertions, inserted);
    // Cleared entries count as evictions on top of the bound's.
    EXPECT_EQ(s.evictions, evictedByBound + resident);
}

TEST(WarmStore, FaultMapKeySeparatesScenarioGeometryAndSeed)
{
    ScenarioSpec spec;
    const std::string base = WarmStore::faultMapKey(spec, 1024, 720);
    EXPECT_EQ(base, WarmStore::faultMapKey(spec, 1024, 720));
    EXPECT_NE(base, WarmStore::faultMapKey(spec, 2048, 720));
    EXPECT_NE(base, WarmStore::faultMapKey(spec, 1024, 523));
    ScenarioSpec reseeded = spec;
    reseeded.seed = 43;
    EXPECT_NE(base, WarmStore::faultMapKey(reseeded, 1024, 720));
    ScenarioSpec clustered = spec;
    clustered.model = "clustered";
    EXPECT_NE(base, WarmStore::faultMapKey(clustered, 1024, 720));
}

TEST(ServeIntegration, WarmStoreSharesOneDieAcrossDistinctJobs)
{
    // Two jobs that differ only in their workload subset miss the
    // result cache (different canonical keys) but describe the same
    // die — the population must be synthesized exactly once and
    // adopted by the other job.
    Loopback lo;
    ScopedLogCapture quiet;
    Json first, second;
    std::string err;
    ASSERT_TRUE(
        lo.client.submit(warmSubmit("xsbench", 42), first, {}, &err))
        << err;
    ASSERT_EQ(first.at("outcome").asString(), "done");
    EXPECT_FALSE(first.at("cached").asBool());
    ASSERT_TRUE(
        lo.client.submit(warmSubmit("spmv", 42), second, {}, &err))
        << err;
    ASSERT_EQ(second.at("outcome").asString(), "done");
    EXPECT_FALSE(second.at("cached").asBool());

    Json req = Json::object();
    req.set("type", Json::string("stats"));
    ASSERT_TRUE(lo.client.send(req));
    Json reply;
    ASSERT_TRUE(lo.client.recvWithin(reply, 10000));
    const Json &warm = reply.at("stats").at("warm_store");
    // Each campaign consults the store once: one synthesis for the
    // first job, one warm adoption for the second.
    EXPECT_EQ(warm.at("misses").asInt(), 1);
    EXPECT_EQ(warm.at("hits").asInt(), 1);
    EXPECT_EQ(warm.at("insertions").asInt(), 1);
    EXPECT_EQ(warm.at("entries").asInt(), 1);
    EXPECT_GT(warm.at("bytes").asInt(), 0);
    lo.server.stop();
}

TEST(ServeIntegration, SubsetCampaignsAreBitIdenticalToDirectFullSweep)
{
    // A workload-subset campaign's entry is byte-identical to that
    // workload's entry in the full campaign run directly: result
    // slots are pre-sized, so no workload's numbers depend on which
    // others share its campaign.
    Loopback lo;
    ScopedLogCapture quiet;
    Json first, second;
    std::string err;
    ASSERT_TRUE(
        lo.client.submit(warmSubmit("xsbench", 42), first, {}, &err))
        << err;
    ASSERT_EQ(first.at("outcome").asString(), "done");
    ASSERT_TRUE(
        lo.client.submit(warmSubmit("spmv", 42), second, {}, &err))
        << err;
    ASSERT_EQ(second.at("outcome").asString(), "done");
    lo.server.stop();

    SubmitRequest full;
    ASSERT_TRUE(parseSubmit(warmSubmit("xsbench,spmv", 42), full, err))
        << err;
    const Json direct =
        sweepToJson(full.sopt, runEvaluationSweep(full.sopt));
    const Json &entries = direct.at("workloads");
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries.at(0).at("workload").asString(), "xsbench");
    EXPECT_EQ(entries.at(1).at("workload").asString(), "spmv");
    EXPECT_EQ(
        first.at("result").at("workloads").at(0).toString(0),
        entries.at(0).toString(0));
    EXPECT_EQ(
        second.at("result").at("workloads").at(0).toString(0),
        entries.at(1).toString(0));
}

TEST(ServeIntegration, WarmBackedSweepMatchesColdRecordingAndReplays)
{
    // The bit-identity contract, end to end through krr: a cold
    // recorded run, a warm-store-backed run of the same options, and
    // a replay of the recording must all agree bit-for-bit.
    ScopedLogCapture quiet;
    SweepOptions opt;
    opt.scale = 0.02;
    opt.warmupPasses = 0;
    opt.workloads = {"xsbench"};
    opt.schemes = {"DECTED"};
    opt.jobs = 1;

    const replay::SweepSession cold = replay::recordSweep(opt);
    const std::string coldWorkloads =
        sweepToJson(opt, cold.result).at("workloads").toString(0);

    WarmStore store(64 << 20);
    SweepOptions wopt = opt;
    wopt.warmFaultSource = [&store, &wopt](const FaultModel &model,
                                           std::size_t numLines,
                                           std::size_t lineBits) {
        return store.faultPopulation(
            WarmStore::faultMapKey(wopt.scenario, numLines,
                                   lineBits),
            [&model, numLines, lineBits] {
                return model.samplePopulation(numLines, lineBits);
            });
    };
    const SweepResult warmRes = runEvaluationSweep(wopt);
    EXPECT_EQ(
        sweepToJson(opt, warmRes).at("workloads").toString(0),
        coldWorkloads);
    // The campaign consulted the store once, before its two points
    // (baseline + DECTED) ran: one synthesis, no hit.
    EXPECT_EQ(store.stats().misses, 1u);
    EXPECT_EQ(store.stats().hits, 0u);

    // The cold recording replays bit-identically — and the replay
    // path samples cold by construction (replaySweep takes no warm
    // source), so the recording's RNG draws all verify.
    const replay::SweepSession rep = replay::replaySweep(cold.recording);
    EXPECT_TRUE(rep.verified)
        << rep.divergence.toJson().toString(2);
    EXPECT_EQ(sweepToJson(rep.opt, rep.result)
                  .at("workloads")
                  .toString(0),
              coldWorkloads);
}

TEST(ServeIntegration, DrainClearsCacheAndWarmStateBytes)
{
    // Regression: drain-time teardown racing LRU eviction used to
    // leave the kserved_cache_bytes gauge non-zero. Force eviction
    // pressure (capacity 1) and assert both stores' gauges read 0
    // after a full drain.
    ServerOptions so;
    so.port = 0;
    so.threads = 1;
    so.cacheEntries = 1;
    Server server(so);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    Client client;
    ASSERT_TRUE(client.connectTcp(server.boundPort(), &err)) << err;
    ScopedLogCapture quiet;

    Json first, second;
    ASSERT_TRUE(
        client.submit(warmSubmit("xsbench", 42), first, {}, &err))
        << err;
    ASSERT_EQ(first.at("outcome").asString(), "done");
    // A different seed: a different cache key AND a different die,
    // so both stores hold real state and the cache must evict.
    ASSERT_TRUE(
        client.submit(warmSubmit("xsbench", 7), second, {}, &err))
        << err;
    ASSERT_EQ(second.at("outcome").asString(), "done");

    Json before = server.statsJson();
    EXPECT_EQ(before.at("cache").at("insertions").asInt(), 2);
    EXPECT_EQ(before.at("cache").at("evictions").asInt(), 1);
    EXPECT_EQ(before.at("cache").at("entries").asInt(), 1);
    EXPECT_GT(before.at("cache").at("bytes").asInt(), 0);
    EXPECT_EQ(before.at("warm_store").at("entries").asInt(), 2);
    EXPECT_GT(before.at("warm_store").at("bytes").asInt(), 0);

    server.stop();

    Json after = server.statsJson();
    EXPECT_EQ(after.at("cache").at("entries").asInt(), 0);
    EXPECT_EQ(after.at("cache").at("bytes").asInt(), 0);
    // The cleared entry counts as an eviction: 1 by capacity + 1 by
    // the drain-time clear.
    EXPECT_EQ(after.at("cache").at("evictions").asInt(), 2);
    EXPECT_EQ(after.at("warm_store").at("entries").asInt(), 0);
    EXPECT_EQ(after.at("warm_store").at("bytes").asInt(), 0);
}
