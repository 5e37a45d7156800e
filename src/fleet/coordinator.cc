#include "fleet/coordinator.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <stdexcept>
#include <thread>

#include <sys/wait.h>
#include <unistd.h>

#include "common/log.hh"
#include "serve/cache.hh"
#include "serve/client/client.hh"
#include "serve/submit.hh"

namespace killi::fleet
{

namespace
{

/** Bump a kfleet_* counter (when registered) and its statsJson()
 *  mirror. */
void
bump(metrics::Counter *c, std::atomic<std::uint64_t> &mirror)
{
    mirror.fetch_add(1);
    if (c)
        c->inc();
}

double
sinceSeconds(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

Json
stringArray(const std::vector<std::string> &names)
{
    Json arr = Json::array();
    for (const std::string &name : names)
        arr.push(Json::string(name));
    return arr;
}

/**
 * The shard's submit frame. The options here must canonicalize on
 * the worker to exactly the shard's cache key — scenario-first,
 * same as the coordinator's own parseSubmit() resolved them — so
 * worker caches address the same hashes a direct client submit of
 * the subset would.
 */
Json
submitFrameFor(const SweepOptions &sopt, int priority)
{
    Json options = Json::object();
    options.set("scale", Json::number(sopt.scale));
    options.set("warmup",
                Json::number(std::uint64_t(sopt.warmupPasses)));
    options.set("scenario", sopt.scenario.toJson());
    options.set("stats_interval",
                Json::number(std::uint64_t(sopt.statsInterval)));
    options.set("retries",
                Json::number(std::uint64_t(sopt.retries)));
    options.set("workloads", stringArray(sopt.workloads));
    options.set("schemes", stringArray(sopt.schemes));
    Json req = Json::object();
    req.set("type", Json::string("submit"));
    req.set("options", std::move(options));
    req.set("priority", Json::number(std::int64_t(priority)));
    // Shard progress is not forwarded (the coordinator synthesizes
    // campaign-level point-done events itself), so skip the stream.
    req.set("stream", Json::boolean(false));
    return req;
}

bool
isTimeout(const std::string &err)
{
    return err.rfind("timeout", 0) == 0;
}

/** No worker to avoid (Shard::avoid). */
constexpr std::size_t kNoWorker = ~std::size_t{0};

} // namespace

// Shard and Campaign fields are under Coordinator::mtx unless atomic.
struct Coordinator::Shard
{
    std::string workload;
    SweepOptions sopt;
    std::string hash;
    unsigned attempts = 0;
    /** The worker whose dispatch just failed; it does not retake the
     *  shard while another worker exists. */
    std::size_t avoid = kNoWorker;
    Json result;
    std::string worker;
    std::string origin;
};

struct Coordinator::Campaign
{
    const CancelToken *cancel = nullptr;
    const serve::FleetProgressFn *progress = nullptr;
    std::vector<std::unique_ptr<Shard>> shards;
    std::size_t completedCount = 0;
    /** Dispatches of this campaign currently running. */
    std::size_t dispatching = 0;
    bool failed = false;
    std::string error;
    /** Campaign settled: success, failure, or cancellation. */
    std::atomic<bool> done{false};
    /** Rolled into statusJson() while the campaign is in flight. */
    std::atomic<std::uint64_t> dispatched{0};
};

Coordinator::Coordinator(FleetOptions options) : opt(std::move(options))
{
    endpoints = opt.workers;
    for (unsigned i = 0; i < opt.spawnWorkers; ++i) {
        WorkerEndpoint ep;
        ep.socketPath = opt.spawnDir + "/w" +
                        std::to_string(endpoints.size()) + ".sock";
        endpoints.push_back(std::move(ep));
    }
    for (std::size_t w = 0; w < endpoints.size(); ++w)
        workerNames.push_back("w" + std::to_string(w));
    registerFleetMetrics();
}

Coordinator::~Coordinator()
{
    shutdownWorkers();
}

void
Coordinator::registerFleetMetrics()
{
    if (!opt.registry)
        return;
    auto &reg = *opt.registry;
    mCampaigns = &reg.counter("kfleet_campaigns_total",
                              "Campaigns run through the fleet");
    mDispatched = &reg.counter(
        "kfleet_shards_dispatched_total",
        "Shard dispatches that reached a worker's submitted frame");
    mCompleted = &reg.counter(
        "kfleet_shards_completed_total",
        "Dispatches whose result won their shard");
    mCancelled = &reg.counter(
        "kfleet_shards_cancelled_total",
        "Dispatches abandoned: worker failures, transport deaths, "
        "campaign cancellation");
    mRejections = &reg.counter(
        "kfleet_worker_rejections_total",
        "Worker-side rejections (queue_full, overloaded, connect "
        "failures) that sent a shard elsewhere");
    mShardSeconds = &reg.histogram(
        "kfleet_shard_seconds",
        "Dispatch-to-settle latency of completed shard dispatches");
}

bool
Coordinator::spawnWorker(std::size_t idx, std::string *err)
{
    const WorkerEndpoint &ep = endpoints[idx];
    std::vector<std::string> args;
    args.push_back(opt.workerBin);
    args.push_back("socket=" + ep.socketPath);
    args.push_back("threads=" + std::to_string(opt.workerThreads));
    for (const std::string &extra : opt.workerExtraArgs)
        args.push_back(extra);
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0) {
        if (err)
            *err = std::string("fork: ") + std::strerror(errno);
        return false;
    }
    if (pid == 0) {
        ::execv(opt.workerBin.c_str(), argv.data());
        // Exec failure in the child: nothing sane to do but exit;
        // the parent's connect probe reports the dead worker.
        ::_exit(127);
    }
    spawnedPids.push_back(pid);
    return true;
}

bool
Coordinator::connectWorker(std::size_t w, serve::Client &client,
                           std::string *err)
{
    serve::ConnectOptions copt;
    // Spread the per-worker budget over retries: ~100ms-spaced
    // early attempts riding out a worker that is still booting,
    // 2s-capped backoff after that.
    copt.attempts = unsigned(std::clamp(
        opt.connectTimeoutSeconds / 0.25, 1.0, 40.0));
    copt.timeoutMs = 2000;
    copt.backoffMs = 100;
    const WorkerEndpoint &ep = endpoints[w];
    if (!ep.socketPath.empty())
        return client.connectUnix(ep.socketPath, copt, err);
    return client.connectTcp(ep.port, copt, err);
}

bool
Coordinator::start(std::string *err)
{
    if (endpoints.empty()) {
        if (err)
            *err = "fleet has no workers (workers= / spawn-workers=)";
        return false;
    }
    const std::size_t firstSpawned =
        endpoints.size() - opt.spawnWorkers;
    for (std::size_t w = firstSpawned; w < endpoints.size(); ++w) {
        ::unlink(endpoints[w].socketPath.c_str());
        if (!spawnWorker(w, err))
            return false;
    }
    // Every worker answers a ping before the fleet reports healthy —
    // spawned ones are racing their own bind, hence the retry
    // budget in connectWorker().
    for (std::size_t w = 0; w < endpoints.size(); ++w) {
        serve::Client client;
        std::string werr;
        if (!connectWorker(w, client, &werr)) {
            if (err)
                *err = "worker " + workerNames[w] + ": " + werr;
            return false;
        }
        Json ping = Json::object();
        ping.set("type", Json::string("ping"));
        Json pong;
        if (!client.send(ping, &werr) ||
            !client.recvWithin(pong, 10000, &werr)) {
            if (err)
                *err = "worker " + workerNames[w] + ": " + werr;
            return false;
        }
    }
    if (opt.registry)
        opt.registry
            ->gauge("kfleet_workers",
                    "Workers attached to the campaign fabric")
            .set(double(endpoints.size()));
    inform("kfleet: %zu worker(s) healthy (%u spawned)",
           endpoints.size(), opt.spawnWorkers);
    for (std::size_t w = 0; w < endpoints.size(); ++w)
        for (unsigned s = 0; s < std::max(1u, opt.slotsPerWorker); ++s)
            dispatchers.emplace_back([this, w] { dispatchLoop(w); });
    return true;
}

void
Coordinator::shutdownWorkers()
{
    if (workersDown.exchange(true))
        return;
    {
        std::lock_guard<std::mutex> lock(mtx);
        stopping = true;
    }
    queueCv.notify_all();
    settledCv.notify_all();
    for (std::thread &t : dispatchers)
        t.join();
    if (spawnedPids.empty())
        return;
    const std::size_t firstSpawned =
        endpoints.size() - spawnedPids.size();
    // Graceful first: a drain frame lets in-flight jobs finish and
    // flushes replies; SIGTERM (same drain path in kserved) is the
    // fallback for a worker that never answered the socket.
    for (std::size_t i = 0; i < spawnedPids.size(); ++i) {
        serve::Client client;
        std::string werr;
        const std::size_t w = firstSpawned + i;
        bool drained = false;
        if (connectWorker(w, client, &werr)) {
            Json drain = Json::object();
            drain.set("type", Json::string("drain"));
            Json reply;
            // Wait for the "draining" ack so the frame is known
            // delivered before the socket closes.
            drained = client.send(drain, &werr) &&
                      client.recvWithin(reply, 5000, &werr);
        }
        if (!drained)
            ::kill(spawnedPids[i], SIGTERM);
    }
    for (const pid_t pid : spawnedPids) {
        const auto t0 = std::chrono::steady_clock::now();
        bool reaped = false;
        while (sinceSeconds(t0) < 10.0) {
            int status = 0;
            const pid_t got = ::waitpid(pid, &status, WNOHANG);
            if (got == pid || (got < 0 && errno == ECHILD)) {
                reaped = true;
                break;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
        }
        if (!reaped) {
            warn("kfleet: worker pid %d ignored drain; SIGTERM",
                 int(pid));
            ::kill(pid, SIGTERM);
            int status = 0;
            ::waitpid(pid, &status, 0);
        }
    }
    spawnedPids.clear();
}

void
Coordinator::settleShard(Campaign &camp, Shard &shard, std::size_t w,
                         const char *origin, Json result)
{
    std::size_t doneCount = 0;
    std::size_t total = 0;
    {
        std::lock_guard<std::mutex> lock(mtx);
        shard.result = std::move(result);
        shard.worker = workerNames[w];
        shard.origin = origin;
        doneCount = ++camp.completedCount;
        total = camp.shards.size();
        if (doneCount == total) {
            camp.done.store(true);
            settledCv.notify_all();
        }
    }
    if (*camp.progress) {
        SweepProgress p;
        p.point = shard.workload;
        p.pointDone = true;
        p.pointsDone = doneCount;
        p.pointsTotal = total;
        (*camp.progress)(p);
    }
}

void
Coordinator::retryOrFail(Campaign &camp, Shard &shard, std::size_t w,
                         const std::string &why)
{
    std::lock_guard<std::mutex> lock(mtx);
    if (camp.done.load())
        return;
    if (shard.attempts >= opt.maxShardAttempts) {
        camp.failed = true;
        camp.error = "shard '" + shard.workload + "' failed " +
                     std::to_string(shard.attempts) +
                     " dispatch(es); last: " + why;
        camp.done.store(true);
        settledCv.notify_all();
        return;
    }
    shard.avoid = endpoints.size() > 1 ? w : kNoWorker;
    queue.push_back(Queued{&camp, &shard});
    queueCv.notify_all();
}

void
Coordinator::runDispatch(Campaign &camp, Shard &shard, std::size_t w)
{
    const auto reject = [&](const std::string &why) {
        bump(mRejections, tally.rejections);
        retryOrFail(camp, shard, w, why);
    };

    serve::Client client;
    std::string err;
    if (!connectWorker(w, client, &err)) {
        reject("connect " + workerNames[w] + ": " + err);
        return;
    }
    if (!client.send(submitFrameFor(shard.sopt, 0), &err)) {
        reject("send " + workerNames[w] + ": " + err);
        return;
    }

    const auto t0 = std::chrono::steady_clock::now();
    bool submitted = false;
    bool cachedFlag = false;
    // A dispatch that reached the submitted frame must land in a
    // terminal bucket: cancelled, unless its result settles the
    // shard. Closing the connection lets the worker's orphan-cancel
    // sweep reap an abandoned job itself.
    const auto abandon = [&] { bump(mCancelled, tally.cancelled); };

    while (true) {
        Json frame;
        if (!client.recvWithin(frame, 50, &err)) {
            if (isTimeout(err)) {
                if (camp.cancel->cancelled() || camp.done.load()) {
                    if (submitted)
                        abandon();
                    return;
                }
                continue;
            }
            // Transport death mid-dispatch.
            if (submitted) {
                abandon();
                retryOrFail(camp, shard, w,
                            "worker " + workerNames[w] + ": " + err);
            } else {
                reject("worker " + workerNames[w] + ": " + err);
            }
            return;
        }
        const std::string &type = frame.at("type").asString();
        if (type == "submitted") {
            submitted = true;
            cachedFlag = frame.at("cached").asBool();
            if (frame.at("key").asString() != shard.hash)
                warn("kfleet: shard '%s' canonicalized to %s on %s "
                     "but %s here — cache addressing is broken",
                     shard.workload.c_str(),
                     frame.at("key").asString().c_str(),
                     workerNames[w].c_str(), shard.hash.c_str());
            bump(mDispatched, tally.dispatched);
            camp.dispatched.fetch_add(1);
            continue;
        }
        if (type == "error") {
            // Pre-admission rejection (overloaded / bad_request): no
            // submitted frame, so nothing entered the dispatched
            // bucket.
            reject("worker " + workerNames[w] + ": " +
                   frame.at("error").asString());
            return;
        }
        if (type != "result")
            continue;

        const std::string &outcome = frame.at("outcome").asString();
        if (outcome == "done") {
            bump(mCompleted, tally.completed);
            if (mShardSeconds)
                mShardSeconds->observe(sinceSeconds(t0));
            settleShard(camp, shard, w,
                        cachedFlag || frame.at("cached").asBool()
                            ? "cache-hit"
                            : "computed",
                        frame.at("result"));
            return;
        }
        // queue_full (outcome "rejected") arrives after the submitted
        // frame, so it is accounted cancelled AND as a rejection.
        abandon();
        if (outcome == "rejected") {
            reject("worker " + workerNames[w] +
                   " rejected: " + frame.at("error").asString());
            return;
        }
        if (!camp.cancel->cancelled())
            retryOrFail(camp, shard, w,
                        "worker " + workerNames[w] + " outcome " +
                            outcome + ": " +
                            (frame.contains("error")
                                 ? frame.at("error").asString()
                                 : ""));
        return;
    }
}

void
Coordinator::dispatchLoop(std::size_t w)
{
    std::unique_lock<std::mutex> lock(mtx);
    while (true) {
        auto next = queue.end();
        queueCv.wait(lock, [&] {
            next = std::find_if(queue.begin(), queue.end(),
                                [w](const Queued &q) {
                                    return q.shard->avoid != w;
                                });
            return stopping || next != queue.end();
        });
        if (stopping)
            return;
        const Queued entry = *next;
        queue.erase(next);
        if (entry.camp->done.load())
            continue;
        ++entry.camp->dispatching;
        ++entry.shard->attempts;
        lock.unlock();
        runDispatch(*entry.camp, *entry.shard, w);
        lock.lock();
        --entry.camp->dispatching;
        settledCv.notify_all();
    }
}

Json
Coordinator::runCampaign(std::uint64_t jobId,
                         const serve::SubmitRequest &req,
                         const CancelToken &cancel,
                         const serve::FleetProgressFn &progress,
                         Json *attribution)
{
    const auto t0 = std::chrono::steady_clock::now();
    bump(mCampaigns, tally.campaigns);
    const std::size_t nWorkers = endpoints.size();
    if (nWorkers == 0)
        throw std::runtime_error("fleet has no workers");

    Campaign camp;
    camp.cancel = &cancel;
    camp.progress = &progress;
    for (const std::string &workload : req.sopt.workloads) {
        auto shard = std::make_unique<Shard>();
        shard->workload = workload;
        shard->sopt = req.sopt;
        shard->sopt.workloads = {workload};
        shard->hash = serve::ResultCache::hashKey(
            serve::canonicalKeyFor(shard->sopt));
        camp.shards.push_back(std::move(shard));
    }
    {
        std::unique_lock<std::mutex> lock(mtx);
        active[jobId] = &camp;
        for (const auto &shard : camp.shards)
            queue.push_back(Queued{&camp, shard.get()});
        queueCv.notify_all();
        // Cancellation is a polled token, so wake up to look at it.
        while (!camp.done.load() && !cancel.cancelled() && !stopping)
            settledCv.wait_for(lock, std::chrono::milliseconds(50));
        if (!camp.done.load() && !cancel.cancelled()) {
            camp.failed = true;
            camp.error = "fleet shut down mid-campaign";
        }
        // Withdraw what never started; running dispatches see done
        // within one poll tick and return.
        camp.done.store(true);
        std::erase_if(queue,
                      [&](const Queued &q) { return q.camp == &camp; });
        settledCv.wait(lock, [&] { return camp.dispatching == 0; });
        active.erase(jobId);
    }
    if (cancel.cancelled())
        return Json(); // server discards cancelled results
    if (camp.failed)
        throw std::runtime_error(camp.error);

    if (attribution) {
        Json shards = Json::array();
        for (const auto &shard : camp.shards) {
            Json entry = Json::object();
            entry.set("workload", Json::string(shard->workload));
            entry.set("worker", Json::string(shard->worker));
            entry.set("origin", Json::string(shard->origin));
            shards.push(std::move(entry));
        }
        Json doc = Json::object();
        doc.set("workers",
                Json::number(std::uint64_t(nWorkers)));
        doc.set("shards", std::move(shards));
        *attribution = std::move(doc);
    }

    // Merge: per-workload "workloads" entries concatenate in
    // campaign order (runEvaluationSweep pre-sizes result slots, so
    // each entry is independent of what else ran in its process);
    // "sweep" carries no per-workload state, so shard 0's copy is
    // the campaign's. Member order mirrors the local path in
    // Server::handleSubmit — bit-identity depends on it.
    Json doc = Json::object();
    doc.set("bench", Json::string("kserved"));
    doc.set("options", serve::resolvedOptionsJson(req.sopt));
    doc.set("sweep", camp.shards[0]->result.at("sweep"));
    Json workloads = Json::array();
    Json jobArray = Json::array();
    for (const auto &shard : camp.shards) {
        const Json &r = shard->result;
        const Json &wl = r.at("workloads");
        for (std::size_t k = 0; k < wl.size(); ++k)
            workloads.push(wl.at(k));
        const Json &jobs = r.at("campaign").at("jobs");
        for (std::size_t k = 0; k < jobs.size(); ++k)
            jobArray.push(jobs.at(k));
    }
    doc.set("workloads", std::move(workloads));
    Json campaign = Json::object();
    campaign.set("threads",
                 Json::number(std::int64_t(nWorkers)));
    campaign.set("seconds", Json::number(sinceSeconds(t0)));
    campaign.set("jobs", std::move(jobArray));
    doc.set("campaign", std::move(campaign));
    return doc;
}

Json
Coordinator::statusJson(std::uint64_t jobId)
{
    std::lock_guard<std::mutex> lock(mtx);
    const auto it = active.find(jobId);
    if (it == active.end())
        return Json();
    const Campaign &camp = *it->second;
    Json doc = Json::object();
    doc.set("shards_total",
            Json::number(std::uint64_t(camp.shards.size())));
    doc.set("shards_done",
            Json::number(std::uint64_t(camp.completedCount)));
    doc.set("dispatched", Json::number(camp.dispatched.load()));
    return doc;
}

Json
Coordinator::statsJson()
{
    Json doc = Json::object();
    doc.set("workers",
            Json::number(std::uint64_t(endpoints.size())));
    doc.set("campaigns", Json::number(tally.campaigns.load()));
    doc.set("shards_dispatched",
            Json::number(tally.dispatched.load()));
    doc.set("shards_completed",
            Json::number(tally.completed.load()));
    doc.set("shards_cancelled",
            Json::number(tally.cancelled.load()));
    doc.set("worker_rejections",
            Json::number(tally.rejections.load()));
    return doc;
}

} // namespace killi::fleet
