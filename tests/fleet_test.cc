/**
 * @file
 * Tests for the fleet fabric (src/fleet): a Coordinator driving real
 * in-process kserved workers over loopback TCP. Which worker's
 * dispatcher pops a shard from the fleet-wide queue is up to the OS
 * scheduler, so the tests check outcomes, not placement:
 * bit-identical shard merging against a direct in-process sweep, a
 * failed dispatch retried on the other worker, worker-side cache
 * hits on repeat campaigns, and the dispatch-accounting invariant
 * (dispatched == completed + cancelled) after each.
 */

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bench/sweep.hh"
#include "common/json.hh"
#include "fleet/coordinator.hh"
#include "metrics/metrics.hh"
#include "runner/thread_pool.hh"
#include "serve/server.hh"
#include "serve/submit.hh"

using namespace killi;
using namespace killi::fleet;

namespace
{

/**
 * N in-process kserved workers on ephemeral loopback TCP ports plus
 * a Coordinator attached to them.
 */
struct TestFleet
{
    metrics::MetricsRegistry registry;
    std::vector<std::unique_ptr<serve::Server>> workers;
    std::unique_ptr<Coordinator> coord;

    explicit TestFleet(std::size_t n, FleetOptions fopt = {})
    {
        for (std::size_t i = 0; i < n; ++i) {
            serve::ServerOptions sopt;
            sopt.port = 0; // ephemeral loopback TCP
            sopt.threads = 2;
            sopt.maxQueue = 16;
            workers.push_back(
                std::make_unique<serve::Server>(sopt));
            std::string err;
            if (!workers.back()->start(&err))
                ADD_FAILURE() << "worker " << i << ": " << err;
            WorkerEndpoint ep;
            ep.port = workers.back()->boundPort();
            fopt.workers.push_back(ep);
        }
        fopt.registry = &registry;
        coord = std::make_unique<Coordinator>(std::move(fopt));
        std::string err;
        if (!coord->start(&err))
            ADD_FAILURE() << "fleet start: " << err;
    }

    ~TestFleet()
    {
        coord.reset();
        for (auto &worker : workers)
            worker->stop();
    }
};

/** A validated campaign over @p workloads (comma list), fast scale,
 *  default scenario (seed 42) — the same resolution path the daemon
 *  uses. */
serve::SubmitRequest
campaignFor(const std::string &workloads, double scale = 0.003,
            const std::string &schemes = "DECTED")
{
    Json options = Json::object();
    options.set("scale", Json::number(scale));
    options.set("warmup", Json::number(std::uint64_t{0}));
    options.set("workloads", Json::string(workloads));
    options.set("schemes", Json::string(schemes));
    Json req = Json::object();
    req.set("type", Json::string("submit"));
    req.set("options", std::move(options));
    req.set("stream", Json::boolean(false));
    serve::SubmitRequest out;
    std::string err;
    if (!serve::parseSubmit(req, out, err))
        ADD_FAILURE() << "parseSubmit: " << err;
    return out;
}

/** The attribution entry for @p workload. */
Json
shardFor(const Json &attribution, const std::string &workload)
{
    const Json &shards = attribution.at("shards");
    for (std::size_t i = 0; i < shards.size(); ++i)
        if (shards.at(i).at("workload").asString() == workload)
            return shards.at(i);
    ADD_FAILURE() << "no attribution entry for " << workload;
    return Json();
}

/** Assert the lifetime dispatch ledger balances and matches. */
void
expectLedger(Coordinator &coord, std::int64_t dispatched,
             std::int64_t completed, std::int64_t cancelled)
{
    const Json stats = coord.statsJson();
    EXPECT_EQ(stats.at("shards_dispatched").asInt(), dispatched);
    EXPECT_EQ(stats.at("shards_completed").asInt(), completed);
    EXPECT_EQ(stats.at("shards_cancelled").asInt(), cancelled);
    EXPECT_EQ(dispatched, completed + cancelled);
}

} // namespace

// ---------------------------------------------------------------
// Fleet fabric
// ---------------------------------------------------------------

TEST(Fleet, TwoWorkerCampaignIsBitIdenticalToDirectSweep)
{
    TestFleet fleet(2);
    const serve::SubmitRequest req =
        campaignFor("xsbench,spmv", 0.02, "DECTED,Killi 1:256");
    CancelToken cancel;
    std::atomic<unsigned> pointsDone{0};
    Json attribution;
    const Json doc = fleet.coord->runCampaign(
        1, req, cancel,
        [&](const SweepProgress &p) {
            if (p.pointDone)
                pointsDone.fetch_add(1);
        },
        &attribution);

    // The merged document against a direct in-process run of the
    // full campaign: the per-workload result arrays and the sweep
    // header must be byte-identical (the PR's acceptance bar).
    const SweepResult res = runEvaluationSweep(req.sopt);
    const Json direct = sweepToJson(req.sopt, res);
    EXPECT_EQ(doc.at("workloads").toString(0),
              direct.at("workloads").toString(0));
    EXPECT_EQ(doc.at("sweep").toString(0),
              direct.at("sweep").toString(0));
    EXPECT_EQ(doc.at("bench").asString(), "kserved");
    EXPECT_EQ(doc.at("options").toString(0),
              serve::resolvedOptionsJson(req.sopt).toString(0));

    // One synthesized point-done event per shard.
    EXPECT_EQ(pointsDone.load(), 2u);

    // Each shard was computed by one of the two workers.
    EXPECT_EQ(attribution.at("workers").asInt(), 2);
    for (const char *wl : {"xsbench", "spmv"}) {
        const Json shard = shardFor(attribution, wl);
        const std::string worker = shard.at("worker").asString();
        EXPECT_TRUE(worker == "w0" || worker == "w1") << worker;
        EXPECT_EQ(shard.at("origin").asString(), "computed");
    }
    expectLedger(*fleet.coord, 2, 2, 0);

    // The kfleet_* families are live in the registry.
    const std::string prom = fleet.registry.prometheusText();
    EXPECT_NE(prom.find("kfleet_workers"), std::string::npos);
    EXPECT_NE(prom.find("kfleet_shard_seconds"), std::string::npos);
}

TEST(Fleet, FailedDispatchIsRetriedOnAnotherWorker)
{
    FleetOptions fopt;
    // One slot per worker, so w1 cannot pop both shards before w0's
    // dispatcher takes one; a short connect budget makes the
    // stopped w0 fail fast.
    fopt.slotsPerWorker = 1;
    fopt.connectTimeoutSeconds = 0.3;
    TestFleet fleet(2, std::move(fopt));
    fleet.workers[0]->stop();

    const serve::SubmitRequest req = campaignFor("xsbench,spmv");
    CancelToken cancel;
    Json attribution;
    const Json doc = fleet.coord->runCampaign(
        1, req, cancel, serve::FleetProgressFn(), &attribution);

    // Whatever w0 popped was re-queued away from it, so both shards
    // settled on w1, and the result is still the direct sweep's.
    for (const char *wl : {"xsbench", "spmv"})
        EXPECT_EQ(shardFor(attribution, wl).at("worker").asString(),
                  "w1");
    const SweepResult res = runEvaluationSweep(req.sopt);
    EXPECT_EQ(doc.at("workloads").toString(0),
              sweepToJson(req.sopt, res).at("workloads").toString(0));

    const Json stats = fleet.coord->statsJson();
    EXPECT_GE(stats.at("worker_rejections").asInt(), 1);
    // Connect failures never reach a submitted frame, so only the
    // two dispatches on w1 enter the ledger.
    expectLedger(*fleet.coord, 2, 2, 0);
}

TEST(Fleet, RepeatCampaignHitsTheWorkerCache)
{
    TestFleet fleet(1);
    const serve::SubmitRequest req = campaignFor("xsbench");
    CancelToken cancel;
    Json attr1;
    const Json doc1 = fleet.coord->runCampaign(
        1, req, cancel, serve::FleetProgressFn(), &attr1);
    EXPECT_EQ(shardFor(attr1, "xsbench").at("origin").asString(),
              "computed");

    // Same campaign again: the sole worker already holds the shard,
    // so the dispatch is a worker-side cache hit.
    Json attr2;
    const Json doc2 = fleet.coord->runCampaign(
        2, req, cancel, serve::FleetProgressFn(), &attr2);
    EXPECT_EQ(shardFor(attr2, "xsbench").at("origin").asString(),
              "cache-hit");
    EXPECT_EQ(doc1.at("workloads").toString(0),
              doc2.at("workloads").toString(0));

    expectLedger(*fleet.coord, 2, 2, 0);
}

TEST(Fleet, StartFailsWhenAWorkerIsUnreachable)
{
    FleetOptions fopt;
    WorkerEndpoint ep;
    ep.socketPath = "/tmp/kfleet-test-unreachable.sock";
    fopt.workers.push_back(ep);
    fopt.connectTimeoutSeconds = 0.3;
    Coordinator coord(std::move(fopt));
    std::string err;
    EXPECT_FALSE(coord.start(&err));
    EXPECT_NE(err.find("w0"), std::string::npos) << err;
}

TEST(Fleet, StartFailsWithNoWorkers)
{
    Coordinator coord(FleetOptions{});
    std::string err;
    EXPECT_FALSE(coord.start(&err));
    EXPECT_NE(err.find("no workers"), std::string::npos) << err;
}
