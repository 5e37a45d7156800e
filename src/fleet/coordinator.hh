/**
 * @file
 * kfleet: sharded campaign fabric. A Coordinator owns a set of
 * kserved workers — endpoints handed in, or local processes it
 * spawns itself — and implements serve::FleetRunner: a submitted
 * campaign is split into one shard per workload (the shard's cache
 * key is exactly what a direct submit of that workload subset would
 * canonicalize to, so worker result caches compose with normal
 * traffic), and the shards join one fleet-wide FIFO.
 *
 * start() launches a fixed pool of slotsPerWorker dispatcher threads
 * per worker; each pops the oldest queued shard of any campaign and
 * drives it over the ordinary kserve frame protocol. A worker holds
 * at most its slot count of dispatches, so concurrent campaigns
 * share the fleet by arrival order without any placement policy. A
 * failed dispatch re-queues its shard, which the worker it just
 * failed on does not retake while another worker exists; after
 * maxShardAttempts dispatches the campaign fails.
 *
 * Shard results merge by concatenating the per-workload "workloads"
 * arrays in campaign order. runEvaluationSweep() pre-sizes its
 * result slots, so a workload's entry is independent of what else
 * ran in the same process — the merged document is bit-identical to
 * a single-process run of the full campaign by construction (CI
 * diffs the two and the committed fig4 golden).
 *
 * Accounting invariant, checked by tools/check_metrics.py at drain:
 * kfleet_shards_dispatched_total == kfleet_shards_completed_total +
 * kfleet_shards_cancelled_total. Every dispatch that reached the
 * "submitted" frame ends in exactly one of the two buckets (worker
 * failures, transport deaths and campaign cancellation count as
 * cancelled). Pre-submit rejections are a separate family and never
 * enter the invariant.
 */

#ifndef KILLI_FLEET_COORDINATOR_HH
#define KILLI_FLEET_COORDINATOR_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/types.h>

#include "common/json.hh"
#include "metrics/metrics.hh"
#include "serve/server.hh"

namespace killi::serve
{
class Client;
}

namespace killi::fleet
{

/** One worker endpoint: a Unix socket path, or (when empty) a TCP
 *  port on 127.0.0.1. */
struct WorkerEndpoint
{
    std::string socketPath;
    std::uint16_t port = 0;
};

struct FleetOptions
{
    /** Explicit worker endpoints (already-running kserved). */
    std::vector<WorkerEndpoint> workers;
    /** Local kserved processes to spawn (appended after the
     *  explicit endpoints). */
    unsigned spawnWorkers = 0;
    /** kserved binary for spawnWorkers. */
    std::string workerBin;
    /** Directory receiving spawned workers' w<i>.sock sockets. */
    std::string spawnDir = ".";
    /** threads= for spawned workers. */
    unsigned workerThreads = 1;
    /** Extra flags appended to each spawned worker's command line
     *  (e.g. "debug-job-delay-ms=500" to emulate service time). */
    std::vector<std::string> workerExtraArgs;
    /** Dispatcher threads per worker (its concurrent dispatches). */
    unsigned slotsPerWorker = 2;
    /** Per-worker connect budget (retries with backoff inside). */
    double connectTimeoutSeconds = 10.0;
    /** Attempts per shard before the campaign fails. */
    unsigned maxShardAttempts = 3;
    /** Registry receiving the kfleet_* families; may be null. */
    metrics::MetricsRegistry *registry = nullptr;
};

class Coordinator
{
  public:
    explicit Coordinator(FleetOptions options);

    /** Shuts down spawned workers (drain, then SIGTERM). */
    ~Coordinator();

    Coordinator(const Coordinator &) = delete;
    Coordinator &operator=(const Coordinator &) = delete;

    /** Spawn local workers (if requested), ping every endpoint, and
     *  launch the dispatcher pool. False + err when any worker is
     *  unreachable. */
    bool start(std::string *err);

    std::size_t workerCount() const { return endpoints.size(); }

    /**
     * The serve::FleetRunner entry point (after a successful
     * start()): run @p req as a sharded campaign and return the
     * merged result document. Throws
     * std::runtime_error when a shard exhausts its attempts;
     * returns early (partial doc, discarded by the server) once
     * @p cancel trips. Fills @p attribution with the per-shard
     * worker/origin table that rides the result frame's "fleet"
     * sibling.
     */
    Json runCampaign(std::uint64_t jobId,
                     const serve::SubmitRequest &req,
                     const CancelToken &cancel,
                     const serve::FleetProgressFn &progress,
                     Json *attribution);

    /** In-flight per-job dispatch state for status_reply (null when
     *  @p jobId has no active campaign). */
    Json statusJson(std::uint64_t jobId);

    /** The stats_reply "fleet" member: worker count plus the
     *  lifetime kfleet_* counter values. */
    Json statsJson();

    /** Join the dispatcher pool, then drain and reap the spawned
     *  workers. Idempotent. */
    void shutdownWorkers();

  private:
    struct Shard;
    struct Campaign;
    /** One fleet-wide queue entry. */
    struct Queued
    {
        Campaign *camp;
        Shard *shard;
    };

    void registerFleetMetrics();
    bool spawnWorker(std::size_t idx, std::string *err);
    /** Connect to endpoint @p w with the configured retry budget. */
    bool connectWorker(std::size_t w, serve::Client &client,
                       std::string *err);
    /** One dispatcher slot of worker @p w: pop shards from the
     *  fleet-wide queue until shutdownWorkers(). */
    void dispatchLoop(std::size_t w);
    /** Drive one dispatch of @p shard on worker @p w to a terminal
     *  state. */
    void runDispatch(Campaign &camp, Shard &shard, std::size_t w);
    /** Re-queue @p shard after a failed dispatch on @p w, or fail the
     *  campaign once its attempt budget is spent. */
    void retryOrFail(Campaign &camp, Shard &shard, std::size_t w,
                     const std::string &why);
    /** Accept @p result for @p shard from worker @p w. */
    void settleShard(Campaign &camp, Shard &shard, std::size_t w,
                     const char *origin, Json result);

    FleetOptions opt;
    std::vector<WorkerEndpoint> endpoints;
    /** Names aligned with endpoints ("w0", "w1", ...). */
    std::vector<std::string> workerNames;
    std::vector<pid_t> spawnedPids;
    std::atomic<bool> workersDown{false};

    /** Guards the queue, every campaign's shard state, and active. */
    std::mutex mtx;
    /** Dispatchers wait here for queued shards. */
    std::condition_variable queueCv;
    /** runCampaign() waits here for its shards to settle. */
    std::condition_variable settledCv;
    std::deque<Queued> queue;
    std::vector<std::thread> dispatchers;
    bool stopping = false;
    /** Active campaigns by front-end job id (statusJson). */
    std::map<std::uint64_t, Campaign *> active;

    // kfleet_* instruments; null without a registry. Every bump goes
    // through bump(), which mirrors it into the matching Tally field
    // for statsJson().
    metrics::Counter *mCampaigns = nullptr;
    metrics::Counter *mDispatched = nullptr;
    metrics::Counter *mCompleted = nullptr;
    metrics::Counter *mCancelled = nullptr;
    metrics::Counter *mRejections = nullptr;
    metrics::Histogram *mShardSeconds = nullptr;

    struct Tally
    {
        std::atomic<std::uint64_t> campaigns{0};
        std::atomic<std::uint64_t> dispatched{0};
        std::atomic<std::uint64_t> completed{0};
        std::atomic<std::uint64_t> cancelled{0};
        std::atomic<std::uint64_t> rejections{0};
    } tally;
};

} // namespace killi::fleet

#endif // KILLI_FLEET_COORDINATOR_HH
