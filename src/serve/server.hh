/**
 * @file
 * kserved: the experiment-serving daemon. One epoll reactor thread
 * owns the listening socket, every client connection, and the
 * /metrics HTTP plane. Experiment sweeps run on the JobScheduler's
 * worker threads and communicate back to the reactor only by
 * appending encoded frames to a connection's chunked outbox and
 * tickling the reactor's wake pipe; outboxes drain with writev() so
 * queued frames leave in one syscall without being recopied into a
 * flat buffer.
 *
 * Request lifecycle (see SERVING.md for the full protocol grammar):
 * a "submit" frame is validated, canonicalized into a cache key, and
 * answered either straight from the content-addressed ResultCache
 * (submitted + result{cached:true}, byte-identical to the original
 * reply) or by scheduling a sweep job (submitted, then streamed
 * "progress" frames while it runs, then exactly one terminal
 * "result" frame with outcome done/failed/cancelled/rejected).
 *
 * Admission control: beyond the scheduler's bounded queue
 * (queue_full), maxConns bounds concurrent connections — excess
 * accepts are answered with an "overloaded" error frame and closed,
 * so a barrage degrades into explicit backpressure instead of fd
 * exhaustion.
 *
 * Graceful drain — SIGINT/SIGTERM via requestDrain(), or a client
 * "drain" frame — stops accepting connections and submits, cancels
 * everything still queued (outcome "cancelled", error "draining"),
 * lets in-flight sweeps finish, flushes every outbox, and only then
 * exits the reactor loop (unlinking the Unix socket).
 */

#ifndef KILLI_SERVE_SERVER_HH
#define KILLI_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/json.hh"
#include "metrics/metrics.hh"
#include "serve/cache.hh"
#include "serve/protocol.hh"
#include "serve/scheduler.hh"
#include "serve/submit.hh"
#include "serve/warm_store.hh"

namespace killi::serve
{

struct ServerOptions
{
    /** Unix-domain socket path; preferred. Any stale file at the
     *  path is unlinked before binding. Empty selects TCP. */
    std::string socketPath;
    /** TCP port on 127.0.0.1 when socketPath is empty (0 binds an
     *  ephemeral port — read it back with boundPort()). */
    std::uint16_t port = 0;
    /** Scheduler worker threads (0 = all hardware threads). */
    unsigned threads = 0;
    /** Ready-queue bound; submits beyond it are rejected. */
    std::size_t maxQueue = 64;
    /** Concurrent-connection bound; accepts beyond it are answered
     *  with an "overloaded" error frame and closed. 0 = unbounded. */
    std::size_t maxConns = 0;
    /** Result-cache capacity (entries). */
    std::size_t cacheEntries = 1024;
    /** Warm-state store bound (MiB of resident payload; fault
     *  populations shared across jobs of the same die). 0 disables
     *  warm sharing — every sweep point samples cold. */
    std::size_t warmStoreMb = 256;
    /** Serve plain-HTTP GET /metrics (Prometheus text) on
     *  127.0.0.1:metricsPort (0 binds an ephemeral port — read it
     *  back with metricsBoundPort()). */
    bool metricsHttp = false;
    std::uint16_t metricsPort = 0;
    /** Jobs slower than this get a structured warn() line with their
     *  stage breakdown and cache key; 0 disables. */
    double slowJobSeconds = 0.0;
};

class Server
{
  public:
    explicit Server(ServerOptions opt);

    /** Drains and joins; safe if start() was never called. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind, listen, and launch the reactor thread. Returns false
     *  and fills @p err on socket errors. Call at most once. */
    bool start(std::string *err);

    /**
     * Begin a graceful drain. Async-signal-safe (an atomic store
     * plus a write() to the reactor's wake pipe), so kserved calls
     * this straight from its SIGINT/SIGTERM handler. Idempotent.
     */
    void requestDrain();

    /** Block until the reactor has fully drained and exited. */
    void waitDone();

    /** requestDrain() + waitDone(), for tests and embedders. */
    void stop();

    /** Resolved TCP port (valid after start() in TCP mode). */
    std::uint16_t boundPort() const { return portBound; }

    /** Resolved /metrics HTTP port (valid after start() when
     *  metricsHttp is on). */
    std::uint16_t metricsBoundPort() const { return metricsPortBound; }

    const std::string &socketPath() const { return opt.socketPath; }

    /** The stats_reply body: scheduler depth, cache hit rate,
     *  per-outcome counters, and p50/p99 submit-to-finish latency. */
    Json statsJson();

    /** The operational metrics plane (also served via the `metrics`
     *  frame and GET /metrics). */
    metrics::MetricsRegistry &metrics() { return registry; }

  private:
    /**
     * One client connection. The reactor owns fd, decoder, and all
     * socket reads/writes; scheduler workers only append to the
     * outbox (under mtx) and never touch the socket, so a closed
     * connection simply drops late frames instead of racing on fd
     * reuse. The outbox is a deque of encoded frames drained with
     * writev() — frames are moved in and gathered out, never
     * concatenated.
     */
    struct Connection
    {
        int fd = -1;
        FrameDecoder decoder;
        std::mutex mtx;
        /** Encoded frames awaiting the socket; front is partially
         *  written up to outOff. */
        std::deque<std::string> outq;
        std::size_t outOff = 0;
        bool closeAfterFlush = false;
        std::atomic<bool> closed{false};
        /** Collapses redundant worker wakeups: set by the first
         *  enqueuer, cleared by the reactor when it services the
         *  pending list. */
        std::atomic<bool> notified{false};
        /** EPOLLOUT currently armed (reactor only). */
        bool outArmed = false;

        void
        enqueue(std::string bytes)
        {
            std::lock_guard<std::mutex> lock(mtx);
            if (!closed.load(std::memory_order_relaxed))
                outq.push_back(std::move(bytes));
        }

        bool
        pendingOut()
        {
            std::lock_guard<std::mutex> lock(mtx);
            return !outq.empty();
        }
    };

    /**
     * Per-job lifecycle span durations (seconds). The six stages
     * tile the submit-to-reply interval: decode (frame parse +
     * validation + canonicalization, I/O thread), queue (admission
     * to execution start), setup (work-lambda preamble), run (the
     * sweep), serialize (result document to text), reply (result
     * delivery, computed as the remainder at finish time) — so the
     * stage sum equals the end-to-end latency by construction.
     * Written by the reactor (decode) before admission and by the
     * one worker thread that runs the job after; never concurrently.
     */
    struct JobSpans
    {
        std::chrono::steady_clock::time_point submit;
        /** End of the serialize stage (reply = finish − this). */
        std::chrono::steady_clock::time_point serializeEnd;
        double decode = 0;
        double queue = 0;
        double setup = 0;
        double run = 0;
        double serialize = 0;
        double reply = 0;

        /** {"decode_s":..., ..., "total_s":...} */
        Json toJson(double totalSeconds) const;
    };

    /** Book-keeping for one admitted (non-cached) job. */
    struct JobRecord
    {
        std::shared_ptr<Connection> conn;
        std::string canonicalKey;
        std::string hash;
        std::chrono::steady_clock::time_point start;
        std::shared_ptr<JobSpans> spans;
    };

    /** One /metrics HTTP client (reactor-only; no locking). */
    struct HttpConn
    {
        int fd = -1;
        std::string in;
        std::string out;
        bool outArmed = false;
    };

    void reactorLoop();
    /** Write one byte into the reactor's wake pipe. */
    void wakeReactor() const;
    /** Hand @p conn to the reactor for flushing (worker side of the
     *  outbox). Deduplicated via Connection::notified. */
    void notifyConn(const std::shared_ptr<Connection> &conn);
    void acceptClients();
    void readFromClient(const std::shared_ptr<Connection> &conn);
    void flushToClient(const std::shared_ptr<Connection> &conn);
    /** flushToClient + (dis)arm EPOLLOUT to match what is left. */
    void flushAndArm(const std::shared_ptr<Connection> &conn);
    void closeConnection(const std::shared_ptr<Connection> &conn);
    /** Counted outbox append: every protocol frame leaves through
     *  here so frames-sent/outbox-bytes stay exact. */
    void enqueueFrame(const std::shared_ptr<Connection> &conn,
                      std::string bytes);
    void handleFrame(const std::shared_ptr<Connection> &conn,
                     const Json &req);
    void handleSubmit(const std::shared_ptr<Connection> &conn,
                      const Json &req);
    void finishJob(std::uint64_t id, JobState state,
                   const std::string &resultText,
                   const std::string &error);
    void acceptMetricsClients();
    /** Read/answer one /metrics client; returns false once the
     *  connection should be dropped. */
    bool serviceMetricsConn(HttpConn &conn, bool readable, bool error);
    void registerServerMetrics();
    /** Post-join teardown: listen/metrics/epoll/wake fds, socket file,
     *  cache + warm store. Runs exactly once. */
    void cleanupAfterJoin();

    ServerOptions opt;
    /** Declared before scheduler/cache/warm: all three register
     *  callback instruments into it at construction. */
    metrics::MetricsRegistry registry;
    JobScheduler scheduler;
    ResultCache cache;
    WarmStore warm;

    // Reactor state: the thread and its epoll set, wake pipe, and
    // connections are touched by the reactor thread only, except
    // pending (under pendingMtx) and the wake pipe's write end.
    std::thread reactor;
    int listenFd = -1;
    int metricsFd = -1;
    int epollFd = -1;
    int wakeFd[2] = {-1, -1};
    std::unordered_map<int, std::shared_ptr<Connection>> connByFd;
    std::unordered_map<int, HttpConn> httpByFd;
    /** Connections with freshly enqueued frames, handed over by
     *  scheduler workers. */
    std::mutex pendingMtx;
    std::vector<std::shared_ptr<Connection>> pending;
    bool draining = false;
    std::uint16_t portBound = 0;
    std::uint16_t metricsPortBound = 0;
    std::atomic<bool> started{false};
    std::atomic<bool> drainFlag{false};
    std::atomic<bool> cleanedUp{false};

    std::mutex jobsMtx;
    std::map<std::uint64_t, JobRecord> jobs;
    std::atomic<std::uint64_t> nextJobId{1};

    std::chrono::steady_clock::time_point bootTime;
    std::atomic<std::int64_t> activeConns{0};

    // Server-plane instruments (registered in registerServerMetrics;
    // never null after construction).
    metrics::Counter *mConnections = nullptr;
    metrics::Counter *mConnsRejected = nullptr;
    metrics::Counter *mFramesIn = nullptr;
    metrics::Counter *mFramesOut = nullptr;
    metrics::Counter *mProtocolErrors = nullptr;
    metrics::Counter *mOutboxBytes = nullptr;
    metrics::Counter *mHttpRequests = nullptr;
    metrics::Counter *mWakeups = nullptr;
    metrics::Counter *mSlowJobs = nullptr;
    metrics::Counter *mJobsDone = nullptr;
    metrics::Counter *mJobsFailed = nullptr;
    metrics::Counter *mJobsCancelled = nullptr;
    metrics::Counter *mJobsRejected = nullptr;
    /** End-to-end submit-to-finish latency (cache hits observe 0 s,
     *  same convention as the stats_reply ever had). */
    metrics::Histogram *mJobSeconds = nullptr;
    /** kserved_job_stage_seconds{stage=...}, indexed like
     *  kStageNames. */
    metrics::Histogram *mStageSeconds[6] = {};
};

} // namespace killi::serve

#endif // KILLI_SERVE_SERVER_HH
