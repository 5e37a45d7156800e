/**
 * @file
 * serve_mix: kserved (threads=2, otherwise default options) on a Unix
 * socket, driven by a closed loop of four client connections from this
 * one process (the main thread plus three workers).
 *
 * Every job is a sweep at scale=0.02, warmup=0 over xsbench,spmv and
 * two scheme columns (6 points). The jobs come in three categories,
 * interleaved so that at every position of a round the four clients
 * submit two hits, one warm and one cold job:
 *
 *  - hit:  one of six result-cache keys warmed during set-up;
 *  - warm: a die already in the daemon's warm store (the die of the
 *          same client's latest cold job) with a scheme pair not asked
 *          before, so the result cache misses and the warm store hits;
 *  - cold: a new die, the scenario class rotating iid, clustered, burst.
 *
 * A round is four jobs per client; the clients wait for each other
 * between rounds, so a round is a fixed batch of 16 jobs and wall_s is
 * its median makespan. The operation of op_ms_* is the cold job. After
 * the loop every reply is compared with the same options computed in
 * process.
 */

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <fstream>
#include <map>
#include <spawn.h>
#include <thread>

#include "bench/sweep.hh"
#include "common/hash.hh"
#include "perfbench/points.hh"
#include "serve/client/client.hh"

extern char **environ;

namespace kbench
{

using namespace killi;

namespace
{

constexpr unsigned kClients = 4;
/** Six ~45 MB dies fill the daemon's default 256 MiB warm store, so
 *  the loop starts in the steady state where every cold die evicts
 *  the least recently used one. */
constexpr unsigned kHitKeys = 6;
const std::vector<std::string> kWorkloads = {"xsbench", "spmv"};
const std::vector<std::string> kHitSchemes = {"DECTED", "Killi 1:256"};
const char *const kColdClasses[] = {"iid", "clustered", "burst"};

enum class Category { Hit, Warm, Cold };

const char *
categoryName(Category c)
{
    return c == Category::Hit ? "hit" : c == Category::Warm ? "warm" : "cold";
}

/** The category sequence of one client in one round; client c starts
 *  at offset c, so each position mixes two hits, one warm, one cold. */
Category
categoryAt(unsigned client, unsigned pos)
{
    static const Category pattern[] = {Category::Hit, Category::Warm,
                                       Category::Hit, Category::Cold};
    return pattern[(pos + client) % 4];
}

/** The spawned daemon; stopped (drained, or killed) on destruction. */
class Daemon
{
  public:
    Daemon(const std::string &socket, const std::string &logPath)
    {
        unlink(socket.c_str());
        std::vector<std::string> args = {KBENCH_KSERVED, "socket=" + socket,
                                         "threads=2"};
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_addopen(&fa, 1, logPath.c_str(),
                                         O_WRONLY | O_CREAT | O_APPEND,
                                         0644);
        posix_spawn_file_actions_adddup2(&fa, 1, 2);
        if (posix_spawn(&pid, KBENCH_KSERVED, &fa, nullptr, argv.data(),
                        environ) != 0)
            pid = -1;
        posix_spawn_file_actions_destroy(&fa);
    }

    ~Daemon() { stop(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    bool running() const { return pid > 0; }

    /** Peak resident set of the daemon so far, MiB (0 if unknown). */
    double peakRssMb() const
    {
        std::ifstream in("/proc/" + std::to_string(pid) + "/status");
        std::string line;
        while (std::getline(in, line)) {
            if (line.rfind("VmHWM:", 0) == 0)
                return std::stod(line.substr(6)) / 1024.0; // kB
        }
        return 0.0;
    }

    /** Graceful drain (SIGTERM); SIGKILL if it has not exited within
     *  ten seconds. True iff the daemon exited with status 0. */
    bool stop()
    {
        if (pid <= 0)
            return true;
        kill(pid, SIGTERM);
        int status = 0;
        bool exited = false;
        for (int i = 0; i < 1000 && !exited; ++i) {
            const pid_t r = waitpid(pid, &status, WNOHANG);
            if (r == pid)
                exited = true;
            else
                usleep(10000);
        }
        if (!exited) {
            kill(pid, SIGKILL);
            waitpid(pid, &status, 0);
        }
        pid = -1;
        return exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }

  private:
    pid_t pid = -1;
};

Json
stringArray(const std::vector<std::string> &v)
{
    Json a = Json::array();
    for (const std::string &s : v)
        a.push(Json::string(s));
    return a;
}

Json
submitFrame(const JobOptions &job, double scale)
{
    Json options = Json::object();
    options.set("scale", Json::number(scale));
    options.set("warmup", Json::number(std::uint64_t{0}));
    options.set("scenario", job.scenario.toJson());
    options.set("workloads", stringArray(job.workloads));
    options.set("schemes", stringArray(job.schemes));
    Json req = Json::object();
    req.set("type", Json::string("submit"));
    req.set("options", std::move(options));
    req.set("stream", Json::boolean(false));
    return req;
}

struct JobRecord
{
    Category category = Category::Hit;
    std::size_t options = 0; //!< index into the run's distinct options
    double ms = 0.0;
    bool ok = false;
    std::string error;
    Json workloads; //!< the reply's result.workloads
};

/** Counter, gauge and histogram values of one `metrics` reply, keyed
 *  by family name (label sets summed). */
struct MetricsSnapshot
{
    std::map<std::string, double> value;
    std::map<std::string, std::map<std::string, std::pair<double, double>>>
        histogram; //!< family -> label text -> (sum, count)

    double get(const std::string &name) const
    {
        const auto it = value.find(name);
        return it == value.end() ? 0.0 : it->second;
    }
};

bool
takeSnapshot(serve::Client &client, MetricsSnapshot &snap, std::string *err)
{
    Json req = Json::object();
    req.set("type", Json::string("metrics"));
    Json reply;
    if (!client.send(req, err) || !client.recv(reply, err))
        return false;
    if (!reply.contains("metrics")) {
        *err = "no metrics in the reply";
        return false;
    }
    const Json &fams = reply.at("metrics").at("families");
    for (std::size_t i = 0; i < fams.size(); ++i) {
        const Json &fam = fams.at(i);
        const std::string &name = fam.at("name").asString();
        const Json &ms = fam.at("metrics");
        for (std::size_t j = 0; j < ms.size(); ++j) {
            const Json &m = ms.at(j);
            if (m.contains("value")) {
                snap.value[name] += m.at("value").asDouble();
            } else {
                snap.histogram[name][m.at("labels").toString(0)] = {
                    m.at("sum").asDouble(), m.at("count").asDouble()};
            }
        }
    }
    return true;
}

/** The inputs of one run, all derived from the seed. */
class JobPlan
{
  public:
    explicit JobPlan(std::uint64_t seed) : seed(seed)
    {
        const std::vector<std::string> names = sweepSchemeNames();
        for (std::size_t a = 0; a < names.size(); ++a) {
            for (std::size_t b = a + 1; b < names.size(); ++b) {
                if (std::vector<std::string>{names[a], names[b]} != kHitSchemes)
                    warmPairs.push_back({names[a], names[b]});
            }
        }
        for (unsigned k = 0; k < kHitKeys; ++k)
            hitKeys.push_back(add(die("iid", 100 + k), kHitSchemes));
    }

    std::size_t hit(unsigned round, unsigned client, unsigned pos) const
    {
        return hitKeys[(round + client + pos) % kHitKeys];
    }

    std::size_t cold(unsigned round, unsigned client)
    {
        const unsigned n = round * kClients + client;
        const std::size_t idx =
            add(die(kColdClasses[n % 3], 1000 + n), kHitSchemes);
        lastCold[client] = idx;
        return idx;
    }

    /** The die of this client's latest cold job (before its first,
     *  hit die `client`): at most four other dies have entered the
     *  warm store since, so it is still resident. */
    std::size_t warm(unsigned round, unsigned client)
    {
        const auto it = lastCold.find(client);
        const ScenarioSpec sc = it != lastCold.end()
            ? jobs[it->second].scenario
            : jobs[hitKeys[client]].scenario;
        return add(sc, warmPairs[(round * kClients + client) %
                                 warmPairs.size()]);
    }

    const std::vector<JobOptions> &all() const { return jobs; }
    const std::vector<std::size_t> &hits() const { return hitKeys; }

  private:
    ScenarioSpec die(const char *model, std::uint64_t stream) const
    {
        ScenarioSpec sc;
        sc.model = model;
        sc.seed = deriveSeed(seed, stream);
        return sc;
    }

    std::size_t add(const ScenarioSpec &sc,
                    const std::vector<std::string> &schemes)
    {
        jobs.push_back({sc, kWorkloads, schemes});
        return jobs.size() - 1;
    }

    std::uint64_t seed;
    std::vector<std::vector<std::string>> warmPairs;
    std::vector<JobOptions> jobs; // distinct job options, by index
    std::vector<std::size_t> hitKeys;
    std::map<unsigned, std::size_t> lastCold;
};

/** Submit one job and wait for its result. */
JobRecord
runJob(serve::Client &client, const JobPlan &plan, std::size_t idx,
       Category cat, double scale, Tracer *tracer)
{
    JobRecord rec;
    rec.category = cat;
    rec.options = idx;
    const Json req = submitFrame(plan.all()[idx], scale);
    Json terminal;
    std::string err;
    const auto t0 = Clock::now();
    bool sent = false;
    {
        Span s(tracer, "serve.job", 0,
               std::string(categoryName(cat)) + "#" + std::to_string(idx));
        sent = client.submit(req, terminal, {}, &err);
    }
    rec.ms = secondsSince(t0) * 1e3;
    if (!sent) {
        rec.error = "transport: " + err;
        return rec;
    }
    if (!terminal.contains("outcome") ||
        terminal.at("outcome").asString() != "done") {
        rec.error = "outcome " +
            (terminal.contains("outcome") ? terminal.at("outcome").asString()
                                          : terminal.toString(0));
        return rec;
    }
    const bool cached = terminal.at("cached").asBool();
    if (cached != (cat == Category::Hit)) {
        rec.error = std::string(categoryName(cat)) + " job came back cached=" +
            (cached ? "true" : "false");
        return rec;
    }
    rec.workloads = terminal.at("result").at("workloads");
    rec.ok = true;
    return rec;
}

/** Run @p fn(client) on every client at once: client 0 on this
 *  thread, the others on one thread each. */
template <typename Fn>
void
onAllClients(Fn fn)
{
    std::vector<std::thread> threads;
    for (unsigned c = 1; c < kClients; ++c)
        threads.emplace_back([&fn, c] { fn(c); });
    fn(0);
    for (std::thread &t : threads)
        t.join();
}

struct Lifecycle
{
    std::unique_ptr<Daemon> daemon;
    std::vector<std::unique_ptr<serve::Client>> clients;
    double setupSeconds = 0.0;
    std::vector<JobRecord> prewarm;
};

/** Spawn the daemon, wait for its first reply, connect the clients
 *  and pre-warm the hit keys: everything before the first timed job. */
bool
startLifecycle(Lifecycle &lc, const std::string &socket,
               const std::string &log, const JobPlan &plan, double scale,
               Tracer *tracer, Report &report)
{
    const auto t0 = Clock::now();
    lc.daemon = std::make_unique<Daemon>(socket, log);
    if (!lc.daemon->running()) {
        report.fail("serve_mix: could not spawn kserved");
        return false;
    }
    for (unsigned c = 0; c < kClients; ++c)
        lc.clients.push_back(std::make_unique<serve::Client>());
    serve::ConnectOptions boot;
    boot.attempts = 400;
    boot.timeoutMs = 1000;
    boot.backoffMs = 2;
    boot.maxBackoffMs = 5;
    std::string err;
    Json ping = Json::object();
    ping.set("type", Json::string("ping"));
    Json pong;
    if (!lc.clients[0]->connectUnix(socket, boot, &err) ||
        !lc.clients[0]->send(ping, &err) || !lc.clients[0]->recv(pong, &err) ||
        !pong.contains("type") || pong.at("type").asString() != "pong") {
        report.fail("serve_mix: no first reply from kserved: " + err);
        return false;
    }
    for (unsigned c = 1; c < kClients; ++c) {
        Span s(tracer, "serve.connect", 0, "client" + std::to_string(c));
        if (!lc.clients[c]->connectUnix(socket, &err)) {
            report.fail("serve_mix: connect failed: " + err);
            return false;
        }
    }
    // Hit dies 0..3 go last, so they are the most recently used when
    // the first round's warm jobs adopt them.
    for (const unsigned first : {kClients, 0u}) {
        const unsigned count = first ? kHitKeys - kClients : kClients;
        std::vector<JobRecord> wave(count);
        onAllClients([&](unsigned c) {
            if (c < count)
                wave[c] = runJob(*lc.clients[c], plan, plan.hits()[first + c],
                                 Category::Cold, scale, nullptr);
        });
        lc.prewarm.insert(lc.prewarm.end(), wave.begin(), wave.end());
    }
    lc.setupSeconds = secondsSince(t0);
    for (const JobRecord &r : lc.prewarm) {
        if (!r.ok) {
            report.fail("serve_mix: pre-warm failed: " + r.error);
            return false;
        }
    }
    return true;
}

double
categoryQuantile(const std::vector<JobRecord> &jobs, Category cat, double q)
{
    std::vector<double> ms;
    for (const JobRecord &r : jobs) {
        if (r.category == cat && r.ok)
            ms.push_back(r.ms);
    }
    return quantile(ms, q);
}

} // namespace

void
runServeMixWorkload(const RunArgs &args, Report &report)
{
    const double scale = args.shape.serveScale;
    const std::string socket = args.outDir + "/kserved-" +
        std::to_string(getpid()) + ".sock";
    const std::string log = args.outDir + "/kserved.log";
    std::unique_ptr<Tracer> tracer;
    if (args.trace)
        tracer = std::make_unique<Tracer>();

    JobPlan plan(args.seed);
    Lifecycle lc;
    if (!startLifecycle(lc, socket, log, plan, scale, tracer.get(), report))
        return;
    report.attempted += kHitKeys;
    std::vector<JobRecord> done = lc.prewarm;
    // The hit keys' results are fixed by the seed alone.
    std::string hitResults;
    for (const JobRecord &r : lc.prewarm)
        hitResults += r.workloads.toString(0);
    report.digest = sha256Hex(hitResults);

    MetricsSnapshot before, after;
    std::string err;
    if (!takeSnapshot(*lc.clients[0], before, &err))
        report.fail("serve_mix: metrics snapshot failed: " + err);

    // The closed loop. Traced runs alternate untraced and traced rounds
    // so their difference is the tracing overhead.
    std::vector<double> allRounds, rounds, tracedRounds;
    std::vector<JobRecord> loopJobs;
    const auto start = Clock::now();
    for (unsigned round = 0;
         anotherRep(start, args.seconds, allRounds) ||
         (args.trace && tracedRounds.empty());
         ++round) {
        const bool tracedRound = args.trace && round % 2 == 1;
        std::vector<std::vector<std::size_t>> seq(kClients);
        for (unsigned c = 0; c < kClients; ++c) {
            for (unsigned pos = 0; pos < 4; ++pos) {
                switch (categoryAt(c, pos)) {
                  case Category::Hit:
                    seq[c].push_back(plan.hit(round, c, pos));
                    break;
                  case Category::Warm:
                    seq[c].push_back(plan.warm(round, c));
                    break;
                  case Category::Cold:
                    seq[c].push_back(plan.cold(round, c));
                    break;
                }
            }
        }
        std::vector<std::vector<JobRecord>> recs(kClients);
        const auto t0 = Clock::now();
        onAllClients([&](unsigned c) {
            for (unsigned pos = 0; pos < 4; ++pos) {
                recs[c].push_back(runJob(*lc.clients[c], plan, seq[c][pos],
                                         categoryAt(c, pos), scale,
                                         tracedRound ? tracer.get()
                                                     : nullptr));
            }
        });
        allRounds.push_back(secondsSince(t0));
        (tracedRound ? tracedRounds : rounds).push_back(allRounds.back());
        for (auto &r : recs)
            loopJobs.insert(loopJobs.end(), r.begin(), r.end());
    }
    const double loopSeconds = secondsSince(start);
    if (!takeSnapshot(*lc.clients[0], after, &err))
        report.fail("serve_mix: metrics snapshot failed: " + err);
    const double rss = lc.daemon->peakRssMb();
    lc.clients.clear();
    if (!lc.daemon->stop())
        report.fail("serve_mix: kserved did not drain cleanly");
    unlink(socket.c_str());

    // Every reply against the same options computed in process.
    done.insert(done.end(), loopJobs.begin(), loopJobs.end());
    const std::vector<Json> refs = referenceWorkloads(
        plan.all(), scale, 0, 4, tracer.get(), report);
    report.attempted += loopJobs.size();
    for (const JobRecord &r : done) {
        std::string why = r.error;
        if (r.ok) {
            Json ref;
            Json::parse(refs[r.options].toString(0), ref);
            if (ref.toString(0) != r.workloads.toString(0))
                why = std::string(categoryName(r.category)) +
                    " job's RunResults differ from the in-process run";
        }
        if (!why.empty()) {
            ++report.failed;
            report.fail("serve_mix: " + why);
        }
    }

    std::vector<double> coldMs;
    std::uint64_t hits = 0, ok = 0;
    for (const JobRecord &r : loopJobs) {
        if (!r.ok)
            continue;
        ++ok;
        if (r.category == Category::Hit)
            ++hits;
        else if (r.category == Category::Cold)
            coldMs.push_back(r.ms);
    }
    report.info.set("jobs", Json::number(std::uint64_t(loopJobs.size())));
    report.info.set("hit_jobs", Json::number(hits));
    // Each cold job samples its die once; any further warm-store miss
    // is a warm job that found its die evicted.
    report.info.set("warm_store_misses",
                    Json::number(after.get("kserved_warm_store_misses_total") -
                                 before.get("kserved_warm_store_misses_total")));
    report.info.set("cold_jobs", Json::number(std::uint64_t(coldMs.size())));

    report.samples["setup_s"] = {lc.setupSeconds};
    report.samples["wall_s"] = rounds;
    // Cold jobs are the operation: warm and cold latencies form two
    // modes, so a median over both would sit between them.
    report.samples["op_ms"] = coldMs;
    report.metric("peak_rss_mb", rss, "MiB");
    report.metric("serve.jobs_per_s", double(ok) / loopSeconds, "1/s");
    report.metric("serve.hit_ms_p50",
                  categoryQuantile(loopJobs, Category::Hit, 0.5), "ms");
    report.metric("serve.hit_ms_tail",
                  categoryQuantile(loopJobs, Category::Hit, kTailQuantile),
                  "ms");
    report.metric("serve.warm_ms_p50",
                  categoryQuantile(loopJobs, Category::Warm, 0.5), "ms");
    if (!args.trace)
        return;

    const double jobs = double(loopJobs.size());
    for (const char *stage :
         {"decode", "queue", "setup", "run", "serialize", "reply"}) {
        const std::string label = std::string("{\"stage\":\"") + stage + "\"}";
        const auto &a = after.histogram["kserved_job_stage_seconds"][label];
        const auto &b = before.histogram["kserved_job_stage_seconds"][label];
        const double sum = (a.first - b.first) * 1e3;
        const double count = a.second - b.second;
        report.metric(std::string("serve.") + stage + "_ms", sum, "ms");
        report.metric(std::string("serve.") + stage + "_ms_mean",
                      count > 0 ? sum / count : 0.0, "ms");
    }
    const auto delta = [&](const std::string &name) {
        return after.get(name) - before.get(name);
    };
    const auto frac = [](double a, double b) {
        return a + b > 0 ? a / (a + b) : 0.0;
    };
    report.metric("serve.cache_hit_frac",
                  frac(delta("kserved_cache_hits_total"),
                       delta("kserved_cache_misses_total")),
                  "fraction");
    report.metric("serve.warm_hit_frac",
                  frac(delta("kserved_warm_store_hits_total"),
                       delta("kserved_warm_store_misses_total")),
                  "fraction");
    report.metric("serve.queue_peak_depth",
                  after.get("kserved_queue_peak_depth"), "count");
    report.metric("serve.rejections",
                  delta("kserved_rejections_total") +
                      delta("kserved_connections_rejected_total"),
                  "count");
    report.metric("serve.wakeups_per_job",
                  jobs > 0 ? delta("kserved_reactor_wakeups_total") / jobs
                           : 0.0,
                  "count");
    report.metric("trace.overhead_s",
                  median(tracedRounds) - median(rounds), "s");
    finishTrace(args, *tracer, report);
}

} // namespace kbench
