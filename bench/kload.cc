/**
 * @file
 * kload: load generator for the serving stack (kserved or kfleetd —
 * both speak the same frame protocol). A pool of client threads
 * fires a barrage of submit jobs at one endpoint and reports
 * client-observed latency percentiles and sustained throughput.
 *
 * Jobs split into two categories with mix-cached=:
 *
 *  - "cached": drawn from a small set of seeds the generator
 *    pre-warms (computes once, untimed) before the barrage, so every
 *    timed occurrence is a result-cache hit — these measure the
 *    serving overhead floor (frame codec, reactor, cache lookup).
 *  - "uncached": each job gets a never-seen seed, so every one is a
 *    real compute — these measure end-to-end campaign service.
 *
 * The report (json=) carries exact per-category p50/p95/p99 plus
 * jobs/sec; tools/bench_serve.py runs it against a single kserved
 * and a kfleetd fleet to produce the committed BENCH_serve.json.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <mutex>
#include <thread>
#include <vector>

#include "common/build_info.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "common/options.hh"
#include "fault/scenario_spec.hh"
#include "serve/client/client.hh"

using namespace killi;

namespace
{

std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= csv.size()) {
        const std::size_t comma = csv.find(',', start);
        const std::string item = csv.substr(
            start, comma == std::string::npos ? std::string::npos
                                              : comma - start);
        if (!item.empty())
            out.push_back(item);
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

Json
stringArray(const std::vector<std::string> &names)
{
    Json arr = Json::array();
    for (const std::string &name : names)
        arr.push(Json::string(name));
    return arr;
}

struct JobSpec
{
    std::uint64_t seed = 0;
    bool cached = false;
};

struct Sample
{
    double ms = 0.0;
    bool cached = false;
    bool ok = false;
};

/** Exact quantile of a sorted sample vector (nearest-rank). */
double
quantileMs(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const std::size_t rank = std::min(
        sorted.size() - 1,
        std::size_t(p * double(sorted.size())));
    return sorted[rank];
}

Json
categoryJson(std::vector<double> ms)
{
    std::sort(ms.begin(), ms.end());
    double sum = 0.0;
    for (const double v : ms)
        sum += v;
    Json doc = Json::object();
    doc.set("count", Json::number(std::uint64_t(ms.size())));
    doc.set("mean_ms", Json::number(
                           ms.empty() ? 0.0 : sum / double(ms.size())));
    doc.set("p50_ms", Json::number(quantileMs(ms, 0.50)));
    doc.set("p95_ms", Json::number(quantileMs(ms, 0.95)));
    doc.set("p99_ms", Json::number(quantileMs(ms, 0.99)));
    return doc;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts("kload",
                 "serving-stack load generator: fires a barrage of "
                 "submit jobs (a cached/uncached mix) at a kserved "
                 "or kfleetd endpoint and reports client-observed "
                 "latency percentiles and jobs/sec");
    auto &sockPath = opts.add("socket", "kserved.sock",
                              "endpoint unix socket path (empty "
                              "switches to TCP port=)");
    auto &port = opts.add<unsigned>(
        "port", 0u, "endpoint TCP port on 127.0.0.1");
    port.range(0u, 65535u);
    auto &clients =
        opts.add<unsigned>("clients", 4u,
                           "concurrent client connections")
            .range(1u, 256u);
    auto &jobs = opts.add<unsigned>("jobs", 32u,
                                    "total jobs in the barrage")
                     .range(1u, 1u << 20);
    auto &mixCached =
        opts.add<double>("mix-cached", 0.5,
                         "fraction of jobs drawn from the "
                         "pre-warmed (cache-hit) seed set")
            .range(0.0, 1.0);
    auto &cachedSeeds =
        opts.add<unsigned>("cached-seeds", 4u,
                           "distinct seeds in the pre-warmed set")
            .range(1u, 1024u);
    auto &scale = opts.add<double>("scale", 0.02,
                                   "sweep scale= of every job")
                      .range(0.001, 1000.0);
    auto &warmup =
        opts.add<unsigned>("warmup", 0u, "sweep warmup= of every job")
            .range(0u, 16u);
    auto &workloads = opts.add("workloads", "xsbench",
                               "comma-separated workload subset "
                               "submitted with every job");
    auto &schemes = opts.add("schemes", "DECTED",
                             "comma-separated scheme subset "
                             "submitted with every job");
    auto &seedBase =
        opts.add<std::uint64_t>("seed-base", std::uint64_t{90000},
                                "first seed; uncached jobs count up "
                                "from seed-base + cached-seeds")
            .range(std::uint64_t{1}, std::uint64_t{1} << 40);
    auto &jsonPath = opts.add("json", "results/kload.json",
                              "report path (empty disables)");
    auto &connectTimeoutMs =
        opts.add<std::uint64_t>("connect-timeout-ms",
                                std::uint64_t{5000},
                                "per-connect deadline")
            .range(std::uint64_t{0}, std::uint64_t{600000});
    opts.parse(argc, argv);

    const std::vector<std::string> workloadList =
        splitList(workloads.value());
    const std::vector<std::string> schemeList =
        splitList(schemes.value());

    const auto connect = [&](serve::Client &client) {
        serve::ConnectOptions copt;
        copt.attempts = 5;
        copt.timeoutMs = int(connectTimeoutMs.value());
        std::string err;
        const bool ok =
            sockPath.value().empty()
                ? client.connectTcp(std::uint16_t(port.value()),
                                    copt, &err)
                : client.connectUnix(sockPath.value(), copt, &err);
        if (!ok)
            fatal("kload: %s", err.c_str());
    };

    const auto submitFrame = [&](std::uint64_t seed) {
        Json options = Json::object();
        options.set("scale", Json::number(scale.value()));
        options.set("warmup",
                    Json::number(std::uint64_t(warmup.value())));
        ScenarioSpec scenario;
        scenario.seed = seed;
        options.set("scenario", scenario.toJson());
        options.set("workloads", stringArray(workloadList));
        options.set("schemes", stringArray(schemeList));
        Json req = Json::object();
        req.set("type", Json::string("submit"));
        req.set("options", std::move(options));
        req.set("stream", Json::boolean(false));
        return req;
    };

    const auto runJob = [&](serve::Client &client,
                            std::uint64_t seed, bool &ok) {
        const auto t0 = std::chrono::steady_clock::now();
        Json terminal;
        std::string err;
        ok = client.submit(submitFrame(seed), terminal, nullptr,
                           &err) &&
             terminal.at("type").asString() == "result" &&
             terminal.at("outcome").asString() == "done";
        if (!ok)
            warn("kload: job seed=%llu failed: %s",
                 (unsigned long long)seed,
                 err.empty() ? terminal.toString(0).c_str()
                             : err.c_str());
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };

    // Job plan: every ceil(1/mix)-th job is a cached one, spread
    // evenly through the barrage rather than clustered, so cached
    // and uncached service interleave the way mixed traffic would.
    const unsigned total = jobs.value();
    const unsigned nCachedSeeds = cachedSeeds.value();
    std::vector<JobSpec> plan(total);
    double acc = 0.0;
    unsigned cachedCount = 0;
    std::uint64_t nextFresh =
        seedBase.value() + nCachedSeeds;
    for (unsigned i = 0; i < total; ++i) {
        acc += mixCached.value();
        if (acc >= 1.0) {
            acc -= 1.0;
            plan[i].cached = true;
            plan[i].seed =
                seedBase.value() + (cachedCount % nCachedSeeds);
            ++cachedCount;
        } else {
            plan[i].seed = nextFresh++;
        }
    }

    // Pre-warm the cached seed set (untimed) so every timed cached
    // job is a genuine hit.
    if (cachedCount > 0) {
        serve::Client client;
        connect(client);
        for (unsigned s = 0;
             s < std::min(nCachedSeeds, cachedCount); ++s) {
            bool ok = false;
            runJob(client, seedBase.value() + s, ok);
            if (!ok)
                fatal("kload: pre-warm of seed %llu failed",
                      (unsigned long long)(seedBase.value() + s));
        }
    }
    inform("kload: barrage of %u jobs (%u cached / %u uncached) "
           "across %u clients",
           total, cachedCount, total - cachedCount,
           clients.value());

    std::vector<Sample> samples(total);
    std::atomic<unsigned> nextJob{0};
    std::atomic<unsigned> failures{0};
    const auto barrage0 = std::chrono::steady_clock::now();
    std::vector<std::thread> pool;
    for (unsigned c = 0; c < clients.value(); ++c) {
        pool.emplace_back([&] {
            serve::Client client;
            connect(client);
            while (true) {
                const unsigned i = nextJob.fetch_add(1);
                if (i >= total)
                    return;
                bool ok = false;
                const double ms =
                    runJob(client, plan[i].seed, ok);
                samples[i] = Sample{ms, plan[i].cached, ok};
                if (!ok)
                    failures.fetch_add(1);
            }
        });
    }
    for (std::thread &t : pool)
        t.join();
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() -
                            barrage0)
                            .count();

    std::vector<double> cachedMs;
    std::vector<double> uncachedMs;
    for (const Sample &s : samples) {
        if (!s.ok)
            continue;
        (s.cached ? cachedMs : uncachedMs).push_back(s.ms);
    }

    Json doc = Json::object();
    doc.set("bench", Json::string("kload"));
    doc.set("build", Json::string(buildId()));
    Json optDoc = Json::object();
    optDoc.set("clients",
               Json::number(std::uint64_t(clients.value())));
    optDoc.set("jobs", Json::number(std::uint64_t(total)));
    optDoc.set("mix_cached", Json::number(mixCached.value()));
    optDoc.set("scale", Json::number(scale.value()));
    optDoc.set("warmup",
               Json::number(std::uint64_t(warmup.value())));
    optDoc.set("workloads", stringArray(workloadList));
    optDoc.set("schemes", stringArray(schemeList));
    doc.set("options", std::move(optDoc));
    Json results = Json::object();
    results.set("seconds", Json::number(wall));
    results.set("jobs_per_sec",
                Json::number(wall > 0 ? double(total) / wall : 0.0));
    results.set("failures",
                Json::number(std::uint64_t(failures.load())));
    Json cats = Json::object();
    cats.set("cached", categoryJson(std::move(cachedMs)));
    cats.set("uncached", categoryJson(std::move(uncachedMs)));
    results.set("categories", std::move(cats));
    doc.set("results", std::move(results));

    inform("kload: %u jobs in %.2fs (%.1f jobs/sec, %u failures)",
           total, wall, wall > 0 ? double(total) / wall : 0.0,
           failures.load());

    if (!jsonPath.value().empty()) {
        std::ofstream out(jsonPath.value());
        if (!out)
            fatal("kload: cannot write %s",
                  jsonPath.value().c_str());
        doc.dump(out, 2);
        out << "\n";
        inform("kload: wrote %s", jsonPath.value().c_str());
    }
    return failures.load() == 0 ? 0 : 1;
}
