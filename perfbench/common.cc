#include "perfbench/kbench.hh"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <filesystem>
#include <spawn.h>

#include "common/log.hh"

extern char **environ;

namespace kbench
{

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

Shape
Shape::make(bool tiny)
{
    Shape s;
    s.tiny = tiny;
    if (tiny) {
        s.paperScale = 0.01;
        s.setupWorkloads = {"spmv", "comd", "xsbench"};
        s.classifyLines = 1024;
        s.serveScale = 0.005;
    }
    return s;
}

namespace
{

unsigned
threadIndex()
{
    static std::atomic<unsigned> next{0};
    thread_local const unsigned index = next.fetch_add(1);
    return index;
}

} // namespace

Tracer::Tracer() : origin(Clock::now()) {}

std::uint64_t
Tracer::nextId()
{
    std::lock_guard<std::mutex> lock(mtx);
    return ++lastId;
}

void
Tracer::record(SpanRecord rec)
{
    std::lock_guard<std::mutex> lock(mtx);
    records.push_back(std::move(rec));
}

std::int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin)
        .count();
}

std::vector<SpanRecord>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return records;
}

Json
Tracer::chromeTrace() const
{
    Json events = Json::array();
    for (const SpanRecord &s : spans()) {
        Json ev = Json::object();
        ev.set("name", Json::string(s.name));
        ev.set("cat", Json::string(s.name.substr(0, s.name.find('.'))));
        ev.set("ph", Json::string("X"));
        ev.set("ts", Json::number(double(s.startNs) / 1e3));
        ev.set("dur", Json::number(double(s.endNs - s.startNs) / 1e3));
        ev.set("pid", Json::number(std::uint64_t{1}));
        ev.set("tid", Json::number(std::uint64_t(s.tid)));
        Json args = Json::object();
        args.set("id", Json::number(s.id));
        args.set("parent", Json::number(s.parent));
        args.set("request", Json::string(s.request));
        ev.set("args", std::move(args));
        events.push(std::move(ev));
    }
    Json doc = Json::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", Json::string("ms"));
    return doc;
}

Span::Span(Tracer *t, const char *name, std::uint64_t parent,
           const std::string &request)
    : tracer(t)
{
    if (!tracer)
        return;
    rec.name = name;
    rec.request = request;
    rec.parent = parent;
    rec.id = tracer->nextId();
    rec.tid = threadIndex();
    rec.startNs = tracer->nowNs();
}

void
Span::end()
{
    if (!tracer)
        return;
    rec.endNs = tracer->nowNs();
    tracer->record(std::move(rec));
    tracer = nullptr;
}

std::map<std::string, std::vector<double>>
selfTimesMs(const std::vector<SpanRecord> &spans)
{
    std::map<std::uint64_t, std::vector<std::pair<std::int64_t,
                                                  std::int64_t>>>
        children;
    for (const SpanRecord &s : spans) {
        if (s.parent)
            children[s.parent].push_back({s.startNs, s.endNs});
    }
    std::map<std::string, std::vector<double>> out;
    for (const SpanRecord &s : spans) {
        std::int64_t covered = 0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            // Children of one span may overlap (a campaign's points
            // run on several workers): subtract their union.
            auto iv = it->second;
            std::sort(iv.begin(), iv.end());
            std::int64_t curStart = 0;
            std::int64_t curEnd = -1;
            for (const auto &[a, b] : iv) {
                if (curEnd < a) {
                    if (curEnd >= curStart)
                        covered += curEnd - curStart;
                    curStart = a;
                    curEnd = b;
                } else {
                    curEnd = std::max(curEnd, b);
                }
            }
            if (curEnd >= curStart)
                covered += curEnd - curStart;
        }
        out[s.name].push_back(double(s.endNs - s.startNs - covered) /
                              1e6);
    }
    return out;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const std::size_t lo = std::size_t(std::floor(pos));
    const std::size_t hi = std::min(v.size() - 1, lo + 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

bool
anotherRep(Clock::time_point start, double seconds,
           const std::vector<double> &repSeconds)
{
    return repSeconds.empty() ||
        secondsSince(start) + repSeconds.back() <= seconds;
}

double
selfPeakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

void
finishTrace(const RunArgs &args, const Tracer &tracer, Report &report)
{
    const std::string path = args.outDir + "/" + args.workload +
        "-seed" + std::to_string(args.seed) + ".trace.json";
    killi::writeJsonFile(path, tracer.chromeTrace());
    report.info.set("span_file", killi::Json::string(path));
    const auto spans = tracer.spans();
    report.info.set("spans",
                    killi::Json::number(std::uint64_t(spans.size())));
    for (const auto &[name, ms] : selfTimesMs(spans)) {
        double sum = 0.0;
        for (const double v : ms)
            sum += v;
        report.metric(name + "_ms", sum, "ms");
        report.metric(name + "_ms_p50", median(ms), "ms");
    }
}

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t stream)
{
    // splitmix64 of (seed, stream): distinct streams never collide
    // with each other or with the run seed itself in practice.
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return (z ^ (z >> 31)) & 0x7fffffffffffULL;
}

std::vector<double>
setupSamples(const RunArgs &args, unsigned probes, Report &report)
{
    std::vector<double> samples;
    const std::string self = std::filesystem::read_symlink(
                                 "/proc/self/exe")
                                 .string();
    for (unsigned i = 0; i < probes; ++i) {
        int fds[2];
        if (pipe(fds) != 0)
            killi::fatal("kbench: pipe failed");
        const std::string fdArg = std::to_string(fds[1]);
        const std::string seedArg = std::to_string(args.seed);
        std::vector<std::string> argvS = {
            self, "--probe", args.workload, "--seed", seedArg,
            "--ready-fd", fdArg};
        if (args.shape.tiny)
            argvS.push_back("--tiny");
        std::vector<char *> argv;
        for (std::string &a : argvS)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_addclose(&fa, fds[0]);
        const auto t0 = Clock::now();
        pid_t pid = 0;
        const int rc = posix_spawn(&pid, self.c_str(), &fa, nullptr,
                                   argv.data(), environ);
        posix_spawn_file_actions_destroy(&fa);
        close(fds[1]);
        if (rc != 0) {
            close(fds[0]);
            report.fail("setup probe: spawn failed");
            continue;
        }
        char byte = 0;
        ssize_t n = 0;
        do {
            n = read(fds[0], &byte, 1);
        } while (n < 0 && errno == EINTR);
        const double s = secondsSince(t0);
        close(fds[0]);
        int status = 0;
        while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
        }
        if (n != 1 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
            report.fail("setup probe: child did not become ready");
            continue;
        }
        samples.push_back(s);
    }
    return samples;
}

} // namespace kbench
