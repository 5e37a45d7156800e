/**
 * @file
 * Shared pieces of the benchmark driver: the workload sizes, the span
 * recorder used by traced runs, the per-run report, and the entry
 * point of each workload.
 *
 * The driver only calls the repository's public functions. Every
 * span wraps one such call from the outside; nothing inside src/ is
 * instrumented.
 */

#ifndef KILLI_PERFBENCH_KBENCH_HH
#define KILLI_PERFBENCH_KBENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.hh"

namespace kbench
{

using killi::Json;
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start);

/** Workload sizes. `tiny` shrinks every workload to a few seconds for
 *  the benchmark's own tests; the shapes stay the same. */
struct Shape
{
    bool tiny = false;
    // Campaign workloads.
    double paperScale = 1.0;
    std::vector<std::string> paperWorkloads{"spmv", "comd"};
    double setupScale = 0.001;
    std::vector<std::string> setupWorkloads; // empty = all ten proxies
    // classify_scenarios.
    std::size_t classifyLines = 32768;
    // serve_mix.
    double serveScale = 0.02;

    static Shape make(bool tiny);
};

/** One recorded span: a timed call into one layer. */
struct SpanRecord
{
    std::string name;    //!< layer name, e.g. "gpu.run"
    std::string request; //!< sweep point, scenario or job it served
    std::uint64_t id = 0;
    std::uint64_t parent = 0; //!< 0 = root
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    unsigned tid = 0;
};

/**
 * In-memory span store. Spans are appended under a lock when they end
 * and written out once, after the run. A null Tracer pointer disables
 * recording at every call site (the untraced runs use no Tracer).
 */
class Tracer
{
  public:
    Tracer();
    std::uint64_t nextId();
    void record(SpanRecord rec);
    std::int64_t nowNs() const;
    std::vector<SpanRecord> spans() const;
    /** Chrome trace_event document (Perfetto loads it). */
    Json chromeTrace() const;

  private:
    Clock::time_point origin;
    mutable std::mutex mtx;
    std::vector<SpanRecord> records; // guarded by mtx
    std::uint64_t lastId = 0;        // guarded by mtx
};

/** RAII span around one call; a no-op when the tracer is null. */
class Span
{
  public:
    Span(Tracer *tracer, const char *name, std::uint64_t parent,
         const std::string &request);
    ~Span() { end(); }
    /** Close the span before its scope ends (idempotent). */
    void end();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;
    std::uint64_t id() const { return rec.id; }

  private:
    Tracer *tracer;
    SpanRecord rec;
};

/** Per-layer time metrics from a span set: for every span name, the
 *  self time (span minus the union of its children) summed over the
 *  run as `<name>_ms` and its per-call median as `<name>_ms_p50`. */
std::map<std::string, std::vector<double>>
selfTimesMs(const std::vector<SpanRecord> &spans);

/** Linear-interpolated quantile (q in [0,1]) of unsorted samples. */
double quantile(std::vector<double> samples, double q);
double median(std::vector<double> samples);

/** The percentile every `*_tail` metric reports (run.py's POOLED
 *  table uses the same for op_ms_tail). */
constexpr double kTailQuantile = 0.90;

/**
 * Whether a time-bounded run starts another unit of work: always the
 * first, then only while one more unit as long as the last one still
 * ends within @p seconds of @p start, so a run never overshoots its
 * budget by a whole unit.
 */
bool anotherRep(Clock::time_point start, double seconds,
                const std::vector<double> &repSeconds);

/** Peak resident set of this process, MiB. */
double selfPeakRssMb();

/** What one run reports; main() prints it as JSON. */
struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Human-readable reasons for every failed check. */
    std::vector<std::string> failures;
    /** sha256 of the outputs fixed by the seed alone; run.py compares
     *  it with the recorded one. */
    std::string digest;
    /** name -> (value, unit). */
    std::map<std::string, std::pair<double, std::string>> metrics;
    /** Raw samples run.py pools across a run's processes: "wall_s"
     *  (one per unit), "op_ms" (one per operation), "setup_s" (one
     *  per set-up). */
    std::map<std::string, std::vector<double>> samples;
    /** Extra facts for the human-readable summary. */
    Json info = Json::object();

    void metric(const std::string &name, double value,
                const std::string &unit)
    {
        metrics[name] = {value, unit};
    }
    void fail(const std::string &why)
    {
        failures.push_back(why);
    }
};

struct RunArgs
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir;
    Shape shape;
};

/**
 * Set-up of one workload, everything before its first timed unit.
 * The probe child runs exactly this and then signals readiness, so
 * setup_s covers process start, library initialisation and the
 * workload's own preparation.
 */
void prepareCampaign(const RunArgs &args);
void prepareClassify(const RunArgs &args);

/** Time to readiness of each of @p probes freshly spawned children. */
std::vector<double> setupSamples(const RunArgs &args, unsigned probes,
                                 Report &report);

/** Set-up probes per process: run.py pools them across processes. */
constexpr unsigned kSetupProbes = 16;

void runCampaignWorkload(const RunArgs &args, Report &report);
void runClassifyWorkload(const RunArgs &args, Report &report);
void runServeMixWorkload(const RunArgs &args, Report &report);

/** Write the traced run's spans and add the per-layer time metrics. */
void finishTrace(const RunArgs &args, const Tracer &tracer,
                 Report &report);

/** The derived seed for @p stream of the run seeded @p seed. */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream);

} // namespace kbench

#endif // KILLI_PERFBENCH_KBENCH_HH
