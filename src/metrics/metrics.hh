/**
 * @file
 * kmetrics: the operational metrics plane (see SERVING.md, "Metrics
 * & ktop"). A MetricsRegistry maps Prometheus-style metric families
 * (name + help + type) to instruments — monotonic counters, gauges,
 * and bounded log-bucketed latency histograms — optionally split by
 * a small set of labels.
 *
 * Design constraints, in priority order:
 *  1. Lock-cheap updates. Counter::inc(), Gauge::set(), and
 *     Histogram::observe() are a handful of relaxed atomics — no
 *     mutex, no allocation — so instruments can sit on the serving
 *     daemon's per-frame and per-job paths. The registry mutex is
 *     taken only at registration (once per instrument) and at
 *     exposition (scrape) time.
 *  2. Bounded memory. Histograms hold a fixed bucket array sized at
 *     registration; a metric's footprint never grows with sample
 *     count, so a long-lived daemon has O(1) memory per metric.
 *  3. Standard exposition. prometheusText() renders the text format
 *     (version 0.0.4) any scraper understands; toJson() renders the
 *     same families structurally for the `metrics` protocol frame
 *     and the ktop dashboard. Both are generated from one snapshot
 *     walk, so the two views always agree.
 *
 * Readers (exposition) do not quiesce writers: values are relaxed
 * atomic loads, so a scrape concurrent with updates sees each
 * instrument at some recent state — fine for monitoring, and each
 * counter read is itself monotone.
 */

#ifndef KILLI_METRICS_METRICS_HH
#define KILLI_METRICS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"

namespace killi::metrics
{

/** Label set of one instrument, e.g. {{"outcome", "done"}}. Order
 *  is canonicalized (sorted by key) at registration. */
using Labels = std::vector<std::pair<std::string, std::string>>;

/** A monotonically increasing counter. */
class Counter
{
  public:
    void
    inc(std::uint64_t n = 1)
    {
        val.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return val.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> val{0};
};

/** A settable instantaneous value. */
class Gauge
{
  public:
    void
    set(double v)
    {
        val.store(v, std::memory_order_relaxed);
    }

    void
    add(double d)
    {
        val.fetch_add(d, std::memory_order_relaxed);
    }

    double
    value() const
    {
        return val.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> val{0.0};
};

/**
 * Bucket layout of a log-bucketed histogram: upper bounds
 * lo, lo*growth, lo*growth^2, ... (`buckets` finite bounds, plus an
 * implicit +Inf overflow bucket). The default covers 100 us to ~14
 * minutes at 2x resolution — the right shape for job and stage
 * latencies where relative error matters, not absolute.
 */
struct HistogramSpec
{
    double lo = 1e-4;
    double growth = 2.0;
    std::size_t buckets = 23;
};

/**
 * Bounded log-bucketed histogram with exact count/sum/max and
 * quantiles reconstructed from the buckets (resolution = one bucket,
 * i.e. a factor of `growth`; the top of the estimate is clamped to
 * the exact observed max, so quantile(1) is exact).
 *
 * Edge cases: samples <= 0 land in the first bucket; samples above
 * the last finite bound land in the +Inf bucket and read back as
 * max() in quantiles; NaN samples are counted (count() includes
 * them, routed to +Inf) but excluded from sum/max so one poisoned
 * sample cannot destroy the mean.
 */
class Histogram
{
  public:
    explicit Histogram(const HistogramSpec &spec = HistogramSpec{});

    void observe(double v);

    std::uint64_t count() const
    {
        return total.load(std::memory_order_relaxed);
    }
    double sum() const
    {
        return sumVal.load(std::memory_order_relaxed);
    }
    /** NaN when empty. */
    double max() const;
    /** sum()/count(); NaN when empty. */
    double mean() const;

    /**
     * Approximate p-quantile (p in [0, 1]); NaN when empty. Linear
     * interpolation inside the covering bucket, clamped to the
     * observed max.
     */
    double quantile(double p) const;

    /** Finite bucket upper bounds (ascending; +Inf is implicit). */
    const std::vector<double> &bounds() const { return upper; }
    /** Cumulative count <= bounds()[k]; k == bounds().size() is the
     *  +Inf bucket (== count()). */
    std::uint64_t cumulative(std::size_t k) const;

  private:
    std::vector<double> upper;
    /** counts[k] counts samples in (upper[k-1], upper[k]];
     *  counts.back() is the +Inf overflow bucket. */
    std::vector<std::atomic<std::uint64_t>> counts;
    std::atomic<std::uint64_t> total{0};
    std::atomic<double> sumVal{0.0};
    /** Observed maximum, as ordered bits (atomic double max needs a
     *  CAS loop; empty sentinel = -Inf). */
    std::atomic<double> maxVal;
};

/**
 * The registry: metric families keyed by name, instruments within a
 * family keyed by label set. Registering the same (name, labels)
 * twice returns the same instrument; registering one name under two
 * different types (or with a conflicting non-empty help string) is a
 * panic() — silent shadowing would corrupt the exposition.
 *
 * counterFn()/gaugeFn() register *callback* instruments whose value
 * is pulled at exposition time — for mirroring counters that some
 * other subsystem already maintains (e.g. the scheduler's admission
 * counts, ktrace's global drop total) without double bookkeeping.
 * Callbacks run under the registry mutex and must not re-enter the
 * registry.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    Counter &counter(const std::string &name, const std::string &help,
                     Labels labels = {});
    Gauge &gauge(const std::string &name, const std::string &help,
                 Labels labels = {});
    Histogram &histogram(const std::string &name,
                         const std::string &help, Labels labels = {},
                         const HistogramSpec &spec = HistogramSpec{});
    void counterFn(const std::string &name, const std::string &help,
                   Labels labels, std::function<std::uint64_t()> fn);
    void gaugeFn(const std::string &name, const std::string &help,
                 Labels labels, std::function<double()> fn);

    /**
     * Prometheus text exposition (format version 0.0.4): HELP/TYPE
     * headers, escaped label values, histogram _bucket/_sum/_count
     * series. Families are rendered sorted by name, instruments by
     * label set, so two exposures of the same state are
     * byte-identical.
     */
    std::string prometheusText() const;

    /**
     * The same families as structured JSON:
     * {"families":[{"name","type","help","metrics":[{"labels",...}]}]}
     * — counters/gauges carry "value"; histograms carry count, sum,
     * mean, max, p50/p90/p99, and the bucket table. Family and
     * instrument order matches prometheusText().
     */
    Json toJson() const;

  private:
    enum class Kind
    {
        Counter,
        Gauge,
        Histogram,
        CounterFn,
        GaugeFn
    };

    struct Instrument
    {
        Labels labels;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
        std::function<std::uint64_t()> counterCb;
        std::function<double()> gaugeCb;
    };

    struct Family
    {
        Kind kind = Kind::Counter;
        std::string help;
        /** Keyed by the canonical rendered label string. */
        std::map<std::string, Instrument> instruments;
    };

    Instrument &instrument(const std::string &name,
                           const std::string &help, Labels labels,
                           Kind kind);

    mutable std::mutex mtx;
    std::map<std::string, Family> families;
};

/** Escape a HELP string (backslash, newline). */
std::string escapeHelp(const std::string &s);
/** Escape a label value (backslash, quote, newline). */
std::string escapeLabelValue(const std::string &s);
/** Shortest round-trip formatting for exposition values ("0.25",
 *  "42", "+Inf", "NaN"). */
std::string formatValue(double v);

} // namespace killi::metrics

#endif // KILLI_METRICS_METRICS_HH
