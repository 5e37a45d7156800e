/**
 * @file
 * Periodic stat snapshotting: a StatTimeseries polls a set of named
 * scalar sources (closures over components' counter structs, such as
 * L2Cache::stats(), or over derived values like MPKI) every N cycles
 * and accumulates a columnar time series that serializes to JSON for
 * plotting MPKI, ECC-cache occupancy, protection-grade mix, etc. over
 * simulated time.
 *
 * Sampling is driven externally (EventQueue::setPeriodic or an
 * explicit call after run()); the series itself is passive and
 * single-threaded, matching the one-GpuSystem-per-thread confinement
 * contract.
 */

#ifndef KILLI_TRACE_TIMESERIES_HH
#define KILLI_TRACE_TIMESERIES_HH

#include <functional>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/types.hh"

namespace killi
{

class StatTimeseries
{
  public:
    using Source = std::function<double()>;

    /** @param sampleInterval nominal cycles between samples (recorded
     *  in the JSON header; the caller drives actual sampling). */
    explicit StatTimeseries(Tick sampleInterval = 0)
        : interval_(sampleInterval)
    {
    }

    /** Register a named column. Must happen before the first
     *  sample(); sources are polled in registration order. */
    void addSource(std::string name, Source fn);

    Tick interval() const { return interval_; }
    std::size_t columns() const { return sources.size(); }
    std::size_t samples() const { return ticks.size(); }
    bool empty() const { return ticks.empty(); }

    /** Poll every source and append one row stamped @p now. If @p now
     *  equals the previous sample's tick the row is overwritten
     *  instead of duplicated (final post-run sample may coincide with
     *  the last periodic one). */
    void sample(Tick now);

    /**
     * Install an observer invoked after every sample() with the tick
     * and the freshly polled row (column order matches registration
     * order; use columnNames() to map). This is the serving daemon's
     * progress tap: a long-running sweep point streams periodic
     * snapshots to the submitting client without touching the
     * accumulated series. The callback runs on the sampling thread —
     * for runner workers that is *not* the main thread, so it must
     * be thread-safe with respect to its own captures. Null clears.
     */
    void setOnSample(
        std::function<void(Tick, const std::vector<double> &)> fn);

    /** Registered column names (without the leading "tick"). */
    const std::vector<std::string> &columnNames() const
    {
        return names;
    }

    /** Drop accumulated rows (e.g. after a warmup pass); sources and
     *  interval are kept. */
    void clearSamples();

    /** Tick column of the accumulated series. */
    const std::vector<Tick> &sampleTicks() const { return ticks; }

    /** Last sampled value of a column; NaN if never sampled or the
     *  name is unknown. */
    double lastValue(const std::string &name) const;

    /**
     * {"interval":N, "columns":["tick", names...],
     *  "samples":[[tick, v...], ...]}
     */
    Json toJson() const;

  private:
    Tick interval_;
    std::vector<std::string> names;
    std::vector<Source> sources;
    std::vector<Tick> ticks;
    std::vector<std::vector<double>> rows;
    std::function<void(Tick, const std::vector<double> &)> onSample;
};

} // namespace killi

#endif // KILLI_TRACE_TIMESERIES_HH
