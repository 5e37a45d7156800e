/**
 * @file
 * Shared evaluation sweep for the Fig. 4 / Fig. 5 / Table 6
 * benchmarks: run every workload of the suite under the fault-free
 * baseline and each LV protection scheme (DECTED, FLAIR, MS-ECC,
 * Killi at the paper's five ECC-cache ratios) on the Table 3 GPU.
 *
 * The sweep executes on the killi::ExperimentRunner: every point
 * (workload × scheme) is an independent job with its own GpuSystem,
 * FaultMap (adopting the campaign's one sampled die and its one
 * active view), and workload instance, so `jobs=N` runs N points
 * concurrently while producing tables bit-identical to `jobs=1`.
 * A point that keeps failing after its retries is skipped (ok=false
 * in its SchemeRun) instead of aborting the campaign.
 *
 * Knobs are declared through the typed Options API — run any
 * sweep-based bench binary with --help for the generated list.
 */

#ifndef KILLI_BENCH_SWEEP_HH
#define KILLI_BENCH_SWEEP_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/options.hh"
#include "fault/fault_map.hh"
#include "fault/scenario_spec.hh"
#include "gpu/gpu_system.hh"
#include "runner/runner.hh"

namespace killi
{

class FaultModel;

/**
 * One progress observation from a running campaign: either a
 * periodic in-point snapshot (statsInterval > 0; tick/instructions
 * from the point's StatTimeseries tap) or a point-completion event
 * (pointDone, with the campaign-level done/total counts).
 */
struct SweepProgress
{
    std::string point;              //!< "workload/scheme"
    Tick tick = 0;                  //!< simulated tick of the snapshot
    std::uint64_t instructions = 0; //!< measured-region instructions
    bool pointDone = false;
    std::size_t pointsDone = 0;
    std::size_t pointsTotal = 0;
};

struct SweepOptions
{
    double scale = 1.0;
    unsigned warmupPasses = 2;
    /**
     * The fault scenario every sweep point instantiates through
     * FaultModel::fromScenario(). The default spec reproduces the
     * historical iid behaviour bit-identically. voltage/seed below
     * are read-side mirrors kept for reporting and the serving cache
     * key; set the scenario through setScenario(), which derives
     * them (or keep the mirrors' defaults with the default spec).
     */
    ScenarioSpec scenario;
    double voltage = 0.625;
    std::uint64_t seed = 42;

    /** Install @p spec and derive the voltage/seed mirrors from it
     *  (droop scenarios report their schedule's first point). */
    void setScenario(ScenarioSpec spec);

    /** Worker threads for the campaign (0 = all hardware threads). */
    unsigned jobs = 1;
    /** Extra attempts for a failed sweep point before skipping it. */
    unsigned retries = 1;
    /** Results-file path; empty disables the JSON dump. */
    std::string jsonPath;
    /** Workload subset; empty = the full ten-proxy suite. */
    std::vector<std::string> workloads;
    /** Scheme subset (names from sweepSchemeNames()); empty = all. */
    std::vector<std::string> schemes;
    /** Trace categories recorded per sweep point (e.g. "dfh,ecc,l2"
     *  or "all"); empty disables tracing entirely. */
    std::string trace;
    /** Directory receiving one Chrome trace_event file per traced
     *  sweep point (load them in Perfetto / chrome://tracing); empty
     *  writes no trace files. Record/replay sessions clear it: the
     *  events still flow to the ReplayProbe, but nothing touches the
     *  filesystem. */
    std::string traceDir = "results/trace";
    /** Cycles between periodic stat snapshots (0 disables the
     *  timeseries machinery). */
    Cycle statsInterval = 0;
    /** Path of the combined stat-timeseries JSON, written when
     *  statsInterval > 0; empty disables. */
    std::string timeseriesPath;
    // -- Not CLI knobs; set programmatically by embedders (kserved).

    /**
     * Observer for campaign progress; called from worker threads,
     * possibly concurrently, so it must be thread-safe. Point
     * completions are always reported; periodic in-point snapshots
     * additionally flow when statsInterval > 0.
     */
    std::function<void(const SweepProgress &)> onProgress;
    /** Cooperative cancellation (not owned; may be null): once
     *  cancelled, sweep points that have not started are skipped and
     *  the campaign report records them as such. */
    const CancelToken *cancel = nullptr;
    /**
     * Warm fault-population source (the kserved warm store). When
     * set, the campaign offers its (model, geometry) here once,
     * before dispatching any point, on the calling thread; a
     * non-null return is the die every point adopts by reference
     * (bit-identical to sampling it, by construction), and a null
     * return falls back to sampling. Concurrent campaigns may share
     * one source, so it must be thread-safe. Record/replay sessions
     * never use it: adopting a population skips the sampler's RNG
     * draws, which a recording captures.
     */
    std::function<std::shared_ptr<const FaultPopulation>(
        const FaultModel &model, std::size_t numLines,
        std::size_t lineBits)>
        warmFaultSource;
};

/** Which of the shared sweep knobs a binary declares. */
enum class SweepKnobs
{
    All,     //!< every knob (the sweep bench binaries)
    Recorded //!< all but jobs, json and timeseries: a recorded sweep
             //!< runs on one worker and writes only its recording
};

/**
 * Declare the shared sweep knobs (scale, warmup, scenario, workloads,
 * schemes, jobs, retries, json, trace, trace-dir, stats-interval,
 * timeseries) on @p opts.
 *
 * @param benchName stem of the default results path
 *        ("results/<benchName>.json")
 * @param defaultScale default workload length multiplier
 * @param knobs SweepKnobs::Recorded leaves out jobs, json and
 *        timeseries, so passing them is an unknown-option error
 */
void declareSweepOptions(Options &opts, const std::string &benchName,
                         double defaultScale = 1.0,
                         SweepKnobs knobs = SweepKnobs::All);

/** Declare the fault-scenario knob (scenario=) alone, for binaries
 *  with their own run knobs. */
void declareScenarioOption(Options &opts);

/** The scenario named by a parsed scenario= knob (the default iid
 *  scenario when empty). */
ScenarioSpec scenarioOption(const Options &opts);

/** Extract a SweepOptions from parsed @p opts; knobs left undeclared
 *  keep their SweepOptions defaults. A workload or scheme listed
 *  twice is a usage error. */
SweepOptions sweepOptions(const Options &opts);

/** The first name in @p names that an earlier entry repeats, or
 *  nullptr when all are distinct (a campaign runs each name once). */
const std::string *firstDuplicate(const std::vector<std::string> &names);

/** One scheme's result on one workload. */
struct SchemeRun
{
    std::string scheme;
    /** False iff this point failed all its attempts and was skipped. */
    bool ok = false;
    RunResult result;
    /** Extra LV storage bits / 512 (power-model input). */
    double areaOverheadFrac = 0.0;
    /** codecShare() key for the power model. */
    std::string powerKey;
    /** StatTimeseries::toJson() of the point's measured region
     *  (null unless statsInterval > 0). */
    Json timeseries = Json::null();
};

struct WorkloadSweep
{
    std::string workload;
    bool memoryBound = false;
    bool baselineOk = false;
    RunResult baseline;
    /** Baseline point's timeseries (null unless statsInterval > 0). */
    Json baselineTimeseries = Json::null();
    std::vector<SchemeRun> schemes;
};

struct SweepResult
{
    std::vector<WorkloadSweep> workloads;
    /** Per-job execution record (attempts, timing, failures). */
    CampaignReport campaign;
};

/** The scheme column order used by Fig. 4 / Fig. 5 / Table 6. */
std::vector<std::string> sweepSchemeNames();

/**
 * Execute the full campaign on opt.jobs worker threads; prints one
 * progress line per run (interleaved across workers when jobs > 1 —
 * only the line order varies, never the results). Workloads whose
 * baseline point failed are dropped with a warning, since nothing
 * can be normalized against them.
 */
SweepResult runEvaluationSweep(const SweepOptions &opt);

/**
 * Machine-readable form of a finished sweep: options, campaign
 * report, and the full per-point RunResults.
 */
Json sweepToJson(const SweepOptions &opt, const SweepResult &result);

/**
 * Write sweepToJson() (plus the binary's effective options under
 * "options") to opt.jsonPath. No-op when the path is empty. When the
 * sweep ran with statsInterval > 0, additionally writes the combined
 * per-point stat timeseries to opt.timeseriesPath (see
 * timeseriesToJson() for the schema).
 */
void writeSweepJson(const Options &opts, const SweepOptions &opt,
                    const SweepResult &result);

/**
 * The combined stat-timeseries document: {"interval", "workloads":
 * [{"workload", "points": [{"scheme", "timeseries"}, ...]}, ...]}
 * where each "timeseries" is a StatTimeseries::toJson() table. The
 * baseline point appears as scheme "baseline".
 */
Json timeseriesToJson(const SweepOptions &opt,
                      const SweepResult &result);

} // namespace killi

#endif // KILLI_BENCH_SWEEP_HH
