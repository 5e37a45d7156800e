/**
 * @file
 * The benchmark's own sweep-point pipeline: the public calls that
 * bench/sweep.cc makes for one point (FaultModel::fromScenario,
 * buildMap/buildMapFrom, makeWorkload, the protection factory, the
 * GpuSystem constructor, GpuSystem::run), in the same order, each
 * wrapped in a span. Traced campaigns run on it and must reproduce
 * runEvaluationSweep's RunResults exactly; serve_mix computes its
 * in-process references on it.
 */

#ifndef KILLI_PERFBENCH_POINTS_HH
#define KILLI_PERFBENCH_POINTS_HH

#include <memory>
#include <string>
#include <vector>

#include "bench/sweep.hh"
#include "perfbench/kbench.hh"

namespace kbench
{

/** Counts the traced pipeline reads off its points. */
struct PointCounts
{
    std::uint64_t events = 0;      //!< EventQueue::eventsExecuted()
    std::uint64_t l2Accesses = 0;  //!< RunResult::l2Accesses()
};

/** Fails the run when the benchmark's scheme table no longer matches
 *  the repository's sweep columns. */
bool schemeTableMatches(std::string *why);

/**
 * runEvaluationSweep() rebuilt from public calls, with spans around
 * each call into a layer (sweep.point > fault.*, gpu.*, killi.build /
 * baselines.build). Points run on an ExperimentRunner with opt.jobs
 * workers, inside one runner.campaign span.
 */
killi::SweepResult tracedCampaign(const killi::SweepOptions &opt,
                                  Tracer *tracer, PointCounts &counts);

/** One served job's options. */
struct JobOptions
{
    killi::ScenarioSpec scenario;
    std::vector<std::string> workloads;
    std::vector<std::string> schemes;
};

/**
 * The `workloads` section of sweepToJson() for each job, computed in
 * process on @p threads workers. Every distinct (die, workload, scheme)
 * point runs once; each die is sampled once and adopted by its other
 * points through buildMapFrom, as kserved's warm store does.
 */
std::vector<Json> referenceWorkloads(const std::vector<JobOptions> &jobs,
                                     double scale, unsigned warmup,
                                     unsigned threads, Tracer *tracer,
                                     Report &report);

/** sha256 of the deterministic part of a sweep report: its
 *  `workloads` section, the subset tools/extract_sweep_results.py
 *  keeps. */
std::string workloadsDigest(const Json &workloads);

} // namespace kbench

#endif // KILLI_PERFBENCH_POINTS_HH
