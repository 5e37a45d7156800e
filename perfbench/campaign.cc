/**
 * @file
 * paper_sim and small_setup: fig4 campaigns through
 * runEvaluationSweep(), serialized like fig4_performance writes them.
 *
 * paper_sim is simulator-bound (scale=1, two proxies, 18 points, one
 * worker); small_setup is set-up-bound (scale=0.001, all ten proxies,
 * 90 points, two workers, share-die off as users get it). One unit of
 * timed work is one whole campaign plus its serialization.
 */

#include <algorithm>

#include "gpu/workload.hh"
#include "perfbench/points.hh"

namespace kbench
{

using namespace killi;

namespace
{

SweepOptions
campaignOptions(const RunArgs &args)
{
    const bool paper = args.workload == "paper_sim";
    SweepOptions opt;
    opt.scale = paper ? args.shape.paperScale : args.shape.setupScale;
    opt.scenario.seed = args.seed;
    opt.seed = args.seed;
    opt.voltage = opt.scenario.voltage;
    opt.jobs = paper ? 1 : 2;
    opt.workloads = paper ? args.shape.paperWorkloads
                          : args.shape.setupWorkloads;
    if (opt.workloads.empty())
        opt.workloads = workloadNames();
    return opt;
}

/** Identity checks every campaign must pass, whatever its seed. */
void
checkCampaign(const SweepOptions &opt, const SweepResult &res,
              Report &report)
{
    report.attempted += res.campaign.jobs.size();
    for (const JobReport &job : res.campaign.jobs) {
        if (job.outcome != JobOutcome::Done) {
            ++report.failed;
            report.fail("point " + job.name + " " +
                        jobOutcomeName(job.outcome));
        }
    }
    if (res.workloads.size() != opt.workloads.size())
        report.fail("a workload lost its baseline point");
    for (const WorkloadSweep &w : res.workloads) {
        // The fault-free baseline never sees an error, and every
        // column runs the same instruction stream.
        if (w.baseline.sdc != 0 || w.baseline.l2ErrorMisses != 0)
            report.fail(w.workload + "/baseline saw errors");
        for (const SchemeRun &run : w.schemes) {
            if (!run.ok)
                report.fail(w.workload + "/" + run.scheme + " not ok");
            else if (run.result.instructions != w.baseline.instructions)
                report.fail(w.workload + "/" + run.scheme +
                            " ran a different instruction count");
        }
    }
}

} // namespace

void
prepareCampaign(const RunArgs &args)
{
    (void)campaignOptions(args);
}

void
runCampaignWorkload(const RunArgs &args, Report &report)
{
    std::string why;
    if (!schemeTableMatches(&why))
        report.fail(why);
    const SweepOptions opt = campaignOptions(args);
    const std::string jsonPath = args.outDir + "/" + args.workload + ".json";

    std::vector<double> walls;
    std::vector<double> pointMs;
    double instructions = 0.0;
    std::string lastDigest;
    Json lastWorkloads;
    const auto start = Clock::now();
    while (anotherRep(start, args.seconds, walls)) {
        const auto t0 = Clock::now();
        const SweepResult res = runEvaluationSweep(opt);
        const Json doc = sweepToJson(opt, res);
        writeJsonFile(jsonPath, doc);
        walls.push_back(secondsSince(t0));

        checkCampaign(opt, res, report);
        for (const JobReport &job : res.campaign.jobs)
            pointMs.push_back(job.seconds * 1e3);
        for (const WorkloadSweep &w : res.workloads) {
            instructions += double(w.baseline.instructions);
            for (const SchemeRun &run : w.schemes)
                instructions += double(run.result.instructions);
        }
        const std::string digest = workloadsDigest(doc.at("workloads"));
        if (!lastDigest.empty() && digest != lastDigest)
            report.fail("two campaigns at one seed gave different results");
        lastDigest = digest;
        lastWorkloads = doc.at("workloads");
    }
    report.digest = lastDigest;
    double wallSum = 0.0;
    for (const double w : walls)
        wallSum += w;
    const double wall = median(walls);
    report.info.set("campaigns", Json::number(std::uint64_t(walls.size())));
    report.info.set("points", Json::number(std::uint64_t(pointMs.size())));
    report.metric("sim.minstr_per_s", instructions / wallSum / 1e6,
                  "Minstr/s");

    if (!args.trace) {
        report.samples["setup_s"] = setupSamples(args, kSetupProbes, report);
        report.samples["wall_s"] = walls;
        report.samples["op_ms"] = pointMs;
        report.metric("peak_rss_mb", selfPeakRssMb(), "MiB");
        return;
    }

    // Traced run: the same campaign once more through the benchmark's
    // own point pipeline, which must reproduce every RunResult.
    Tracer tracer;
    PointCounts counts;
    const auto t0 = Clock::now();
    const SweepResult traced = tracedCampaign(opt, &tracer, counts);
    {
        Span s(&tracer, "sweep.serialize", 0, "campaign");
        writeJsonFile(jsonPath, sweepToJson(opt, traced));
    }
    const double tracedWall = secondsSince(t0);
    checkCampaign(opt, traced, report);
    const Json tracedWorkloads = sweepToJson(opt, traced).at("workloads");
    if (tracedWorkloads != lastWorkloads)
        report.fail("traced pipeline RunResults differ from the campaign's");
    report.info.set("traced_results_identical",
                    Json::boolean(tracedWorkloads == lastWorkloads));

    double busy = 0.0;
    std::uint64_t retries = 0;
    for (const JobReport &job : traced.campaign.jobs) {
        busy += job.seconds;
        retries += job.attempts > 0 ? job.attempts - 1 : 0;
    }
    finishTrace(args, tracer, report);
    const double runMs = report.metrics["gpu.run_ms"].first;
    report.metric("trace.overhead_s", tracedWall - wall, "s");
    report.metric("sim.events", double(counts.events), "count");
    report.metric("sim.ns_per_event",
                  counts.events ? runMs * 1e6 / double(counts.events) : 0.0,
                  "ns");
    report.metric("cache.l2_accesses", double(counts.l2Accesses), "count");
    report.metric("runner.busy_frac",
                  busy / (traced.campaign.seconds *
                          double(std::max(1u, traced.campaign.threads))),
                  "fraction");
    report.metric("runner.retries", double(retries), "count");
}

} // namespace kbench
