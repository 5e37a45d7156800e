#include "bench/sweep.hh"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <sstream>

#include "analysis/area.hh"
#include "baselines/precharacterized.hh"
#include "common/log.hh"
#include "fault/fault_map.hh"
#include "fault/fault_model.hh"
#include "fault/voltage_model.hh"
#include "killi/killi.hh"
#include "trace/trace.hh"

namespace killi
{

namespace
{

constexpr std::size_t kKilliRatios[] = {256, 128, 64, 32, 16};

/** LV-vulnerable bits per L2 line the fault map covers. */
constexpr std::size_t kLineBits = 720;

/** Static description of one scheme column. */
struct SchemeSpec
{
    std::string name;
    double areaOverheadFrac;
    std::string powerKey;
    /** Build a fresh protection instance against @p faults. */
    std::function<std::unique_ptr<ProtectionScheme>(FaultMap &)> make;
};

std::vector<SchemeSpec>
schemeSpecs()
{
    std::vector<SchemeSpec> specs;
    specs.push_back(
        {"DECTED", area::baseline(CodeKind::Dected).pctOverL2 / 100.0,
         "dected",
         [](FaultMap &faults) -> std::unique_ptr<ProtectionScheme> {
             return makeDectedLine(faults);
         }});
    specs.push_back(
        {"FLAIR", area::baseline(CodeKind::Secded).pctOverL2 / 100.0,
         "flair",
         [](FaultMap &faults) -> std::unique_ptr<ProtectionScheme> {
             return makeFlair(faults);
         }});
    specs.push_back(
        {"MS-ECC", area::baseline(CodeKind::Olsc11).pctOverL2 / 100.0,
         "msecc",
         [](FaultMap &faults) -> std::unique_ptr<ProtectionScheme> {
             return makeMsEcc(faults);
         }});
    for (const std::size_t ratio : kKilliRatios) {
        specs.push_back(
            {"Killi 1:" + std::to_string(ratio),
             area::killi(ratio).pctOverL2 / 100.0, "killi",
             [ratio](FaultMap &faults)
                 -> std::unique_ptr<ProtectionScheme> {
                 KilliParams kp;
                 kp.ratio = ratio;
                 return std::make_unique<KilliProtection>(faults, kp);
             }});
    }
    return specs;
}

std::vector<std::string>
splitList(const std::string &list)
{
    std::vector<std::string> out;
    std::stringstream ss(list);
    std::string token;
    while (std::getline(ss, token, ',')) {
        if (!token.empty())
            out.push_back(token);
    }
    return out;
}

/** Filesystem-safe stem for a sweep point's trace file. */
std::string
pointFileStem(const std::string &wlName, const SchemeSpec *scheme)
{
    std::string stem =
        wlName + "_" + (scheme ? scheme->name : "baseline");
    for (char &c : stem) {
        if (!std::isalnum(static_cast<unsigned char>(c)) &&
            c != '-' && c != '.')
            c = '_';
    }
    return stem;
}

/**
 * Execute one fully isolated sweep point. Everything stateful — the
 * fault map, the protection scheme, the workload instance, the GPU
 * system, the trace sink — is constructed here, inside the job, so
 * concurrent points share nothing mutable (see the gpu_system.hh
 * thread-confinement contract). The only shared inputs are the
 * campaign's model, its immutable die and the die's immutable active
 * view, which the point's map adopts by reference: every point sees
 * the identical die at the identical operating point.
 *
 * @param seriesOut receives the point's StatTimeseries as JSON when
 *        opt.statsInterval > 0 (untouched otherwise); may be null.
 */
RunResult
runPoint(const SweepOptions &opt, const FaultModel &model,
         const std::shared_ptr<const FaultPopulation> &die,
         const std::shared_ptr<const ActiveView> &view,
         const std::string &wlName, const SchemeSpec *scheme,
         Json *seriesOut)
{
    GpuParams gp;
    gp.statsInterval = opt.statsInterval;
    const std::unique_ptr<FaultMap> faultsPtr = model.adopt(die, view);
    FaultMap &faults = *faultsPtr;
    const auto wl = makeWorkload(wlName, opt.scale);

    TraceSink sink;
    if (!opt.trace.empty()) {
        std::uint32_t mask = 0;
        // Already validated by sweepOptions(); cannot fail here.
        parseTraceCats(opt.trace, mask);
        sink.setMask(mask);
        gp.l2.trace = &sink;
    }

    std::unique_ptr<ProtectionScheme> prot;
    FaultFreeProtection baseline;
    ProtectionScheme *active = &baseline;
    if (scheme) {
        prot = scheme->make(faults);
        active = prot.get();
    }
    GpuSystem sys(gp, *active, *wl);
    if (opt.onProgress && opt.statsInterval) {
        // Stream every periodic snapshot to the observer (the
        // serving daemon forwards them as client progress frames).
        // Observation only: the accumulated series and the simulated
        // events are untouched, so tapped and untapped runs stay
        // bit-identical.
        const std::string point =
            wlName + "/" + (scheme ? scheme->name : "baseline");
        const auto &cols = sys.timeseries().columnNames();
        std::size_t instrCol = cols.size();
        for (std::size_t c = 0; c < cols.size(); ++c) {
            if (cols[c] == "instructions")
                instrCol = c;
        }
        sys.timeseries().setOnSample(
            [&opt, point, instrCol](Tick now,
                                    const std::vector<double> &row) {
                SweepProgress p;
                p.point = point;
                p.tick = now;
                if (instrCol < row.size())
                    p.instructions = std::uint64_t(row[instrCol]);
                opt.onProgress(p);
            });
    }
    const RunResult result = sys.run(opt.warmupPasses);
    if (!opt.trace.empty() && !opt.traceDir.empty()) {
        const std::string path = opt.traceDir + "/" +
            pointFileStem(wlName, scheme) + ".trace.json";
        writeJsonFile(path, sink.chromeTraceJson());
    }
    if (seriesOut && opt.statsInterval)
        *seriesOut = sys.timeseries().toJson();
    // Through the thread-safe logger, not raw stderr: concurrent
    // sweep points (jobs > 1) must never interleave mid-line.
    inform("  %-8s %-12s %12llu cycles", wlName.c_str(),
           scheme ? scheme->name.c_str() : "baseline",
           static_cast<unsigned long long>(result.cycles));
    return result;
}

} // namespace

void
SweepOptions::setScenario(ScenarioSpec spec)
{
    scenario = std::move(spec);
    voltage = FaultModel::fromScenario(scenario)
                  ->voltageSchedule()
                  .front();
    seed = scenario.seed;
}

void
declareScenarioOption(Options &opts)
{
    opts.add("scenario", "",
             "fault scenario: path to a killi-scenario-v1 JSON file "
             "or inline JSON (see SCENARIOS.md); empty runs the "
             "default iid scenario");
}

ScenarioSpec
scenarioOption(const Options &opts)
{
    const std::string text = opts.get<std::string>("scenario");
    return text.empty() ? ScenarioSpec{} : ScenarioSpec::fromString(text);
}

void
declareSweepOptions(Options &opts, const std::string &benchName,
                    double defaultScale, SweepKnobs knobs)
{
    const bool all = knobs == SweepKnobs::All;
    opts.add<double>("scale", defaultScale,
                     "workload length multiplier")
        .range(0.001, 1000.0);
    opts.add<unsigned>("warmup", 2u,
                       "warmup passes excluded from stats")
        .range(0u, 16u);
    declareScenarioOption(opts);
    opts.add("workloads", "",
             "comma-separated workload subset (default: all ten)");
    opts.add("schemes", "",
             "comma-separated scheme subset, e.g. "
             "'DECTED,Killi 1:256' (default: all)");
    if (all) {
        opts.add<unsigned>("jobs", 1u,
                           "concurrent sweep points (0 = all hardware "
                           "threads; results are identical at any "
                           "value)")
            .range(0u, 1024u);
    }
    opts.add<unsigned>("retries", 1u,
                       "extra attempts before a failed sweep point "
                       "is skipped")
        .range(0u, 10u);
    if (all) {
        opts.add("json", "results/" + benchName + ".json",
                 "machine-readable results path (empty string "
                 "disables)");
    }
    opts.add("trace", "",
             "trace categories recorded per sweep point (e.g. "
             "dfh,ecc,l2 or all; empty disables tracing)");
    opts.add("trace-dir", "results/trace",
             "directory for per-point Chrome trace_event files "
             "(Perfetto-loadable; empty string writes none)");
    opts.add<std::uint64_t>("stats-interval", std::uint64_t{0},
                            "cycles between periodic stat snapshots "
                            "(0 disables the timeseries)");
    if (all) {
        opts.add("timeseries",
                 "results/" + benchName + ".timeseries.json",
                 "combined stat-timeseries path, written when "
                 "stats-interval > 0 (empty string disables)");
    }
}

SweepOptions
sweepOptions(const Options &opts)
{
    SweepOptions opt;
    opt.scale = opts.get<double>("scale");
    opt.warmupPasses = opts.get<unsigned>("warmup");
    // scenario= (file or inline JSON) is the whole fault
    // configuration; empty keeps the default iid scenario.
    opt.setScenario(scenarioOption(opts));
    if (opts.declares("jobs"))
        opt.jobs = opts.get<unsigned>("jobs");
    opt.retries = opts.get<unsigned>("retries");
    if (opts.declares("json"))
        opt.jsonPath = opts.get<std::string>("json");
    opt.workloads = splitList(opts.get<std::string>("workloads"));
    if (opt.workloads.empty())
        opt.workloads = workloadNames();
    opt.schemes = splitList(opts.get<std::string>("schemes"));
    if (const std::string *dup = firstDuplicate(opt.workloads))
        fatal("sweep: workload '%s' is listed twice", dup->c_str());
    if (const std::string *dup = firstDuplicate(opt.schemes))
        fatal("sweep: scheme '%s' is listed twice", dup->c_str());
    opt.trace = opts.get<std::string>("trace");
    opt.traceDir = opts.get<std::string>("trace-dir");
    opt.statsInterval =
        Cycle(opts.get<std::uint64_t>("stats-interval"));
    if (opts.declares("timeseries"))
        opt.timeseriesPath = opts.get<std::string>("timeseries");
    if (!opt.trace.empty()) {
        // Reject a bad category list before the campaign starts, not
        // from inside a worker thread.
        std::uint32_t mask = 0;
        std::string err;
        if (!parseTraceCats(opt.trace, mask, &err))
            fatal("sweep: %s", err.c_str());
    }
    return opt;
}

const std::string *
firstDuplicate(const std::vector<std::string> &names)
{
    for (auto it = names.begin(); it != names.end(); ++it) {
        if (std::find(names.begin(), it, *it) != it)
            return &*it;
    }
    return nullptr;
}

std::vector<std::string>
sweepSchemeNames()
{
    std::vector<std::string> names;
    for (const SchemeSpec &spec : schemeSpecs())
        names.push_back(spec.name);
    return names;
}

SweepResult
runEvaluationSweep(const SweepOptions &opt)
{
    // Every point of the campaign instantiates the same scenario on
    // the same geometry, so they all share one die: taken here, once,
    // on the calling thread (a recording made around this call then
    // captures the sampler's draws), and adopted by reference below.
    const std::unique_ptr<FaultModel> model =
        FaultModel::fromScenario(opt.scenario);
    const std::size_t numLines = GpuParams{}.l2Geom.numLines();
    std::shared_ptr<const FaultPopulation> die;
    if (opt.warmFaultSource)
        die = opt.warmFaultSource(*model, numLines, kLineBits);
    if (!die) {
        die = std::make_shared<const FaultPopulation>(
            model->samplePopulation(numLines, kLineBits));
    }
    // Every point runs at the scenario's first operating point, so
    // one activation of the die serves the whole campaign.
    const std::shared_ptr<const ActiveView> view = model->activeView(
        *die, kLineBits, model->voltageSchedule().front());

    // Resolve the scheme columns (validated against the subset knob).
    std::vector<SchemeSpec> specs = schemeSpecs();
    if (!opt.schemes.empty()) {
        std::vector<SchemeSpec> subset;
        for (const std::string &want : opt.schemes) {
            bool found = false;
            for (const SchemeSpec &spec : specs) {
                if (spec.name == want) {
                    subset.push_back(spec);
                    found = true;
                    break;
                }
            }
            if (!found) {
                std::string known;
                for (const SchemeSpec &spec : specs)
                    known += (known.empty() ? "" : ", ") + spec.name;
                fatal("sweep: unknown scheme '%s' (known: %s)",
                      want.c_str(), known.c_str());
            }
        }
        specs = std::move(subset);
    }

    SweepResult out;
    out.workloads.resize(opt.workloads.size());

    // Pre-size every result slot so jobs write only into memory they
    // exclusively own — the campaign result is then independent of
    // scheduling order by construction.
    std::vector<Job> jobs;
    for (std::size_t wi = 0; wi < opt.workloads.size(); ++wi) {
        const std::string wlName = opt.workloads[wi];
        WorkloadSweep &sweep = out.workloads[wi];
        sweep.workload = wlName;
        // Validates the name (fatal on a typo) before the campaign
        // starts, and records the Fig. 5 panel grouping.
        sweep.memoryBound = makeWorkload(wlName, opt.scale)
                                ->memoryBound();
        sweep.schemes.resize(specs.size());

        jobs.push_back({wlName + "/baseline",
                        [&opt, &model, &die, &view, &sweep, wlName] {
                            sweep.baseline = runPoint(
                                opt, *model, die, view, wlName, nullptr,
                                &sweep.baselineTimeseries);
                            sweep.baselineOk = true;
                        }});
        for (std::size_t si = 0; si < specs.size(); ++si) {
            SchemeRun &slot = sweep.schemes[si];
            const SchemeSpec &spec = specs[si];
            slot.scheme = spec.name;
            slot.areaOverheadFrac = spec.areaOverheadFrac;
            slot.powerKey = spec.powerKey;
            jobs.push_back(
                {wlName + "/" + spec.name,
                 [&opt, &model, &die, &view, &slot, &spec, wlName] {
                     slot.result = runPoint(opt, *model, die, view,
                                            wlName, &spec,
                                            &slot.timeseries);
                     slot.ok = true;
                 }});
        }
    }

    // Jobs append trace files concurrently; create the directory
    // once, up front, instead of racing create_directories in every
    // worker.
    if (!opt.trace.empty() && !opt.traceDir.empty())
        std::filesystem::create_directories(opt.traceDir);

    // Point-completion progress: wrap each job so the observer sees
    // a done/total tally maintained across concurrent workers.
    std::atomic<std::size_t> pointsDone{0};
    if (opt.onProgress) {
        const std::size_t total = jobs.size();
        for (Job &job : jobs) {
            const auto inner = std::move(job.work);
            const std::string pointName = job.name;
            job.work = [&opt, &pointsDone, total, pointName, inner] {
                inner();
                SweepProgress p;
                p.point = pointName;
                p.pointDone = true;
                p.pointsDone =
                    pointsDone.fetch_add(1,
                                         std::memory_order_relaxed) +
                    1;
                p.pointsTotal = total;
                opt.onProgress(p);
            };
        }
    }

    RunnerOptions ropt;
    ropt.jobs = opt.jobs;
    ropt.retries = opt.retries;
    ropt.cancel = opt.cancel;
    ExperimentRunner runner(ropt);
    out.campaign = runner.run(jobs);
    out.campaign.warnOnFailures();

    // A workload without its baseline cannot be normalized; drop it
    // rather than divide by zero in every table.
    for (auto it = out.workloads.begin(); it != out.workloads.end();) {
        if (!it->baselineOk) {
            warn("sweep: dropping workload '%s' (baseline point "
                 "failed)",
                 it->workload.c_str());
            it = out.workloads.erase(it);
        } else {
            ++it;
        }
    }
    if (out.workloads.empty()) {
        // A cancelled campaign legitimately ends with nothing
        // completed; that is a job outcome for the embedder (the
        // serving daemon reports "cancelled"), not a config error.
        if (opt.cancel && opt.cancel->cancelled()) {
            warn("sweep: campaign cancelled before any baseline "
                 "point completed");
            return out;
        }
        fatal("sweep: no workload completed its baseline point");
    }
    return out;
}

Json
sweepToJson(const SweepOptions &opt, const SweepResult &result)
{
    Json sweepObj = Json::object();
    sweepObj.set("scale", Json::number(opt.scale));
    sweepObj.set("warmup", Json::number(std::int64_t(opt.warmupPasses)));
    sweepObj.set("voltage", Json::number(opt.voltage));
    sweepObj.set("seed", Json::number(std::uint64_t(opt.seed)));
    sweepObj.set("jobs", Json::number(std::int64_t(opt.jobs)));
    sweepObj.set("scenario", opt.scenario.toJson());

    Json workloadArray = Json::array();
    for (const WorkloadSweep &sweep : result.workloads) {
        Json wlObj = Json::object();
        wlObj.set("workload", Json::string(sweep.workload));
        wlObj.set("memory_bound", Json::boolean(sweep.memoryBound));
        wlObj.set("baseline", sweep.baseline.toJson());
        Json schemeArray = Json::array();
        for (const SchemeRun &run : sweep.schemes) {
            Json runObj = Json::object();
            runObj.set("scheme", Json::string(run.scheme));
            runObj.set("ok", Json::boolean(run.ok));
            runObj.set("area_overhead_frac",
                       Json::number(run.areaOverheadFrac));
            runObj.set("power_key", Json::string(run.powerKey));
            if (run.ok) {
                runObj.set("result", run.result.toJson());
                runObj.set("normalized_time",
                           Json::number(
                               double(run.result.cycles) /
                               double(sweep.baseline.cycles)));
            }
            schemeArray.push(std::move(runObj));
        }
        wlObj.set("schemes", std::move(schemeArray));
        workloadArray.push(std::move(wlObj));
    }

    Json doc = Json::object();
    doc.set("sweep", std::move(sweepObj));
    doc.set("workloads", std::move(workloadArray));
    doc.set("campaign", result.campaign.toJson());
    return doc;
}

Json
timeseriesToJson(const SweepOptions &opt, const SweepResult &result)
{
    Json doc = Json::object();
    doc.set("interval",
            Json::number(std::uint64_t(opt.statsInterval)));
    Json workloadArray = Json::array();
    for (const WorkloadSweep &sweep : result.workloads) {
        Json wlObj = Json::object();
        wlObj.set("workload", Json::string(sweep.workload));
        Json points = Json::array();
        Json base = Json::object();
        base.set("scheme", Json::string("baseline"));
        base.set("timeseries", sweep.baselineTimeseries);
        points.push(std::move(base));
        for (const SchemeRun &run : sweep.schemes) {
            if (!run.ok)
                continue;
            Json pt = Json::object();
            pt.set("scheme", Json::string(run.scheme));
            pt.set("timeseries", run.timeseries);
            points.push(std::move(pt));
        }
        wlObj.set("points", std::move(points));
        workloadArray.push(std::move(wlObj));
    }
    doc.set("workloads", std::move(workloadArray));
    return doc;
}

void
writeSweepJson(const Options &opts, const SweepOptions &opt,
               const SweepResult &result)
{
    if (!opt.jsonPath.empty()) {
        Json doc = Json::object();
        doc.set("bench", Json::string(opts.program()));
        doc.set("options", opts.toJson());
        const Json body = sweepToJson(opt, result);
        for (const auto &[key, value] : body.members())
            doc.set(key, value);
        writeJsonFile(opt.jsonPath, doc);
        inform("wrote %s", opt.jsonPath.c_str());
    }
    if (opt.statsInterval && !opt.timeseriesPath.empty()) {
        writeJsonFile(opt.timeseriesPath,
                      timeseriesToJson(opt, result));
        inform("wrote %s", opt.timeseriesPath.c_str());
    }
}

} // namespace killi
