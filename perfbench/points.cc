#include "perfbench/points.hh"

#include <functional>
#include <map>
#include <mutex>

#include "analysis/area.hh"
#include "baselines/precharacterized.hh"
#include "common/log.hh"
#include "common/hash.hh"
#include "fault/fault_model.hh"
#include "gpu/gpu_system.hh"
#include "gpu/workload.hh"
#include "killi/killi.hh"
#include "runner/runner.hh"
#include "trace/trace.hh"

namespace kbench
{

using namespace killi;

namespace
{

/** Width of every sweep point's fault map (bench/sweep.cc). */
constexpr std::size_t kLineBits = 720;

using Population = std::vector<std::vector<FaultCell>>;
using PopulationSource = std::function<std::shared_ptr<const Population>(
    const FaultModel &, std::size_t, std::size_t)>;

/** One scheme column, as bench/sweep.cc's schemeSpecs() defines it. */
struct SchemeDef
{
    std::string name;
    double areaOverheadFrac;
    std::string powerKey;
    std::size_t killiRatio; //!< 0 for the pre-characterized baselines
    std::unique_ptr<ProtectionScheme> (*make)(FaultMap &);
};

std::unique_ptr<ProtectionScheme>
makeDected(FaultMap &f)
{
    return makeDectedLine(f);
}

std::unique_ptr<ProtectionScheme>
makeFlairScheme(FaultMap &f)
{
    return makeFlair(f);
}

std::unique_ptr<ProtectionScheme>
makeMsEccScheme(FaultMap &f)
{
    return makeMsEcc(f);
}

const std::vector<SchemeDef> &
schemeDefs()
{
    static const std::vector<SchemeDef> defs = [] {
        std::vector<SchemeDef> d;
        d.push_back({"DECTED",
                     area::baseline(CodeKind::Dected).pctOverL2 / 100.0,
                     "dected", 0, makeDected});
        d.push_back({"FLAIR",
                     area::baseline(CodeKind::Secded).pctOverL2 / 100.0,
                     "flair", 0, makeFlairScheme});
        d.push_back({"MS-ECC",
                     area::baseline(CodeKind::Olsc11).pctOverL2 / 100.0,
                     "msecc", 0, makeMsEccScheme});
        for (const std::size_t ratio : {256, 128, 64, 32, 16}) {
            d.push_back({"Killi 1:" + std::to_string(ratio),
                         area::killi(ratio).pctOverL2 / 100.0, "killi",
                         ratio, nullptr});
        }
        return d;
    }();
    return defs;
}

const SchemeDef &
schemeDef(const std::string &name)
{
    for (const SchemeDef &d : schemeDefs()) {
        if (d.name == name)
            return d;
    }
    fatal("kbench: unknown scheme '%s'", name.c_str());
}

/** One sweep point, through the same public calls as bench/sweep.cc's
 *  runPoint(), in the same order. */
RunResult
runPoint(const ScenarioSpec &scenario, double scale, unsigned warmup,
         const std::string &wlName, const SchemeDef *scheme,
         const PopulationSource &warm, Tracer *tracer,
         std::uint64_t parent, PointCounts *counts)
{
    const std::string request =
        wlName + "/" + (scheme ? scheme->name : "baseline");
    Span point(tracer, "sweep.point", parent, request);
    std::unique_ptr<FaultModel> model;
    {
        Span s(tracer, "fault.model", point.id(), request);
        model = FaultModel::fromScenario(scenario);
    }
    GpuParams gp;
    std::unique_ptr<FaultMap> faults;
    {
        Span s(tracer, "fault.build_map", point.id(), request);
        if (warm) {
            if (const auto pop =
                    warm(*model, gp.l2Geom.numLines(), kLineBits))
                faults = model->buildMapFrom(*pop, kLineBits);
        }
        if (!faults)
            faults = model->buildMap(gp.l2Geom.numLines(), kLineBits);
    }
    std::unique_ptr<Workload> wl;
    {
        Span s(tracer, "gpu.workload", point.id(), request);
        wl = makeWorkload(wlName, scale);
    }
    TraceSink sink; // bench/sweep.cc builds one per point, traced or not
    std::unique_ptr<ProtectionScheme> prot;
    FaultFreeProtection baseline;
    ProtectionScheme *active = &baseline;
    if (scheme) {
        Span s(tracer, scheme->killiRatio ? "killi.build" : "baselines.build",
               point.id(), request);
        if (scheme->killiRatio) {
            KilliParams kp;
            kp.ratio = scheme->killiRatio;
            prot = std::make_unique<KilliProtection>(*faults, kp);
        } else {
            prot = scheme->make(*faults);
        }
        active = prot.get();
    }
    std::unique_ptr<GpuSystem> sys;
    {
        Span s(tracer, "gpu.build", point.id(), request);
        sys = std::make_unique<GpuSystem>(gp, *active, *wl);
    }
    RunResult result;
    {
        Span s(tracer, "gpu.run", point.id(), request);
        result = sys->run(warmup);
    }
    if (counts) {
        counts->events = sys->eventQueue().eventsExecuted();
        counts->l2Accesses = result.l2Accesses();
    }
    return result;
}

} // namespace

bool
schemeTableMatches(std::string *why)
{
    std::vector<std::string> ours;
    for (const SchemeDef &d : schemeDefs())
        ours.push_back(d.name);
    if (ours == sweepSchemeNames())
        return true;
    *why = "the benchmark's scheme table differs from sweepSchemeNames()";
    return false;
}

SweepResult
tracedCampaign(const SweepOptions &opt, Tracer *tracer,
               PointCounts &counts)
{
    std::vector<const SchemeDef *> specs;
    if (opt.schemes.empty()) {
        for (const SchemeDef &d : schemeDefs())
            specs.push_back(&d);
    }
    for (const std::string &name : opt.schemes)
        specs.push_back(&schemeDef(name));

    Span campaign(tracer, "runner.campaign", 0, "campaign");
    SweepResult out;
    out.workloads.resize(opt.workloads.size());
    const std::size_t perWorkload = specs.size() + 1;
    std::vector<PointCounts> pointCounts(opt.workloads.size() *
                                         perWorkload);
    std::vector<Job> jobs;
    for (std::size_t wi = 0; wi < opt.workloads.size(); ++wi) {
        const std::string wlName = opt.workloads[wi];
        WorkloadSweep &sweep = out.workloads[wi];
        sweep.workload = wlName;
        {
            Span s(tracer, "gpu.workload", campaign.id(), wlName);
            sweep.memoryBound =
                makeWorkload(wlName, opt.scale)->memoryBound();
        }
        sweep.schemes.resize(specs.size());
        const std::uint64_t parent = campaign.id();
        PointCounts *base = &pointCounts[wi * perWorkload];
        jobs.push_back({wlName + "/baseline", [&opt, &sweep, wlName,
                                               tracer, parent, base] {
                            sweep.baseline = runPoint(
                                opt.scenario, opt.scale, opt.warmupPasses,
                                wlName, nullptr, {}, tracer, parent, base);
                            sweep.baselineOk = true;
                        }});
        for (std::size_t si = 0; si < specs.size(); ++si) {
            SchemeRun &slot = sweep.schemes[si];
            const SchemeDef *spec = specs[si];
            slot.scheme = spec->name;
            slot.areaOverheadFrac = spec->areaOverheadFrac;
            slot.powerKey = spec->powerKey;
            PointCounts *pc = base + 1 + si;
            jobs.push_back({wlName + "/" + spec->name,
                            [&opt, &slot, spec, wlName, tracer, parent,
                             pc] {
                                slot.result = runPoint(
                                    opt.scenario, opt.scale,
                                    opt.warmupPasses, wlName, spec, {},
                                    tracer, parent, pc);
                                slot.ok = true;
                            }});
        }
    }
    RunnerOptions ropt;
    ropt.jobs = opt.jobs;
    ropt.retries = opt.retries;
    out.campaign = ExperimentRunner(ropt).run(jobs);
    out.campaign.warnOnFailures();
    for (const PointCounts &pc : pointCounts) {
        counts.events += pc.events;
        counts.l2Accesses += pc.l2Accesses;
    }
    return out;
}

std::vector<Json>
referenceWorkloads(const std::vector<JobOptions> &jobOpts, double scale,
                   unsigned warmup, unsigned threads, Tracer *tracer,
                   Report &report)
{
    // Every distinct point once, keyed by die, workload and scheme.
    struct PointSlot
    {
        ScenarioSpec scenario;
        std::string workload;
        const SchemeDef *scheme = nullptr;
        bool ok = false;
        RunResult result;
    };
    std::map<std::string, PointSlot> points;
    std::map<std::string, bool> memoryBound;
    const auto pointKey = [](const ScenarioSpec &sc, const std::string &wl,
                             const std::string &scheme) {
        return sc.toJson().toString(0) + "|" + wl + "|" + scheme;
    };
    for (const JobOptions &job : jobOpts) {
        for (const std::string &wl : job.workloads) {
            memoryBound[wl] = false;
            points[pointKey(job.scenario, wl, "baseline")] = {
                job.scenario, wl, nullptr, false, {}};
            for (const std::string &s : job.schemes) {
                points[pointKey(job.scenario, wl, s)] = {
                    job.scenario, wl, &schemeDef(s), false, {}};
            }
        }
    }
    for (auto &[wl, bound] : memoryBound)
        bound = makeWorkload(wl, scale)->memoryBound();

    // Sample every die once, in parallel, then run the points, each
    // adopting its die's population as the daemon's warm store does.
    RunnerOptions ropt;
    ropt.jobs = threads;
    ropt.verbose = false;
    const std::size_t lines = GpuParams{}.l2Geom.numLines();
    std::map<std::string, std::shared_ptr<const Population>> dies;
    for (const JobOptions &job : jobOpts)
        dies[job.scenario.toJson().toString(0)] = nullptr;
    std::vector<Job> sampling;
    for (auto &[key, pop] : dies) {
        auto *slot = &pop;
        const ScenarioSpec sc = ScenarioSpec::fromString(key);
        sampling.push_back({key, [slot, sc, lines, tracer] {
                                const auto model = FaultModel::fromScenario(sc);
                                std::unique_ptr<FaultMap> map;
                                {
                                    Span s(tracer, "fault.build_map", 0, "die");
                                    map = model->buildMap(lines, kLineBits);
                                }
                                *slot = std::make_shared<const Population>(
                                    map->population());
                            }});
    }
    const PopulationSource warm =
        [&dies](const FaultModel &model, std::size_t, std::size_t) {
            return dies.at(model.spec().toJson().toString(0));
        };
    std::vector<Job> jobs;
    for (auto &[key, slot] : points) {
        PointSlot *p = &slot;
        jobs.push_back({key, [p, &warm, scale, warmup, tracer] {
                            p->result = runPoint(p->scenario, scale, warmup,
                                                 p->workload, p->scheme,
                                                 warm, tracer, 0, nullptr);
                            p->ok = true;
                        }});
    }
    if (!ExperimentRunner(ropt).run(sampling).allOk() ||
        !ExperimentRunner(ropt).run(jobs).allOk())
        report.fail("serve_mix: an in-process reference point failed");

    std::vector<Json> out;
    for (const JobOptions &job : jobOpts) {
        SweepOptions opt;
        opt.scenario = job.scenario;
        opt.scale = scale;
        opt.warmupPasses = warmup;
        SweepResult res;
        for (const std::string &wl : job.workloads) {
            WorkloadSweep sweep;
            sweep.workload = wl;
            sweep.memoryBound = memoryBound[wl];
            const PointSlot &b = points[pointKey(job.scenario, wl, "baseline")];
            sweep.baselineOk = b.ok;
            sweep.baseline = b.result;
            for (const std::string &s : job.schemes) {
                const PointSlot &p = points[pointKey(job.scenario, wl, s)];
                SchemeRun run;
                run.scheme = s;
                run.ok = p.ok;
                run.result = p.result;
                run.areaOverheadFrac = p.scheme->areaOverheadFrac;
                run.powerKey = p.scheme->powerKey;
                sweep.schemes.push_back(std::move(run));
            }
            res.workloads.push_back(std::move(sweep));
        }
        out.push_back(sweepToJson(opt, res).at("workloads"));
    }
    return out;
}

std::string
workloadsDigest(const Json &workloads)
{
    return sha256Hex(workloads.toString(0));
}

} // namespace kbench
