/**
 * @file
 * classify_scenarios: bench/scenarios.cc's classification run on an
 * L2-sized array. Each of the four default scenario classes (iid,
 * clustered, burst, droop) is stepped through runVoltageSweep with
 * Killi, SECDED and DECTED attached and driven directly, without the
 * event loop. One unit of timed work is one pass over the four
 * classes; one operation is one fill/read/evict generation over the
 * whole array while Killi learns (the workout repeats generations until
 * the DFH states settle).
 *
 * The fill/read/evict workout and the per-point report below repeat
 * bench/scenarios.cc step for step (it keeps them inside main()), so
 * the per-scenario table is the one `scenarios lines=N seed=S` prints.
 */

#include <array>
#include <memory>

#include "baselines/precharacterized.hh"
#include "common/bitvec.hh"
#include "common/hash.hh"
#include "common/rng.hh"
#include "fault/fault_model.hh"
#include "fault/sweep_engine.hh"
#include "killi/killi.hh"
#include "perfbench/kbench.hh"

namespace kbench
{

using namespace killi;

namespace
{

constexpr std::size_t kKilliPhysBits = 516;
constexpr std::size_t kMapBits = 720;
constexpr std::size_t kDataBits = 512;
constexpr unsigned kPasses = 4;
constexpr unsigned kMaxIters = 512;
constexpr std::size_t kRatio = 64;

class Host : public L2Backdoor
{
  public:
    explicit Host(std::size_t lines) : resident(lines, false) {}
    void invalidateLine(std::size_t lineId) override
    {
        resident[lineId] = false;
    }
    Tick now() const override { return tick; }
    Tick tick = 0;
    std::vector<bool> resident;
};

struct StepCounters
{
    std::uint64_t sdc = 0;
    std::uint64_t errorMisses = 0;
};

void
fillAll(KilliProtection &prot, Host &host, const std::vector<BitVec> &data)
{
    for (std::size_t line = 0; line < host.resident.size(); ++line) {
        ++host.tick;
        if (host.resident[line] || !prot.canAllocate(line))
            continue;
        prot.onFill(line, data[line]);
        host.resident[line] = true;
    }
}

void
readPass(KilliProtection &prot, Host &host, const std::vector<BitVec> &data,
         StepCounters &ctr)
{
    for (std::size_t line = 0; line < host.resident.size(); ++line) {
        ++host.tick;
        if (!host.resident[line])
            continue;
        const AccessResult res = prot.onReadHit(line, data[line]);
        ctr.sdc += res.sdc;
        if (res.errorInducedMiss) {
            ++ctr.errorMisses;
            host.resident[line] = false;
            prot.onInvalidate(line);
        } else {
            prot.onTouch(line);
        }
    }
}

void
evictAll(KilliProtection &prot, Host &host, const std::vector<BitVec> &data)
{
    for (std::size_t line = 0; line < host.resident.size(); ++line) {
        ++host.tick;
        if (!host.resident[line])
            continue;
        prot.onEvict(line, data[line]);
        prot.onInvalidate(line);
        host.resident[line] = false;
    }
}

/** Fill/read/evict generations until the DFH states settle, then the
 *  settle reads. Appends each generation's host time to @p genMs. */
StepCounters
workout(KilliProtection &prot, Host &host, const std::vector<BitVec> &data,
        std::vector<double> &genMs)
{
    StepCounters ctr;
    fillAll(prot, host, data);
    std::size_t prevInitial = ~std::size_t{0};
    unsigned quiescent = 0;
    for (unsigned iter = 0; iter < kMaxIters && quiescent < 2; ++iter) {
        const auto t0 = Clock::now();
        readPass(prot, host, data, ctr);
        evictAll(prot, host, data);
        fillAll(prot, host, data);
        genMs.push_back(secondsSince(t0) * 1e3);
        const std::size_t initial =
            prot.dfhHistogram()[static_cast<std::size_t>(Dfh::Initial)];
        if (initial == prevInitial) {
            ++quiescent;
        } else {
            quiescent = 0;
            prevInitial = initial;
        }
    }
    for (unsigned p = 0; p < kPasses; ++p) {
        readPass(prot, host, data, ctr);
        fillAll(prot, host, data);
    }
    return ctr;
}

/** One operating point's row, in bench/scenarios.cc's JSON shape. */
Json
measure(const FaultMap &map, const KilliProtection &prot,
        const PrecharacterizedScheme &secded,
        const PrecharacterizedScheme &dected,
        const std::vector<BitVec> &data, double voltage, StepCounters ctr)
{
    std::array<std::size_t, 3> truth{};
    std::array<std::size_t, 4> dfh{};
    std::array<std::array<std::size_t, 4>, 3> confusion{};
    std::size_t reclaimed = 0, atRisk = 0, overDisabled = 0;
    for (std::size_t line = 0; line < data.size(); ++line) {
        const unsigned n = map.countFaults(line, kKilliPhysBits);
        const unsigned t = n >= 2 ? 2u : n;
        const auto d = static_cast<std::size_t>(prot.dfhOf(line));
        ++truth[t];
        ++dfh[d];
        ++confusion[t][d];
        const bool enabled = prot.dfhOf(line) != Dfh::Disabled;
        if (t >= 2 && enabled)
            ++reclaimed;
        if (t < 2 && !enabled)
            ++overDisabled;
        if (enabled && map.visibleErrors(line, data[line]).size() >= 2)
            ++atRisk;
    }
    const auto num = [](std::size_t v) {
        return Json::number(std::uint64_t(v));
    };
    Json point = Json::object();
    point.set("voltage", Json::number(voltage));
    Json t = Json::object();
    t.set("clean", num(truth[0]));
    t.set("single", num(truth[1]));
    t.set("multi", num(truth[2]));
    point.set("truth", std::move(t));
    Json d = Json::object();
    d.set("stable0", num(dfh[0]));
    d.set("initial", num(dfh[1]));
    d.set("stable1", num(dfh[2]));
    d.set("disabled", num(dfh[3]));
    point.set("dfh", std::move(d));
    Json conf = Json::array();
    for (const auto &row : confusion) {
        Json r = Json::array();
        for (const std::size_t n : row)
            r.push(num(n));
        conf.push(std::move(r));
    }
    point.set("confusion", std::move(conf));
    Json usable = Json::object();
    usable.set("killi", num(prot.usableLines()));
    usable.set("secded", num(secded.usableLines()));
    usable.set("dected", num(dected.usableLines()));
    point.set("usable", std::move(usable));
    point.set("reclaimed", num(reclaimed));
    point.set("at_risk", num(atRisk));
    point.set("over_disabled", num(overDisabled));
    point.set("sdc", Json::number(ctr.sdc));
    point.set("error_misses", Json::number(ctr.errorMisses));
    return point;
}

std::vector<std::pair<std::string, ScenarioSpec>>
defaultSpecs(std::uint64_t seed)
{
    const double voltage = 0.625;
    std::vector<std::pair<std::string, ScenarioSpec>> specs;
    ScenarioSpec base;
    base.seed = seed;
    base.voltage = voltage;
    specs.emplace_back("iid", base);
    ScenarioSpec clustered = base;
    clustered.model = "clustered";
    specs.emplace_back("clustered", clustered);
    ScenarioSpec burst = base;
    burst.model = "burst";
    specs.emplace_back("burst", burst);
    ScenarioSpec droop = base;
    droop.model = "droop";
    droop.droop.base = "clustered";
    droop.droop.schedule = {voltage, 0.600, 0.575, voltage};
    specs.emplace_back("droop", droop);
    return specs;
}

/** What the workload prepares before its first timed pass. */
struct Inputs
{
    std::vector<std::pair<std::string, ScenarioSpec>> specs;
    std::vector<BitVec> data;
    CacheGeometry geom;
};

Inputs
makeInputs(const RunArgs &args)
{
    const std::size_t lines = args.shape.classifyLines;
    Inputs in{defaultSpecs(args.seed), std::vector<BitVec>(lines, BitVec(kDataBits)),
              CacheGeometry{lines * 64, 16, 64, 2}};
    Rng dataRng(args.seed ^ 0x9e3779b97f4a7c15ULL);
    for (BitVec &line : in.data)
        line.randomize(dataRng);
    return in;
}

struct PassOut
{
    Json table = Json::array();
    std::vector<double> generationMs;
    std::size_t coldActivations = 0;
};

/** One pass over the four classes. */
PassOut
classifyPass(const Inputs &in, Tracer *tracer)
{
    PassOut out;
    KilliParams kp;
    kp.ratio = kRatio;
    const std::size_t lines = in.data.size();
    for (const auto &[name, spec] : in.specs) {
        std::unique_ptr<FaultModel> model;
        {
            Span s(tracer, "fault.model", 0, name);
            model = FaultModel::fromScenario(spec);
        }
        std::unique_ptr<FaultMap> mapKeep;
        Host host(lines);
        std::unique_ptr<KilliProtection> prot;
        std::unique_ptr<PrecharacterizedScheme> secded;
        std::unique_ptr<PrecharacterizedScheme> dected;
        Json points = Json::array();
        const std::vector<double> schedule = model->voltageSchedule();
        Span sweep(tracer, "fault.sweep", 0, name);
        const VoltageSweepStats stats = runVoltageSweep(
            *model, lines, kMapBits, schedule,
            [&](std::size_t, double v, FaultMap &map) {
                Span cb(tracer, "killi.classify", sweep.id(), name);
                if (!prot) {
                    {
                        Span s(tracer, "killi.build", cb.id(), name);
                        prot = std::make_unique<KilliProtection>(map, kp);
                    }
                    prot->attach(host, in.geom);
                    {
                        Span s(tracer, "baselines.build", cb.id(), name);
                        secded = makeSecdedLine(map);
                    }
                    secded->attach(host, in.geom);
                    {
                        Span s(tracer, "baselines.build", cb.id(), name);
                        dected = makeDectedLine(map);
                    }
                    dected->attach(host, in.geom);
                } else {
                    secded->reset();
                    dected->reset();
                    prot->onMaintenance();
                }
                const StepCounters ctr =
                    workout(*prot, host, in.data, out.generationMs);
                points.push(measure(map, *prot, *secded, *dected, in.data,
                                    v, ctr));
            },
            &mapKeep);
        sweep.end();
        out.coldActivations += stats.coldActivations;
        Json entry = Json::object();
        entry.set("name", Json::string(name));
        entry.set("spec", spec.toJson());
        entry.set("points", std::move(points));
        out.table.push(std::move(entry));
    }
    return out;
}

/** Sanity checks on one pass's table, whatever the seed. */
void
checkPass(const PassOut &pass, std::size_t lines, Report &report)
{
    for (std::size_t i = 0; i < pass.table.size(); ++i) {
        const Json &points = pass.table.at(i).at("points");
        for (std::size_t p = 0; p < points.size(); ++p) {
            ++report.attempted;
            const Json &pt = points.at(p);
            std::uint64_t truth = 0, dfh = 0;
            for (const char *k : {"clean", "single", "multi"})
                truth += std::uint64_t(pt.at("truth").at(k).asInt());
            for (const char *k : {"stable0", "initial", "stable1", "disabled"})
                dfh += std::uint64_t(pt.at("dfh").at(k).asInt());
            if (truth != lines || dfh != lines) {
                ++report.failed;
                report.fail("classify: a point's line counts do not add up");
            }
        }
    }
}

} // namespace

void
prepareClassify(const RunArgs &args)
{
    (void)makeInputs(args);
}

void
runClassifyWorkload(const RunArgs &args, Report &report)
{
    const Inputs in = makeInputs(args);
    std::vector<double> walls;
    std::vector<double> opMs;
    std::string digest;
    Json table;
    std::size_t coldActivations = 0;
    const auto start = Clock::now();
    while (anotherRep(start, args.seconds, walls)) {
        const auto t0 = Clock::now();
        PassOut pass = classifyPass(in, nullptr);
        walls.push_back(secondsSince(t0));
        checkPass(pass, in.data.size(), report);
        opMs.insert(opMs.end(), pass.generationMs.begin(),
                    pass.generationMs.end());
        const std::string d = sha256Hex(pass.table.toString(0));
        if (!digest.empty() && d != digest)
            report.fail("two classify passes at one seed gave different tables");
        digest = d;
        coldActivations = pass.coldActivations;
        table = std::move(pass.table);
    }
    report.digest = digest;
    // The same document `scenarios json=...` writes its table into.
    Json doc = Json::object();
    doc.set("scenarios", std::move(table));
    writeJsonFile(args.outDir + "/" + args.workload + ".json", doc);
    const double wall = median(walls);
    report.info.set("passes", Json::number(std::uint64_t(walls.size())));
    report.info.set("generations",
                    Json::number(std::uint64_t(opMs.size())));
    if (!args.trace) {
        report.samples["setup_s"] = setupSamples(args, kSetupProbes, report);
        report.samples["wall_s"] = walls;
        report.samples["op_ms"] = opMs;
        report.metric("peak_rss_mb", selfPeakRssMb(), "MiB");
        return;
    }
    Tracer tracer;
    const auto t0 = Clock::now();
    const PassOut traced = classifyPass(in, &tracer);
    const double tracedWall = secondsSince(t0);
    checkPass(traced, in.data.size(), report);
    if (sha256Hex(traced.table.toString(0)) != digest)
        report.fail("traced classify pass differs from the untraced one");
    finishTrace(args, tracer, report);
    report.metric("trace.overhead_s", tracedWall - wall, "s");
    report.metric("fault.cold_activations", double(coldActivations), "count");
}

} // namespace kbench
