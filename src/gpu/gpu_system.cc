#include "gpu/gpu_system.hh"

#include "common/log.hh"

namespace killi
{

namespace
{

/** Field table driving RunResult's JSON round trip. */
struct ResultField
{
    const char *key;
    std::uint64_t RunResult::*member;
};

constexpr ResultField kResultFields[] = {
    {"instructions", &RunResult::instructions},
    {"l2_read_hits", &RunResult::l2ReadHits},
    {"l2_read_misses", &RunResult::l2ReadMisses},
    {"l2_error_misses", &RunResult::l2ErrorMisses},
    {"l2_write_hits", &RunResult::l2WriteHits},
    {"l2_write_misses", &RunResult::l2WriteMisses},
    {"l2_evictions", &RunResult::l2Evictions},
    {"l2_prot_invalidations", &RunResult::l2ProtInvalidations},
    {"l2_bypass_fills", &RunResult::l2BypassFills},
    {"sdc", &RunResult::sdc},
    {"dram_reads", &RunResult::dramReads},
    {"dram_writes", &RunResult::dramWrites},
};

} // namespace

Json
RunResult::toJson() const
{
    Json doc = Json::object();
    doc.set("cycles", Json::number(std::uint64_t(cycles)));
    for (const ResultField &field : kResultFields)
        doc.set(field.key, Json::number(this->*field.member));
    // Derived, for consumers that don't want to recompute it.
    doc.set("mpki", Json::number(mpki()));
    return doc;
}

RunResult
RunResult::fromJson(const Json &doc)
{
    RunResult r;
    r.cycles = Cycle(doc.at("cycles").asInt());
    for (const ResultField &field : kResultFields)
        r.*field.member = std::uint64_t(doc.at(field.key).asInt());
    return r;
}

GpuSystem::GpuSystem(const GpuParams &params,
                     ProtectionScheme &protection_,
                     const Workload &wl, FaultMap *fault_map)
    : p(params), protection(protection_), workload(wl),
      golden(params.l2Geom.lineBytes), series(params.statsInterval)
{
    dram = std::make_unique<DramModel>(p.dram);
    l2Cache = std::make_unique<L2Cache>(eq, *dram, golden, protection,
                                        p.l2Geom, p.l2, fault_map);
    eq.setTrace(p.l2.trace);
    for (unsigned cu = 0; cu < p.numCus; ++cu) {
        l1s.push_back(std::make_unique<L1Cache>(p.l1Geom));
        cus.push_back(std::make_unique<ComputeUnit>(
            cu, eq, *l1s.back(), *l2Cache, workload, p.l1Latency,
            [this] { --wavefrontsRemaining; }));
    }

    if (p.statsInterval) {
        series.addSource("instructions", [this] {
            return double(measuredInstructions());
        });
        series.addSource("l2_read_hits", [this] {
            return double(l2Cache->stats().readHits);
        });
        series.addSource("l2_read_misses", [this] {
            return double(l2Cache->stats().readMisses);
        });
        series.addSource("l2_error_misses", [this] {
            return double(l2Cache->stats().errorMisses);
        });
        // Same definition as RunResult::mpki(), evaluated mid-run:
        // the final post-run sample matches the aggregate result.
        series.addSource("mpki", [this] {
            const L2Stats &l2s = l2Cache->stats();
            const double misses =
                double(l2s.readMisses) + double(l2s.errorMisses);
            const std::uint64_t instr = measuredInstructions();
            return instr ? misses * 1000.0 / double(instr) : 0.0;
        });
        protection.addTimeseriesSources(series);
        eq.setPeriodic(p.statsInterval,
                       [this] { series.sample(eq.curTick()); });
    }
}

std::uint64_t
GpuSystem::measuredInstructions() const
{
    std::uint64_t total = 0;
    for (const auto &cu : cus)
        total += cu->instructions();
    return total - instrBase;
}

void
GpuSystem::runPass()
{
    // Warnings emitted mid-simulation carry the simulated cycle.
    ScopedLogClock clock([this] { return eq.curTick(); });

    wavefrontsRemaining = p.numCus * workload.wavefrontsPerCu();
    for (auto &cu : cus)
        cu->start();
    KTRACE(p.l2.trace, eq.curTick(), TraceCat::Gpu, "gpu.pass_start",
           {"wavefronts", wavefrontsRemaining});

    const bool drained = eq.run(p.maxCycles);
    if (!drained)
        warn("GpuSystem: hit the %llu-cycle safety limit",
             static_cast<unsigned long long>(p.maxCycles));
    if (wavefrontsRemaining != 0)
        panic("GpuSystem: %u wavefronts never completed",
              wavefrontsRemaining);
    KTRACE(p.l2.trace, eq.curTick(), TraceCat::Gpu, "gpu.pass_done",
           {"executed", eq.eventsExecuted()});
}

RunResult
GpuSystem::run(unsigned warmupPasses)
{
    Tick cycleBase = 0;
    instrBase = 0;
    for (unsigned pass = 0; pass < warmupPasses; ++pass) {
        runPass();
        cycleBase = eq.curTick();
        instrBase = 0;
        for (const auto &cu : cus)
            instrBase += cu->instructions();
        l2Cache->resetStats();
        dram->resetStats();
        // The measured region starts clean: warmup samples would mix
        // pre-reset counter values into the series.
        series.clearSamples();
    }

    runPass();
    if (p.statsInterval) {
        // Terminal snapshot: the series always ends at the final
        // tick, consistent with the aggregate RunResult.
        series.sample(eq.curTick());
    }

    RunResult r;
    r.cycles = eq.curTick() - cycleBase;
    for (const auto &cu : cus)
        r.instructions += cu->instructions();
    r.instructions -= instrBase;
    const L2Stats &l2s = l2Cache->stats();
    r.l2ReadHits = l2s.readHits;
    r.l2ReadMisses = l2s.readMisses;
    r.l2ErrorMisses = l2s.errorMisses;
    r.l2WriteHits = l2s.writeHits;
    r.l2WriteMisses = l2s.writeMisses;
    r.l2Evictions = l2s.evictions;
    r.l2ProtInvalidations = l2s.protInvalidations;
    r.l2BypassFills = l2s.bypassFills;
    r.sdc = l2s.sdc;
    r.dramReads = dram->stats().reads;
    r.dramWrites = dram->stats().writes;
    return r;
}

} // namespace killi
