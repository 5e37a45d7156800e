#include "baselines/precharacterized.hh"

#include "common/log.hh"

namespace killi
{

PrecharacterizedScheme::PrecharacterizedScheme(FaultMap &fault_map,
                                               const PrecharParams &params)
    : faults(fault_map), p(params)
{
    if (!p.behavioral)
        code = makeCode(p.kind, 512);
}

std::size_t
PrecharacterizedScheme::physBits() const
{
    if (p.behavioral)
        return 512 + paperCheckBits(p.kind);
    return 512 + p.checkBitsInArray;
}

void
PrecharacterizedScheme::attach(L2Backdoor &backdoor,
                               const CacheGeometry &geom)
{
    ProtectionScheme::attach(backdoor, geom);
    enabled.assign(geom.numLines(), true);
    reset();
}

void
PrecharacterizedScheme::reset()
{
    // The MBIST bitmapping pass: every line is pattern-tested and
    // flagged enabled/disabled. (The paper excludes this phase from
    // the reported execution times; so do we.)
    for (std::size_t i = 0; i < enabled.size(); ++i) {
        const unsigned n = faults.countFaults(i, physBits());
        enabled[i] = n < p.disableThreshold;
        if (!enabled[i]) {
            KTRACE(trace, tickNow(), TraceCat::Error,
                   "prechar.line_disable", {"line", i},
                   {"faults", std::uint64_t(n)});
        }
    }
}

bool
PrecharacterizedScheme::canAllocate(std::size_t lineId) const
{
    return enabled[lineId];
}

bool
PrecharacterizedScheme::readsPayload(std::size_t lineId) const
{
    return !p.behavioral && faults.canShowError(lineId);
}

Cycle
PrecharacterizedScheme::onFill(std::size_t lineId, const BitVec &)
{
    if (!enabled[lineId])
        panic("%s: fill into a disabled line", p.displayName.c_str());
    return 0;
}

void
PrecharacterizedScheme::visibleErrorsOf(std::size_t lineId,
                                        const BitVec &data)
{
    // The in-array checkbit cells hold the encoding of the data last
    // written, which is @p data: derive them instead of storing them.
    code->encodeInto(data, checkScratch);
    faults.visibleErrorsInto(lineId, data, checkScratch, errsScratch);
}

AccessResult
PrecharacterizedScheme::onReadHit(std::size_t lineId,
                                  const BitVec &data)
{
    ++st.reads;
    AccessResult res;
    // The parity/syndrome check overlaps the 2-cycle data access;
    // latency is only exposed when error processing actually runs.
    if (!faults.canShowError(lineId))
        return res; // fault-free fast path

    res.extraLatency = p.codecLatency;
    if (p.behavioral) {
        // MS-ECC line-level model: an enabled line has at most 11
        // faults, all within the OLSC correction capability.
        res.extraLatency += p.correctionLatency;
        ++st.corrections;
        return res;
    }

    visibleErrorsOf(lineId, data);
    if (errsScratch.empty()) {
        // Faults present but masked by the stored data: the checker
        // sees a clean word.
        res.extraLatency = 0;
        return res;
    }

    const DecodeResult dr = code->probe(errsScratch);
    switch (dr.status) {
      case DecodeStatus::NoError:
        // Visible flips that still form a valid codeword: the error
        // weight exceeds the code distance and the payload is served
        // corrupted without any indication.
        res.sdc = true;
        break;
      case DecodeStatus::Corrected:
        ++st.corrections;
        KTRACE(trace, tickNow(), TraceCat::Error, "error.correct",
               {"line", lineId});
        res.extraLatency += p.correctionLatency;
        break;
      case DecodeStatus::DetectedUncorrectable:
        // Write-through: drop and refetch.
        ++st.errorMisses;
        KTRACE(trace, tickNow(), TraceCat::Error, "error.detect",
               {"line", lineId});
        res.errorInducedMiss = true;
        break;
      case DecodeStatus::Miscorrected:
        ++st.corrections;
        KTRACE(trace, tickNow(), TraceCat::Error, "error.correct",
               {"line", lineId});
        res.extraLatency += p.correctionLatency;
        res.sdc = true;
        break;
    }
    return res;
}

WritebackOutcome
PrecharacterizedScheme::onWriteback(std::size_t lineId,
                                    const BitVec &data)
{
    WritebackOutcome out;
    if (!faults.canShowError(lineId))
        return out;
    if (p.behavioral)
        return out; // within the OLSC capability by construction
    visibleErrorsOf(lineId, data);
    if (errsScratch.empty())
        return out;
    const DecodeResult dr = code->probe(errsScratch);
    // NoError with visible flips is an undetected corruption — the
    // written-back word only counts as clean after a real correction.
    out.clean = dr.status == DecodeStatus::Corrected;
    if (dr.status == DecodeStatus::Corrected)
        out.extraCost = p.correctionLatency;
    return out;
}

std::size_t
PrecharacterizedScheme::usableLines() const
{
    std::size_t usable = 0;
    for (const bool e : enabled)
        usable += e;
    return usable;
}

std::size_t
PrecharacterizedScheme::disabledLines() const
{
    return enabled.size() - usableLines();
}

void
PrecharacterizedScheme::addTimeseriesSources(StatTimeseries &ts)
{
    // Static after the MBIST pass, but recorded so the schema is
    // uniform across schemes in comparative sweeps.
    ts.addSource("disabled_lines",
                 [this] { return double(disabledLines()); });
}

std::unique_ptr<PrecharacterizedScheme>
makeSecdedLine(FaultMap &faults)
{
    PrecharParams p;
    p.displayName = "SECDED";
    p.kind = CodeKind::Secded;
    p.disableThreshold = 2;
    p.checkBitsInArray = 11;
    return std::make_unique<PrecharacterizedScheme>(faults, p);
}

std::unique_ptr<PrecharacterizedScheme>
makeFlair(FaultMap &faults)
{
    PrecharParams p;
    p.displayName = "FLAIR";
    p.kind = CodeKind::Secded;
    p.disableThreshold = 2;
    p.checkBitsInArray = 11;
    return std::make_unique<PrecharacterizedScheme>(faults, p);
}

std::unique_ptr<PrecharacterizedScheme>
makeDectedLine(FaultMap &faults)
{
    PrecharParams p;
    p.displayName = "DECTED";
    p.kind = CodeKind::Dected;
    p.disableThreshold = 3;
    p.checkBitsInArray = 21;
    return std::make_unique<PrecharacterizedScheme>(faults, p);
}

std::unique_ptr<PrecharacterizedScheme>
makeMsEcc(FaultMap &faults)
{
    PrecharParams p;
    p.displayName = "MS-ECC";
    p.kind = CodeKind::Olsc11;
    p.disableThreshold = 12;
    p.behavioral = true;
    return std::make_unique<PrecharacterizedScheme>(faults, p);
}

} // namespace killi
