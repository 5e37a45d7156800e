#include "cache/l2cache.hh"

#include "common/log.hh"

namespace killi
{

L2Cache::L2Cache(EventQueue &eq_, DramModel &dram_,
                 GoldenMemory &golden_, ProtectionScheme &protection_,
                 const CacheGeometry &geom_, const L2Params &params,
                 FaultMap *fault_map)
    : eq(eq_), dram(dram_), golden(golden_), protection(protection_),
      geometry(geom_), index(geom_, "L2Cache"), p(params),
      trace(params.trace), faultMap(fault_map),
      upsetRng(params.softErrorSeed), lines(geom_.numLines()),
      bankFree(geom_.banks, 0),
      mshrAddr(std::size_t{geom_.banks} * params.mshrsPerBank,
               kFreeMshr),
      mshrWaiters(mshrAddr.size())
{
    if (p.softErrorRatePerBitCycle > 0.0 && !faultMap)
        fatal("L2Cache: soft-error injection needs a FaultMap");
    protection.attach(*this, geometry);
    protection.setTrace(trace);

    cReadHits = &statGroup.counter("read_hits", "load hits");
    cReadMisses = &statGroup.counter("read_misses",
                                     "demand load misses");
    cErrorMisses = &statGroup.counter(
        "error_misses", "error-induced misses (detected errors)");
    cWriteHits = &statGroup.counter("write_hits",
                                    "store hits (updated in place)");
    cWriteMisses = &statGroup.counter("write_misses",
                                      "store misses (no allocate)");
    cEvictions = &statGroup.counter("evictions",
                                    "capacity/conflict evictions");
    cBypassFills = &statGroup.counter(
        "bypass_fills", "fills dropped: no allocatable way in set");
    cMshrRetries = &statGroup.counter(
        "mshr_retries", "accesses replayed on full MSHR");
    cProtInvalidations = &statGroup.counter(
        "prot_invalidations", "lines dropped by the protection scheme");
    cSdc = &statGroup.counter("sdc",
                              "silent data corruptions (oracle)");
    cSoftErrors = &statGroup.counter("soft_errors",
                                     "transient upsets injected");
    cMaintenance = &statGroup.counter("maintenance",
                                      "scrubber passes run");
    cWritebacks = &statGroup.counter("writebacks",
                                     "dirty lines flushed to memory");
    cWbDataLoss = &statGroup.counter(
        "wb_data_loss", "dirty write-backs with uncorrectable data");
    cDirtyErrorLoss = &statGroup.counter(
        "dirty_error_loss",
        "dirty lines lost to uncorrectable read errors");
}

const BitVec &
L2Cache::payload(std::size_t lineId, const Line &line, BitVec &buf)
{
    if (protection.readsPayload(lineId)) {
        golden.dataInto(index.lineAddr(line.tag, lineId / geometry.assoc),
                        line.version, buf);
    }
    return buf;
}

void
L2Cache::writebackIfDirty(std::size_t lineId, Line &line, BitVec &buf)
{
    if (!line.dirty)
        return;
    line.dirty = false;
    const Addr lineAddr =
        index.lineAddr(line.tag, lineId / geometry.assoc);
    const WritebackOutcome wb =
        protection.onWriteback(lineId, payload(lineId, line, buf));
    KTRACE(trace, eq.curTick(), TraceCat::L2, "l2.writeback",
           {"line", lineId}, {"clean", wb.clean});
    if (!wb.clean)
        ++*cWbDataLoss;
    if (wb.extraCost)
        chargeBank(lineAddr, wb.extraCost);
    ++*cWritebacks;
    dram.access(lineAddr, true, eq.curTick());
}

void
L2Cache::sampleUpsets(std::size_t lineId, Line &line)
{
    if (p.softErrorRatePerBitCycle <= 0.0)
        return;
    const Tick now = eq.curTick();
    if (now <= line.upsetCheckedAt)
        return;
    const std::size_t bits = golden.lineBits();
    const double window =
        double(now - line.upsetCheckedAt) * double(bits);
    line.upsetCheckedAt = now;
    const RngStreamScope stream("transient");
    const unsigned events =
        upsetRng.poisson(window * p.softErrorRatePerBitCycle);
    for (unsigned e = 0; e < events; ++e) {
        const std::uint16_t bit = static_cast<std::uint16_t>(
            upsetRng.below(bits));
        faultMap->injectTransient(lineId, bit);
        KTRACE(trace, now, TraceCat::Error, "error.soft_error",
               {"line", lineId}, {"bit", std::uint64_t(bit)});
        ++*cSoftErrors;
        if (upsetRng.uniform() < p.softErrorBurstFraction) {
            // Multi-bit event in adjacent cells (Maiz et al.): the
            // case interleaved parity is built for.
            const std::uint16_t neighbour = static_cast<std::uint16_t>(
                bit + 1u < bits ? bit + 1 : bit - 1);
            faultMap->injectTransient(lineId, neighbour);
            ++*cSoftErrors;
        }
    }
}

void
L2Cache::maybeMaintain()
{
    if (p.maintenanceInterval == 0)
        return;
    const Tick now = eq.curTick();
    if (now - lastMaintenance < p.maintenanceInterval)
        return;
    lastMaintenance = now;
    ++*cMaintenance;
    protection.onMaintenance();
}

Tick
L2Cache::reserveBank(Addr lineAddr, Tick earliest)
{
    Tick &free = bankFree[bankOf(lineAddr)];
    const Tick start = std::max(earliest, free);
    free = start + p.bankOccupancy;
    return start;
}

void
L2Cache::chargeBank(Addr lineAddr, Cycle cost)
{
    Tick &free = bankFree[bankOf(lineAddr)];
    free = std::max(free, eq.curTick()) + cost;
}

L2Cache::Line *
L2Cache::findLine(Addr lineAddr, std::size_t &lineIdOut)
{
    const std::size_t set = index.setOf(lineAddr);
    const Addr tag = index.tagOf(lineAddr);
    for (unsigned way = 0; way < geometry.assoc; ++way) {
        const std::size_t id = geometry.lineId(set, way);
        Line &line = lines[id];
        if (line.valid && line.tag == tag) {
            lineIdOut = id;
            return &line;
        }
    }
    return nullptr;
}

void
L2Cache::read(Addr addr, RespCb cb)
{
    const Addr lineAddr = geometry.lineAddr(addr);
    const Tick start = reserveBank(lineAddr, eq.curTick() + p.xbarLatency);
    eq.schedule(start + p.tagLatency,
                [this, lineAddr, cb = std::move(cb)]() mutable {
                    handleReadTag(lineAddr, std::move(cb));
                });
}

void
L2Cache::handleReadTag(Addr lineAddr, RespCb &&cb)
{
    maybeMaintain();
    std::size_t lineId = npos;
    Line *line = findLine(lineAddr, lineId);
    if (line)
        sampleUpsets(lineId, *line);
    if (!line) {
        ++*cReadMisses;
        KTRACE(trace, eq.curTick(), TraceCat::L2, "l2.read_miss",
               {"addr", lineAddr});
        startMiss(lineAddr, std::move(cb), 0);
        return;
    }

    const AccessResult res =
        protection.onReadHit(lineId, payload(lineId, *line, payloadBuf));
    if (res.errorInducedMiss) {
        ++*cErrorMisses;
        KTRACE(trace, eq.curTick(), TraceCat::L2, "l2.error_miss",
               {"line", lineId}, {"addr", lineAddr},
               {"dirty", line->dirty});
        if (line->dirty) {
            // Write-back mode: the only copy was uncorrectable. The
            // loss is recorded by the oracle; the refetch proceeds
            // so the simulation remains deterministic.
            ++*cDirtyErrorLoss;
            line->dirty = false;
        }
        line->valid = false;
        protection.onInvalidate(lineId);
        startMiss(lineAddr, std::move(cb), res.extraLatency);
        return;
    }

    ++*cReadHits;
    KTRACE(trace, eq.curTick(), TraceCat::L2, "l2.read_hit",
           {"line", lineId});
    if (res.sdc) {
        ++*cSdc;
        KTRACE(trace, eq.curTick(), TraceCat::Error, "error.sdc",
               {"line", lineId}, {"addr", lineAddr});
    }
    line->lastUse = ++useCounter;
    protection.onTouch(lineId);
    const Tick respTime =
        eq.curTick() + p.dataLatency + res.extraLatency;
    eq.schedule(respTime, [cb = std::move(cb), respTime]() mutable {
        cb(respTime);
    });
}

void
L2Cache::startMiss(Addr lineAddr, RespCb &&cb, Cycle extraDelay)
{
    const std::size_t first =
        std::size_t{bankOf(lineAddr)} * p.mshrsPerBank;
    std::size_t freeEntry = npos;
    for (std::size_t e = first; e < first + p.mshrsPerBank; ++e) {
        if (mshrAddr[e] == lineAddr) {
            mshrWaiters[e].push_back(std::move(cb));
            return;
        }
        if (freeEntry == npos && mshrAddr[e] == kFreeMshr)
            freeEntry = e;
    }
    if (freeEntry == npos) {
        ++*cMshrRetries;
        eq.scheduleIn(p.mshrRetryDelay,
                      [this, lineAddr, cb = std::move(cb),
                       extraDelay]() mutable {
                          startMiss(lineAddr, std::move(cb), extraDelay);
                      });
        return;
    }
    mshrAddr[freeEntry] = lineAddr;
    mshrWaiters[freeEntry].push_back(std::move(cb));
    const Tick done =
        dram.access(lineAddr, false, eq.curTick() + extraDelay);
    eq.schedule(done, [this, freeEntry] { finishFill(freeEntry); });
}

void
L2Cache::finishFill(std::size_t mshr)
{
    const Addr lineAddr = mshrAddr[mshr];
    if (lineAddr == kFreeMshr)
        panic("L2Cache: fill without MSHR entry");
    mshrAddr[mshr] = kFreeMshr;

    allocate(lineAddr);

    const Tick respTime = eq.curTick() + p.dataLatency;
    std::vector<RespCb> &waiters = mshrWaiters[mshr];
    for (auto &cb : waiters) {
        eq.schedule(respTime,
                    [cb = std::move(cb), respTime]() mutable {
                        cb(respTime);
                    });
    }
    waiters.clear();
}

std::size_t
L2Cache::allocate(Addr lineAddr)
{
    const std::size_t set = index.setOf(lineAddr);

    // Evicting a victim can change its allocatability: training a
    // dying b'01 line may disable it (Killi Table 2). Retry victim
    // selection until a cleared way accepts the fill; each round
    // invalidates at most one line, so assoc+1 rounds bound the loop.
    for (unsigned attempt = 0; attempt <= geometry.assoc; ++attempt) {
        // Preferred victim: an invalid, allocatable way with the
        // highest scheme priority (Killi's b'01 > b'00 > b'10).
        std::size_t victimId = npos;
        int bestPriority = -1;
        for (unsigned way = 0; way < geometry.assoc; ++way) {
            const std::size_t id = geometry.lineId(set, way);
            if (!protection.canAllocate(id) || lines[id].valid)
                continue;
            const int prio = protection.allocPriority(id);
            if (prio > bestPriority) {
                victimId = id;
                bestPriority = prio;
            }
        }
        if (victimId == npos) {
            // No invalid way: LRU among valid allocatable ways.
            for (unsigned way = 0; way < geometry.assoc; ++way) {
                const std::size_t id = geometry.lineId(set, way);
                if (!protection.canAllocate(id))
                    continue;
                if (victimId == npos ||
                    lines[id].lastUse < lines[victimId].lastUse) {
                    victimId = id;
                }
            }
        }
        if (victimId == npos)
            break; // whole set disabled/unprotectable

        Line &victim = lines[victimId];
        if (victim.valid) {
            ++*cEvictions;
            KTRACE(trace, eq.curTick(), TraceCat::L2, "l2.evict",
                   {"line", victimId});
            const Cycle cost = protection.onEvict(
                victimId, payload(victimId, victim, payloadBuf));
            if (cost)
                chargeBank(lineAddr, cost);
            writebackIfDirty(victimId, victim, payloadBuf);
            protection.onInvalidate(victimId);
            victim.valid = false;
            if (!protection.canAllocate(victimId))
                continue; // training disabled this way; pick anew
        }

        victim.valid = true;
        victim.dirty = false;
        victim.tag = index.tagOf(lineAddr);
        victim.version = golden.version(lineAddr);
        victim.lastUse = ++useCounter;
        victim.upsetCheckedAt = eq.curTick();
        if (faultMap)
            faultMap->clearTransients(victimId); // cells rewritten
        const Cycle fillCost = protection.onFill(
            victimId, payload(victimId, victim, payloadBuf));
        if (fillCost)
            chargeBank(lineAddr, fillCost);
        KTRACE(trace, eq.curTick(), TraceCat::L2, "l2.fill",
               {"line", victimId}, {"addr", lineAddr});
        return victimId;
    }

    // Serve without caching.
    ++*cBypassFills;
    KTRACE(trace, eq.curTick(), TraceCat::L2, "l2.bypass_fill",
           {"addr", lineAddr});
    return npos;
}

void
L2Cache::write(Addr addr)
{
    const Addr lineAddr = geometry.lineAddr(addr);
    golden.write(lineAddr); // program-order memory update
    const Tick start = reserveBank(lineAddr, eq.curTick() + p.xbarLatency);
    eq.schedule(start + p.tagLatency, [this, lineAddr] {
        maybeMaintain();
        std::size_t lineId = npos;
        Line *line = findLine(lineAddr, lineId);
        if (!line && p.writePolicy == WritePolicy::WriteBack) {
            // Write-allocate: a full-line store installs directly.
            ++*cWriteMisses;
            const std::size_t allocated = allocate(lineAddr);
            if (allocated == npos) {
                dram.access(lineAddr, true, eq.curTick());
                return;
            }
            Line &fresh = lines[allocated];
            fresh.dirty = true;
            protection.onWriteHit(allocated,
                                  payload(allocated, fresh, payloadBuf));
            return;
        }
        if (line) {
            ++*cWriteHits;
            KTRACE(trace, eq.curTick(), TraceCat::L2, "l2.write_hit",
                   {"line", lineId});
            line->version = golden.version(lineAddr);
            line->lastUse = ++useCounter;
            line->upsetCheckedAt = eq.curTick();
            if (faultMap)
                faultMap->clearTransients(lineId); // cells rewritten
            if (p.writePolicy == WritePolicy::WriteBack)
                line->dirty = true;
            protection.onWriteHit(lineId,
                                  payload(lineId, *line, payloadBuf));
        } else {
            ++*cWriteMisses;
            KTRACE(trace, eq.curTick(), TraceCat::L2, "l2.write_miss",
                   {"addr", lineAddr});
        }
        if (p.writePolicy == WritePolicy::WriteThrough)
            dram.access(lineAddr, true, eq.curTick());
    });
}

void
L2Cache::invalidateLine(std::size_t lineId)
{
    Line &line = lines[lineId];
    if (!line.valid)
        return;
    // Losing the line is an eviction from the scheme's perspective:
    // give it the chance to classify the dying data (Killi trains
    // its DFH bits on the read-out, §4.4).
    const Addr lineAddr =
        index.lineAddr(line.tag, lineId / geometry.assoc);
    const Cycle cost =
        protection.onEvict(lineId, payload(lineId, line, backdoorBuf));
    if (cost)
        chargeBank(lineAddr, cost);
    writebackIfDirty(lineId, line, backdoorBuf);
    line.valid = false;
    ++*cProtInvalidations;
    KTRACE(trace, eq.curTick(), TraceCat::L2, "l2.prot_invalidate",
           {"line", lineId});
    protection.onInvalidate(lineId);
}

bool
L2Cache::isCached(Addr addr) const
{
    const Addr lineAddr = geometry.lineAddr(addr);
    const std::size_t set = index.setOf(lineAddr);
    const Addr tag = index.tagOf(lineAddr);
    for (unsigned way = 0; way < geometry.assoc; ++way) {
        const Line &line = lines[geometry.lineId(set, way)];
        if (line.valid && line.tag == tag)
            return true;
    }
    return false;
}

std::size_t
L2Cache::validLines() const
{
    std::size_t count = 0;
    for (const Line &line : lines)
        count += line.valid;
    return count;
}

} // namespace killi
