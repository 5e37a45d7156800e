/**
 * @file
 * The banked, write-through GPU L2 cache model (paper Table 3): 2MB,
 * 16-way, 16 banks, 64B lines, 2-cycle tag + 2-cycle data latency,
 * with a pluggable ProtectionScheme consulted on every fill, hit,
 * eviction, and invalidation.
 *
 * Write-through semantics: stores update a present line in place and
 * always propagate to memory; loads allocate, stores never do. Any
 * detected-but-uncorrectable error therefore becomes an
 * *error-induced miss* — the line is dropped and refetched — never a
 * data loss, which is the property that lets Killi use cheap parity
 * for fault-free lines.
 */

#ifndef KILLI_CACHE_L2CACHE_HH
#define KILLI_CACHE_L2CACHE_HH

#include <vector>

#include "cache/geometry.hh"
#include "cache/protection.hh"
#include "common/bitvec.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "fault/fault_map.hh"
#include "sim/dram.hh"
#include "sim/event_queue.hh"
#include "sim/golden.hh"
#include "sim/inline_callable.hh"
#include "trace/trace.hh"

namespace killi
{

/** Store handling policy (paper §2.4 vs §5.6.1). */
enum class WritePolicy
{
    WriteThrough, //!< stores propagate to memory; lines stay clean
    WriteBack     //!< stores dirty the line; memory updated at evict
};

struct L2Params
{
    Cycle tagLatency = 2;
    Cycle dataLatency = 2;
    Cycle xbarLatency = 8;    //!< CU/L1 to L2 bank interconnect
    Cycle bankOccupancy = 1;  //!< pipelined issue rate per bank
    unsigned mshrsPerBank = 32;
    Cycle mshrRetryDelay = 4;

    /**
     * Soft-error (transient upset) rate per bit per cycle. When
     * non-zero (and a FaultMap is attached), resident lines
     * accumulate Poisson-distributed flips over their residency
     * time, materialized at the next read.
     */
    double softErrorRatePerBitCycle = 0.0;
    /** Fraction of upsets that strike two adjacent cells (the
     *  multi-bit events interleaved parity is designed for). */
    double softErrorBurstFraction = 0.0;
    std::uint64_t softErrorSeed = 1234;

    /** Cycles between protection-scheme maintenance (scrubber)
     *  passes; 0 disables. Driven lazily on accesses. */
    Cycle maintenanceInterval = 0;

    WritePolicy writePolicy = WritePolicy::WriteThrough;

    /** Optional event-trace sink (l2.* / error.* categories); also
     *  handed to the attached ProtectionScheme. Not owned. */
    TraceSink *trace = nullptr;
};

class L2Cache : public L2Backdoor
{
  public:
    /**
     * Completion callback: invoked at the response tick. Inline
     * capacity fits a compute unit's read continuation.
     */
    using RespCb = InlineCallable<void(Tick), 48>;

    /**
     * @param fault_map optional: required only for soft-error
     *        injection (transient upsets are recorded there so the
     *        protection scheme's probes see them).
     */
    L2Cache(EventQueue &eq, DramModel &dram, GoldenMemory &golden,
            ProtectionScheme &protection, const CacheGeometry &geom,
            const L2Params &params, FaultMap *fault_map = nullptr);

    /** Issue a load for @p addr at the current tick. */
    void read(Addr addr, RespCb cb);

    /** Issue a write-through store for @p addr (fire-and-forget). */
    void write(Addr addr);

    // L2Backdoor
    void invalidateLine(std::size_t lineId) override;
    Tick now() const override { return eq.curTick(); }

    /** True iff @p addr currently resides in the cache (tests). */
    bool isCached(Addr addr) const;

    /** Number of valid lines (tests / reporting). */
    std::size_t validLines() const;

    const CacheGeometry &geom() const { return geometry; }
    StatGroup &stats() { return statGroup; }
    const StatGroup &stats() const { return statGroup; }

  private:
    /**
     * Tag-array state. No payload is stored: a resident line always
     * holds golden data at its version, rebuilt on demand (payload()).
     */
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint32_t version = 0;
        std::uint64_t lastUse = 0;
        /** Residency time already covered by upset sampling. */
        Tick upsetCheckedAt = 0;
    };

    /**
     * The payload to hand a protection hook on @p lineId: golden data
     * at the line's version, built into @p buf only when the scheme
     * reads it (ProtectionScheme::readsPayload); @p buf otherwise.
     */
    const BitVec &payload(std::size_t lineId, const Line &line,
                          BitVec &buf);

    /** Flush a dirty line to memory before it is dropped (@p buf:
     *  payload scratch, see payload()). */
    void writebackIfDirty(std::size_t lineId, Line &line, BitVec &buf);

    /** Accumulate soft-error upsets over the line's residency. */
    void sampleUpsets(std::size_t lineId, Line &line);

    /** Lazily run the protection scheme's scrubber pass. */
    void maybeMaintain();

    /** Reserve a bank slot: earliest issue time from @p earliest. */
    Tick reserveBank(Addr lineAddr, Tick earliest);

    /** Hold the bank busy for @p cost extra cycles (metadata
     *  read-outs, inverted-write checks). */
    void chargeBank(Addr lineAddr, Cycle cost);

    /** Tag-array outcome for a load. */
    void handleReadTag(Addr lineAddr, RespCb &&cb);

    /** Begin the miss path (demand or error-induced). */
    void startMiss(Addr lineAddr, RespCb &&cb, Cycle extraDelay);

    /** Memory response for MSHR entry @p mshr: allocate and notify
     *  its waiters. */
    void finishFill(std::size_t mshr);

    /** Pick and prepare a victim way; returns line id or npos. */
    std::size_t allocate(Addr lineAddr);

    /** Locate a resident line; returns nullptr on miss. */
    Line *findLine(Addr lineAddr, std::size_t &lineIdOut);

    /** Bank of @p lineAddr (set-interleaved, as CacheGeometry). */
    unsigned
    bankOf(Addr lineAddr) const
    {
        return static_cast<unsigned>(index.setOf(lineAddr) %
                                     geometry.banks);
    }

    static constexpr std::size_t npos = ~std::size_t{0};
    /** mshrAddr value of a free MSHR entry (never line-aligned). */
    static constexpr Addr kFreeMshr = ~Addr{0};

    EventQueue &eq;
    DramModel &dram;
    GoldenMemory &golden;
    ProtectionScheme &protection;
    CacheGeometry geometry;
    SetIndex index;
    L2Params p;
    TraceSink *trace;
    FaultMap *faultMap;
    Rng upsetRng;
    Tick lastMaintenance = 0;

    std::vector<Line> lines;
    /** Payload scratch for the access paths. */
    BitVec payloadBuf;
    /** Payload scratch for invalidateLine(), which a scheme may call
     *  from inside a hook that still holds payloadBuf. */
    BitVec backdoorBuf;
    std::vector<Tick> bankFree;
    /**
     * Outstanding misses: mshrsPerBank entries per bank, bank-major.
     * mshrAddr holds each entry's line address (kFreeMshr when free);
     * mshrWaiters its merged reads in arrival order. Waiter vectors
     * are cleared, never freed, so their capacity is reused.
     */
    std::vector<Addr> mshrAddr;
    std::vector<std::vector<RespCb>> mshrWaiters;
    std::uint64_t useCounter = 0;
    StatGroup statGroup;

    /**
     * Interned stat handles (see KilliProtection): per-access bumps
     * use these instead of StatGroup's by-name map lookup. Addresses
     * are stable because StatGroup stores counters in a node-based
     * map.
     */
    Counter *cReadHits = nullptr;
    Counter *cReadMisses = nullptr;
    Counter *cErrorMisses = nullptr;
    Counter *cWriteHits = nullptr;
    Counter *cWriteMisses = nullptr;
    Counter *cEvictions = nullptr;
    Counter *cBypassFills = nullptr;
    Counter *cMshrRetries = nullptr;
    Counter *cProtInvalidations = nullptr;
    Counter *cSdc = nullptr;
    Counter *cSoftErrors = nullptr;
    Counter *cMaintenance = nullptr;
    Counter *cWritebacks = nullptr;
    Counter *cWbDataLoss = nullptr;
    Counter *cDirtyErrorLoss = nullptr;
};

} // namespace killi

#endif // KILLI_CACHE_L2CACHE_HH
