/**
 * @file
 * The pluggable error-protection interface of the L2 cache model.
 *
 * Each scheme (fault-free baseline, per-line SECDED/DECTED, FLAIR,
 * MS-ECC, and Killi) implements this interface. The L2 drives it at
 * fill, read-hit, write-hit, eviction, and invalidation points; the
 * scheme decides whether data can be delivered, whether the access
 * becomes an error-induced miss, which lines are allocatable, and
 * reports (omnisciently, via the codec probe paths) whether a silent
 * data corruption escaped — the simulator's end-to-end oracle.
 *
 * Payload contract. Every hook takes the line's payload as
 * `const BitVec &data`, but the host builds it only for lines that
 * can show an error:
 *  - a hook reads @p data only when readsPayload(lineId) is true at
 *    the moment the hook is called; otherwise @p data is unspecified
 *    (the host may pass a buffer holding another line's bits);
 *  - a probe hook (onReadHit, onEvict, onWriteback) receives the
 *    data of the line's last onFill/onWriteHit, so anything a scheme
 *    would store at fill (parity, checkbits) it may re-derive from
 *    @p data when it probes instead.
 */

#ifndef KILLI_CACHE_PROTECTION_HH
#define KILLI_CACHE_PROTECTION_HH

#include <cstdint>
#include <string>

#include "common/bitvec.hh"
#include "common/types.hh"
#include "cache/geometry.hh"
#include "trace/timeseries.hh"
#include "trace/trace.hh"

namespace killi
{

/** Callbacks a protection scheme may invoke on its host cache. */
class L2Backdoor
{
  public:
    virtual ~L2Backdoor() = default;

    /**
     * Drop a (clean, write-through) line because its protection
     * metadata was lost — e.g.\ its ECC-cache entry was evicted.
     */
    virtual void invalidateLine(std::size_t lineId) = 0;

    /** Current simulation time (for scheme-side bookkeeping). */
    virtual Tick now() const = 0;
};

/** Outcome of a protected read hit. */
struct AccessResult
{
    /** Line content is unusable: invalidate and refetch. */
    bool errorInducedMiss = false;
    /** Delivered data differs from golden (oracle; must stay 0). */
    bool sdc = false;
    /** Additional cycles charged on the hit path. */
    Cycle extraLatency = 0;
};

/** Outcome of reading a dirty line out for write-back (§5.6.1). */
struct WritebackOutcome
{
    /** The written-back data is correct (errors corrected or none). */
    bool clean = true;
    /** Additional bank cycles for the correction. */
    Cycle extraCost = 0;
};

/**
 * Counters every protection scheme keeps. They accumulate for the
 * scheme's life: the host's warmup boundary does not reset them.
 */
struct ProtectionStats
{
    std::uint64_t reads = 0;       //!< protected read hits
    std::uint64_t corrections = 0; //!< ECC corrections applied
    std::uint64_t errorMisses = 0; //!< error-induced misses raised
};

class ProtectionScheme
{
  public:
    virtual ~ProtectionScheme() = default;

    virtual std::string name() const = 0;

    /** Called once when the host L2 is constructed. */
    virtual void
    attach(L2Backdoor &backdoor, const CacheGeometry &geom)
    {
        host = &backdoor;
        geometry = geom;
    }

    /**
     * Voltage/reset transition: discard learned state (Killi resets
     * its DFH bits; pre-characterized schemes re-run their MBIST
     * bitmapping).
     */
    virtual void reset() {}

    /** May @p lineId hold data right now? (false for disabled or
     *  unprotectable lines). */
    virtual bool canAllocate(std::size_t lineId) const
    {
        (void)lineId;
        return true;
    }

    /** Allocation preference among invalid candidate ways (higher
     *  wins; Killi's b'01 > b'00 > b'10 rule). */
    virtual int allocPriority(std::size_t lineId) const
    {
        (void)lineId;
        return 0;
    }

    /**
     * Does the next hook on @p lineId read its payload? The host
     * builds the payload only when this is true (see the file
     * comment); the default is conservative.
     */
    virtual bool readsPayload(std::size_t lineId) const
    {
        (void)lineId;
        return true;
    }

    /** Data was installed in @p lineId. Returns extra bank
     *  occupancy cycles (e.g.\ §5.6.2 inverted-write checking). */
    virtual Cycle onFill(std::size_t lineId, const BitVec &data)
    {
        (void)lineId;
        (void)data;
        return 0;
    }

    /** A store updated @p lineId in place. In write-back mode the
     *  line is dirty from here until eviction (§5.6.1 schemes must
     *  raise its protection accordingly). */
    virtual void onWriteHit(std::size_t lineId, const BitVec &data)
    {
        (void)lineId;
        (void)data;
    }

    /** A dirty line is being read out for write-back; report whether
     *  the data leaving the cache is correct (§5.6.1). */
    virtual WritebackOutcome
    onWriteback(std::size_t lineId, const BitVec &data)
    {
        (void)lineId;
        (void)data;
        return {};
    }

    /** A load hit @p lineId whose stored payload is @p data. */
    virtual AccessResult
    onReadHit(std::size_t lineId, const BitVec &data) = 0;

    /** @p lineId is being evicted while still valid. Returns extra
     *  bank occupancy cycles (Killi's eviction training read-out). */
    virtual Cycle onEvict(std::size_t lineId, const BitVec &data)
    {
        (void)lineId;
        (void)data;
        return 0;
    }

    /** @p lineId lost its data (eviction or invalidation). */
    virtual void onInvalidate(std::size_t lineId) { (void)lineId; }

    /** The line was touched (hit): coordinate MRU promotion of any
     *  associated metadata (Killi ECC-cache coordination). */
    virtual void onTouch(std::size_t lineId) { (void)lineId; }

    /**
     * Periodic maintenance (paper footnote 7): a scrubber pass that
     * may reclaim lines disabled by transient upsets. Driven lazily
     * by the host cache at L2Params::maintenanceInterval.
     */
    virtual void onMaintenance() {}

    /** Per-line usable-capacity snapshot for reporting: number of
     *  lines that could currently hold protected data. */
    virtual std::size_t usableLines() const
    {
        return geometry.numLines();
    }

    /**
     * Attach a trace sink for scheme-side events (dfh.* / ecc.* /
     * error.* categories; nullptr detaches). Schemes owning
     * sub-components (Killi's ECC cache) override to propagate.
     */
    virtual void setTrace(TraceSink *sink) { trace = sink; }

    /**
     * Register scheme-specific time-series columns (ECC-cache
     * occupancy, DFH state mix, disabled lines, ...) on @p ts. The
     * sources are closures over this scheme and must not outlive it.
     */
    virtual void addTimeseriesSources(StatTimeseries &ts) { (void)ts; }

    const ProtectionStats &stats() const { return st; }

  protected:
    /** Current tick, or 0 before attach() (for trace timestamps). */
    Tick tickNow() const { return host ? host->now() : 0; }

    L2Backdoor *host = nullptr;
    CacheGeometry geometry;
    ProtectionStats st;
    TraceSink *trace = nullptr;
};

/** The nominal-voltage, fault-free baseline: no checks, no latency. */
class FaultFreeProtection : public ProtectionScheme
{
  public:
    std::string name() const override { return "FaultFree"; }

    bool readsPayload(std::size_t lineId) const override
    {
        (void)lineId;
        return false;
    }

    AccessResult
    onReadHit(std::size_t lineId, const BitVec &data) override
    {
        (void)lineId;
        (void)data;
        return {};
    }
};

} // namespace killi

#endif // KILLI_CACHE_PROTECTION_HH
