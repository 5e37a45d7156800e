/**
 * @file
 * The Killi protection scheme (paper §4): runtime LV fault
 * classification with no MBIST, decoupled error detection
 * (segmented interleaved parity in the cache) and on-demand error
 * correction (SECDED checkbits in a small ECC cache).
 *
 * Responsibilities, mapped to the paper:
 *  - DFH lifecycle (Tables 1/2) driven by *real* parity and SECDED
 *    syndrome probes over the line's visible (unmasked) faults;
 *  - ECC-cache entry allocation on fills into b'01/b'10 lines, with
 *    live-entry eviction dropping the protected L2 line (§4.3
 *    contention) and MRU coordination with the L2 (§4.4);
 *  - eviction-triggered training of b'01 lines (§4.4);
 *  - allocation priority b'01 > b'00 > b'10 over invalid ways (§4.4);
 *  - optional extensions: DECTED-strength trained-line protection at
 *    zero extra storage (§5.2), and the inverted-write masked-fault
 *    mitigation (§5.6.2).
 */

#ifndef KILLI_KILLI_KILLI_HH
#define KILLI_KILLI_KILLI_HH

#include <array>
#include <memory>
#include <vector>

#include "cache/protection.hh"
#include "ecc/codec_factory.hh"
#include "ecc/parity.hh"
#include "fault/fault_map.hh"
#include "killi/dfh.hh"
#include "killi/ecc_cache.hh"

namespace killi
{

struct KilliParams
{
    /** ECC-cache entries = L2 lines / ratio (paper: 16..256). */
    std::size_t ratio = 256;
    unsigned eccCacheAssoc = 4;
    /** Fine parity segments during training (paper: 16). */
    unsigned segments = 16;
    /** Folded parity groups after training (paper: 4). */
    unsigned groups = 4;
    /** Interleave parity segments (paper §4.1: adjacent bits in
     *  different segments, for multi-bit soft errors). The knob
     *  exists to quantify what interleaving buys. */
    bool interleavedParity = true;
    /** SECDED/parity check latency on the hit path (Table 3). */
    Cycle codecLatency = 1;
    /** Additional latency when a correction is applied. */
    Cycle correctionLatency = 1;
    /** Bank cycles for the eviction-training data read-out. */
    Cycle evictReadoutCost = 2;
    /** §4.4 eviction-triggered training of b'01 lines. */
    bool evictionTraining = true;
    /** §4.4 allocation priority b'01 > b'00 > b'10. */
    bool allocPriorityEnabled = true;
    /** §4.4 coordinated replacement: an L2 MRU promotion also
     *  promotes the line's ECC-cache entry. */
    bool coordinatedReplacement = true;
    /** §5.6.2 inverted-write masked-fault disclosure at fill. */
    bool invertedWriteCheck = false;
    /** §5.2 upgrade: DECTED checkbits for trained lines, reusing
     *  the 12 freed parity bits (keeps 2-fault lines enabled). */
    bool dectedStable = false;
    /** §5.6.1: write-back support. Dirty lines are protected by the
     *  ECC cache according to their DFH — SECDED for dirty b'00,
     *  DECTED for dirty b'10 (fits the freed parity bits) — so a
     *  dirty line matches the failure probability of a safe-voltage
     *  SECDED cache. Increases ECC-cache contention. */
    bool writebackMode = false;
};

/** Killi's counters beyond the ProtectionStats every scheme keeps. */
struct KilliStats
{
    std::uint64_t evictTrainings = 0; //!< b'01 lines classified at eviction
    std::uint64_t eccDrops = 0;       //!< L2 lines dropped by ECC evictions
    std::uint64_t invertedChecks = 0; //!< inverted-write disclosures (§5.6.2)
    std::uint64_t scrubReclaims = 0;  //!< disabled lines the scrubber freed
    /** DFH transitions [from][to], indexed by the 2-bit encodings. */
    std::array<std::array<std::uint64_t, 4>, 4> transitions{};
};

class KilliProtection : public ProtectionScheme
{
  public:
    KilliProtection(FaultMap &fault_map, const KilliParams &params);

    std::string name() const override;
    void attach(L2Backdoor &backdoor, const CacheGeometry &geom) override;
    void reset() override;

    bool canAllocate(std::size_t lineId) const override;
    int allocPriority(std::size_t lineId) const override;
    bool readsPayload(std::size_t lineId) const override;
    Cycle onFill(std::size_t lineId, const BitVec &data) override;
    void onWriteHit(std::size_t lineId, const BitVec &data) override;
    AccessResult onReadHit(std::size_t lineId,
                           const BitVec &data) override;
    WritebackOutcome onWriteback(std::size_t lineId,
                                 const BitVec &data) override;
    Cycle onEvict(std::size_t lineId, const BitVec &data) override;
    void onInvalidate(std::size_t lineId) override;
    void onTouch(std::size_t lineId) override;
    void onMaintenance() override;
    std::size_t usableLines() const override;
    void setTrace(TraceSink *sink) override;
    void addTimeseriesSources(StatTimeseries &ts) override;

    /** Current DFH state of a line (tests / reporting). */
    Dfh dfhOf(std::size_t lineId) const { return state[lineId]; }

    /** Line counts per DFH state, indexed by the 2-bit encoding. */
    std::array<std::size_t, 4> dfhHistogram() const;

    EccCache &eccCache() { return *ecc; }
    const EccCache &eccCache() const { return *ecc; }

    const KilliParams &params() const { return p; }

    const KilliStats &killiStats() const { return kst; }

  private:
    /** Signals derived from the visible fault pattern of a line. */
    struct Probes
    {
        SParity sp = SParity::Ok;
        bool synNonZero = false;
        bool gpMismatch = false;
        DecodeStatus eccStatus = DecodeStatus::NoError;
        bool dataCorrupt = false; //!< any visible payload-bit error
    };

    /** Run parity + ECC probes for @p lineId holding @p data (read
     *  only when the line can show an error). @p dirtyLine extends the
     *  ECC view to dirty b'00 lines. */
    Probes probeLine(std::size_t lineId, const BitVec &data,
                     Dfh current, bool dirtyLine = false) const;

    /** The ECC strength guarding a line in @p state (§5.2/§5.6.1). */
    const BlockCode &codeFor(Dfh state, bool dirtyLine) const;

    /** §5.2 strong-code decision for trained (b'10) lines. */
    DfhDecision decideStable1Strong(const Probes &probes) const;

    /** §5.6.1 decision for dirty lines (no refetch possible). */
    DfhDecision decideDirty(Dfh current, const Probes &probes) const;

    /** Record a DFH transition: edge counter and dfh.transition trace
     *  event (with @p trigger naming the hook that caused it). */
    void noteTransition(std::size_t lineId, Dfh from, Dfh to,
                        const char *trigger);

    /** Cross-structure consistency assertions, compiled in (and
     *  called at the entry of every public hook) only under the
     *  KILLI_CHECK_INVARIANTS CMake option — on in CI, off in
     *  release sweeps. */
    void checkInvariants(std::size_t lineId, const char *where) const;

    /** Install metadata for a line entering/keeping b'01 or b'10 (or
     *  dirty in write-back mode): the ECC-cache entry, which may drop
     *  another L2 line (§4.3). */
    void installMetadata(std::size_t lineId, Dfh forState);

    FaultMap &faults;
    KilliParams p;
    SegmentedParity fineParity;   //!< 16-segment training layout
    SegmentedParity foldedParity; //!< 4-segment trained layout
    std::unique_ptr<BlockCode> secded;
    std::unique_ptr<BlockCode> strongCode; //!< DECTED when enabled

    KilliStats kst;

    /**
     * Hot-path scratch, reused across accesses so probeLine stays
     * allocation-free in steady state. A scheme instance is
     * single-threaded (one per sweep job), so plain mutable members
     * are safe; probeLine never re-enters itself.
     */
    mutable std::vector<std::size_t> errsScratch;
    mutable std::vector<std::size_t> parityScratch;
    mutable std::vector<std::size_t> eccScratch;
    mutable ParityCheck parityCheckScratch;
    mutable BitVec foldedScratch;
    /** dfhHistogram() memoized across one timeseries snapshot. */
    std::array<std::size_t, 4> tsHist{};

    std::unique_ptr<EccCache> ecc;
    std::vector<Dfh> state;
    /** Mirror of the host's dirty bits (write-back mode). */
    std::vector<bool> dirtyLine;
};

} // namespace killi

#endif // KILLI_KILLI_KILLI_HH
