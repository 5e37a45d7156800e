/**
 * @file
 * Per-CU L1 cache model: a set-associative hit/miss filter with LRU
 * replacement. The L1 operates at nominal voltage (only the L2 is
 * under-volted in the paper), so it stores no data in this model —
 * payload integrity is checked where the faults are, at the L2.
 * Write-through, no-write-allocate.
 */

#ifndef KILLI_CACHE_L1CACHE_HH
#define KILLI_CACHE_L1CACHE_HH

#include <vector>

#include "common/types.hh"
#include "cache/geometry.hh"

namespace killi
{

/** L1 load lookup counters. */
struct L1Stats
{
    std::uint64_t hits = 0;   //!< load hits
    std::uint64_t misses = 0; //!< load misses
};

class L1Cache
{
  public:
    explicit L1Cache(const CacheGeometry &geom);
    L1Cache(const L1Cache &) = delete;
    L1Cache &operator=(const L1Cache &) = delete;

    /** Probe for @p addr; updates LRU on hit. */
    bool lookup(Addr addr);

    /** Install the line holding @p addr (victim chosen by LRU). */
    void fill(Addr addr);

    /** Write-through store: keeps an existing copy (data flows to
     *  the L2/memory), never allocates. */
    void writeThrough(Addr addr);

    /** Drop everything (kernel boundary). */
    void flush();

    const L1Stats &stats() const { return st; }

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        std::uint64_t lastUse = 0;
    };

    Line *findLine(Addr addr);

    CacheGeometry geom;
    SetIndex index;
    std::vector<Line> lines;
    std::uint64_t useCounter = 0;
    L1Stats st;
};

} // namespace killi

#endif // KILLI_CACHE_L1CACHE_HH
