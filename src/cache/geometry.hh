/**
 * @file
 * Set-associative cache geometry helpers shared by the L1, the L2,
 * and the ECC cache.
 */

#ifndef KILLI_CACHE_GEOMETRY_HH
#define KILLI_CACHE_GEOMETRY_HH

#include <bit>
#include <cstddef>

#include "common/log.hh"
#include "common/types.hh"

namespace killi
{

struct CacheGeometry
{
    std::size_t sizeBytes = 2 * 1024 * 1024;
    unsigned assoc = 16;
    unsigned lineBytes = 64;
    unsigned banks = 16;

    std::size_t
    numLines() const
    {
        return sizeBytes / lineBytes;
    }

    std::size_t
    numSets() const
    {
        return numLines() / assoc;
    }

    Addr
    lineAddr(Addr addr) const
    {
        return addr & ~static_cast<Addr>(lineBytes - 1);
    }

    std::size_t
    setOf(Addr addr) const
    {
        return (addr / lineBytes) % numSets();
    }

    Addr
    tagOf(Addr addr) const
    {
        return addr / lineBytes / numSets();
    }

    unsigned
    bankOf(Addr addr) const
    {
        return static_cast<unsigned>(setOf(addr) % banks);
    }

    /** Flat physical line index of (set, way): the fault-map key. */
    std::size_t
    lineId(std::size_t set, unsigned way) const
    {
        return set * assoc + way;
    }
};

/**
 * Shift/mask form of CacheGeometry::setOf/tagOf for the per-probe
 * paths of the L1 and L2, precomputed once. Requires power-of-two
 * line size and set count (fatal otherwise); for those it returns
 * exactly what CacheGeometry computes by division.
 */
class SetIndex
{
  public:
    SetIndex(const CacheGeometry &geom, const char *owner)
    {
        const std::size_t sets = geom.numSets();
        if (!std::has_single_bit(geom.lineBytes) ||
            !std::has_single_bit(sets)) {
            fatal("%s: line size %u and set count %zu must be powers "
                  "of two", owner, geom.lineBytes, sets);
        }
        setShift = static_cast<unsigned>(std::countr_zero(geom.lineBytes));
        tagShift = setShift +
                   static_cast<unsigned>(std::countr_zero(sets));
        setMask = sets - 1;
    }

    std::size_t
    setOf(Addr addr) const
    {
        return static_cast<std::size_t>(addr >> setShift) & setMask;
    }

    Addr tagOf(Addr addr) const { return addr >> tagShift; }

    /** Inverse of (setOf, tagOf): the line address of a resident
     *  line. */
    Addr
    lineAddr(Addr tag, std::size_t set) const
    {
        return (tag << tagShift) | (Addr{set} << setShift);
    }

  private:
    unsigned setShift = 0;
    unsigned tagShift = 0;
    std::size_t setMask = 0;
};

} // namespace killi

#endif // KILLI_CACHE_GEOMETRY_HH
