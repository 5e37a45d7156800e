#include "cache/l1cache.hh"

namespace killi
{

L1Cache::L1Cache(const CacheGeometry &geometry)
    : geom(geometry), index(geometry, "L1Cache"),
      lines(geometry.numLines())
{
}

L1Cache::Line *
L1Cache::findLine(Addr addr)
{
    const std::size_t set = index.setOf(addr);
    const Addr tag = index.tagOf(addr);
    for (unsigned way = 0; way < geom.assoc; ++way) {
        Line &line = lines[geom.lineId(set, way)];
        if (line.valid && line.tag == tag)
            return &line;
    }
    return nullptr;
}

bool
L1Cache::lookup(Addr addr)
{
    if (Line *line = findLine(addr)) {
        line->lastUse = ++useCounter;
        ++st.hits;
        return true;
    }
    ++st.misses;
    return false;
}

void
L1Cache::fill(Addr addr)
{
    const std::size_t set = index.setOf(addr);
    Line *victim = nullptr;
    for (unsigned way = 0; way < geom.assoc; ++way) {
        Line &line = lines[geom.lineId(set, way)];
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (!victim || line.lastUse < victim->lastUse)
            victim = &line;
    }
    victim->valid = true;
    victim->tag = index.tagOf(addr);
    victim->lastUse = ++useCounter;
}

void
L1Cache::writeThrough(Addr addr)
{
    // No-write-allocate: a hit refreshes recency, a miss does not
    // install (GPU stores stream through to the L2/memory).
    if (Line *line = findLine(addr))
        line->lastUse = ++useCounter;
}

void
L1Cache::flush()
{
    for (Line &line : lines)
        line.valid = false;
}

} // namespace killi
