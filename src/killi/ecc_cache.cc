#include "killi/ecc_cache.hh"

#include "common/log.hh"

namespace killi
{

EccCache::EccCache(std::size_t entries, unsigned assoc_,
                   unsigned l2_assoc)
    : assoc(assoc_), l2Assoc(l2_assoc)
{
    if (entries == 0 || assoc_ == 0)
        fatal("EccCache: empty geometry");
    if (entries % assoc_ != 0)
        fatal("EccCache: %zu entries not divisible by assoc %u",
              entries, assoc_);
    sets = entries / assoc_;
    table.resize(entries);
}

std::size_t
EccCache::setOf(std::size_t l2Line) const
{
    // Index by the protected line's L2 set: disjoint L2 sets alias
    // into the same (much smaller) ECC set.
    return (l2Line / l2Assoc) % sets;
}

EccEntry *
EccCache::find(std::size_t l2Line)
{
    ++st.accesses;
    const std::size_t base = setOf(l2Line) * assoc;
    for (unsigned way = 0; way < assoc; ++way) {
        EccEntry &entry = table[base + way];
        if (entry.valid && entry.l2Line == l2Line)
            return &entry;
    }
    return nullptr;
}

const EccEntry *
EccCache::find(std::size_t l2Line) const
{
    const std::size_t base = setOf(l2Line) * assoc;
    for (unsigned way = 0; way < assoc; ++way) {
        const EccEntry &entry = table[base + way];
        if (entry.valid && entry.l2Line == l2Line)
            return &entry;
    }
    return nullptr;
}

bool
EccCache::canHostWithoutEviction(std::size_t l2Line) const
{
    const std::size_t base = setOf(l2Line) * assoc;
    for (unsigned way = 0; way < assoc; ++way) {
        const EccEntry &entry = table[base + way];
        if (!entry.valid || entry.l2Line == l2Line)
            return true;
    }
    return false;
}

EccEntry *
EccCache::allocate(std::size_t l2Line, std::size_t &evictedLine)
{
    evictedLine = npos;
    const std::size_t base = setOf(l2Line) * assoc;

    EccEntry *victim = nullptr;
    for (unsigned way = 0; way < assoc; ++way) {
        EccEntry &entry = table[base + way];
        if (!entry.valid) {
            victim = &entry;
            break;
        }
        if (entry.l2Line == l2Line)
            panic("EccCache: duplicate allocation for line %zu",
                  l2Line);
        if (!victim || entry.lastUse < victim->lastUse)
            victim = &entry;
    }
    if (victim->valid) {
        evictedLine = victim->l2Line;
        ++st.evictions;
        // §4.3 contention: a live entry dies for a disjoint line and
        // takes its protected L2 line with it.
        KTRACE(trace, tickNow(), TraceCat::Ecc, "ecc.contention_evict",
               {"victim_line", victim->l2Line}, {"for_line", l2Line});
    }
    ++st.allocs;
    KTRACE(trace, tickNow(), TraceCat::Ecc, "ecc.install",
           {"line", l2Line}, {"set", setOf(l2Line)});
    victim->valid = true;
    victim->l2Line = l2Line;
    victim->lastUse = ++useCounter;
    victim->fineParity = BitVec(0);
    return victim;
}

void
EccCache::invalidate(std::size_t l2Line)
{
    const std::size_t base = setOf(l2Line) * assoc;
    for (unsigned way = 0; way < assoc; ++way) {
        EccEntry &entry = table[base + way];
        if (entry.valid && entry.l2Line == l2Line) {
            entry.valid = false;
            ++st.frees;
            KTRACE(trace, tickNow(), TraceCat::Ecc, "ecc.free",
                   {"line", l2Line});
            return;
        }
    }
}

void
EccCache::touch(std::size_t l2Line)
{
    const std::size_t base = setOf(l2Line) * assoc;
    for (unsigned way = 0; way < assoc; ++way) {
        EccEntry &entry = table[base + way];
        if (entry.valid && entry.l2Line == l2Line) {
            entry.lastUse = ++useCounter;
            return;
        }
    }
}

void
EccCache::clear()
{
    for (EccEntry &entry : table)
        entry.valid = false;
}

std::size_t
EccCache::validEntries() const
{
    std::size_t count = 0;
    for (const EccEntry &entry : table)
        count += entry.valid;
    return count;
}

} // namespace killi
