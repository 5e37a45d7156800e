/**
 * @file
 * Content-addressed store of sampled dies for the serving daemon.
 *
 * Where the ResultCache keys *finished result documents* by the full
 * canonical request, the warm store keys the sampled fault population
 * of a die by just the inputs that determine it: the scenario's
 * canonical document, the array geometry, and the build id. Two jobs
 * that differ only in workload/scheme subsets miss the result cache
 * but share a die, so the daemon samples it once and every campaign
 * of that die adopts it by reference (FaultModel::buildMapFrom(),
 * bit-identical to sampling by construction). A campaign consults
 * the store once, before it dispatches any point.
 *
 * Lookups are single-flight: when a key is being synthesized, later
 * callers block on it instead of duplicating the work, and only the
 * one caller that ran the synthesizer counts a miss — so
 * kserved_warm_store_misses_total equals the number of syntheses
 * exactly (the serve-smoke CI leg asserts this).
 *
 * Bounded by bytes, not entries (populations vary wildly with
 * geometry): least-recently-used dies are evicted once the resident
 * total exceeds the bound, always keeping at least the newest entry.
 * Eviction only drops the store's reference: a die stays alive until
 * the running jobs that adopted it release it. All methods are
 * thread-safe.
 */

#ifndef KILLI_SERVE_WARM_STORE_HH
#define KILLI_SERVE_WARM_STORE_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/json.hh"
#include "fault/fault_map.hh"
#include "fault/scenario_spec.hh"
#include "metrics/metrics.hh"

namespace killi::serve
{

class WarmStore
{
  public:
    /**
     * @param maxBytes resident-population bound (the newest entry is
     *        always kept, even when it alone exceeds the bound).
     * @param reg optional metrics registry; when set, the store
     *        registers kserved_warm_store_* counters and gauges.
     *        Must outlive the store.
     */
    explicit WarmStore(std::size_t maxBytes,
                       metrics::MetricsRegistry *reg = nullptr);

    /**
     * The canonical warm key of a fault population: compact JSON of
     * {kind, scenario, lines, line_bits, build}. The build id is
     * part of the key so warm state never survives a rebuild —
     * the same rule as the result cache.
     */
    static std::string faultMapKey(const ScenarioSpec &scenario,
                                   std::size_t numLines,
                                   std::size_t lineBits);

    /**
     * Look up @p canonicalKey; on a miss run @p synthesize (without
     * holding the store lock), insert the population it returns, and
     * share it out. Concurrent callers of the same key block until
     * the one synthesis finishes and then count hits — a miss is
     * recorded only for the caller that actually synthesized. A
     * synthesize that throws releases the key's in-flight claim (the
     * next caller retries) and rethrows.
     */
    std::shared_ptr<const FaultPopulation>
    faultPopulation(const std::string &canonicalKey,
                    const std::function<FaultPopulation()> &synthesize);

    /** Drop every entry, counting them as evictions (the daemon
     *  clears warm state when its drain completes — the gauges must
     *  read 0 after a drain, never drift). */
    void clear();

    struct Stats
    {
        std::uint64_t hits = 0;
        /** Exactly the number of syntheses (see faultPopulation). */
        std::uint64_t misses = 0;
        std::uint64_t insertions = 0;
        std::uint64_t evictions = 0;
        std::size_t entries = 0;
        std::uint64_t bytes = 0;
        std::uint64_t maxBytes = 0;

        Json toJson() const;
    };

    Stats stats() const;

  private:
    struct Entry
    {
        std::string hash;
        std::string canonicalKey;
        std::shared_ptr<const FaultPopulation> die;
        /** The die's accounted size. */
        std::size_t bytes = 0;
    };

    /** Caller holds mtx. Insert at LRU front, then evict from the
     *  back while over maxBytes (keeping at least one entry). */
    void insertLocked(Entry entry);

    mutable std::mutex mtx;
    std::condition_variable cv;
    std::size_t maxBytes;
    /** Front = most recently used. */
    std::list<Entry> lru;
    std::unordered_map<std::string, std::list<Entry>::iterator> index;
    /** Keys currently being synthesized (single-flight). */
    std::unordered_set<std::string> inFlight;
    std::uint64_t hitCount = 0;
    std::uint64_t missCount = 0;
    std::uint64_t insertCount = 0;
    std::uint64_t evictCount = 0;
    std::uint64_t bytesStored = 0;
};

} // namespace killi::serve

#endif // KILLI_SERVE_WARM_STORE_HH
