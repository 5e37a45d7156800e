/**
 * @file
 * Content-addressed result cache of the serving daemon.
 *
 * A cache entry maps the SHA-256 of a *canonical request key* — the
 * compact JSON of the fully resolved, result-affecting experiment
 * options plus seed and build id (see SERVING.md, "Cache key") — to
 * the serialized result document produced the first time that sweep
 * point ran. Storing the serialized text (not a parsed tree) makes a
 * hit byte-identical to the original reply by construction and
 * serves it without any re-encoding.
 *
 * Bounded LRU: the daemon is long-lived, so the map cannot grow
 * without limit; the least-recently-served entry is evicted at
 * capacity. All methods are thread-safe (scheduler workers insert
 * while the I/O thread looks up).
 */

#ifndef KILLI_SERVE_CACHE_HH
#define KILLI_SERVE_CACHE_HH

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/json.hh"
#include "metrics/metrics.hh"

namespace killi::serve
{

class ResultCache
{
  public:
    /**
     * @param reg optional metrics registry; when set, the cache
     *        registers hit/miss/insertion/eviction counters,
     *        entry/byte gauges, and a kserved_cache_hit_seconds
     *        lookup-latency histogram. Must outlive the cache.
     */
    explicit ResultCache(std::size_t maxEntries = 1024,
                         metrics::MetricsRegistry *reg = nullptr);

    /** SHA-256 hex of @p canonicalKey — the content address carried
     *  in submitted/result frames as "key". */
    static std::string hashKey(const std::string &canonicalKey);

    /**
     * Look up @p canonicalKey; on a hit copies the stored result
     * text into @p resultText and refreshes LRU recency. @p hashOut
     * (optional) receives the content hash either way.
     */
    bool lookup(const std::string &canonicalKey,
                std::string &resultText,
                std::string *hashOut = nullptr);

    /**
     * Insert (or overwrite) the result for @p canonicalKey and
     * return its content hash. Evicts the least-recently-used entry
     * beyond capacity.
     */
    std::string insert(const std::string &canonicalKey,
                       std::string resultText);

    /**
     * Drop every entry, counting them as evictions. Everything —
     * list, index, and the byte tally — goes under the one cache
     * mutex, so a clear racing a concurrent insert's eviction can
     * never double-subtract an entry's size: whichever side wins the
     * lock accounts the entry exactly once and the bytes gauge ends
     * at 0 (the daemon clears at drain time; pinned in
     * tests/serve_test.cc).
     */
    void clear();

    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t insertions = 0;
        std::uint64_t evictions = 0;
        std::size_t entries = 0;
        std::size_t maxEntries = 0;
        /** Result-text payload bytes currently resident. */
        std::uint64_t bytes = 0;

        double
        hitRate() const
        {
            const double total = double(hits) + double(misses);
            return total > 0 ? double(hits) / total : 0.0;
        }

        Json toJson() const;
    };

    Stats stats() const;

  private:
    struct Entry
    {
        std::string hash;
        std::string canonicalKey;
        std::string resultText;
    };

    mutable std::mutex mtx;
    std::size_t capacity;
    /** Front = most recently used. */
    std::list<Entry> lru;
    std::unordered_map<std::string, std::list<Entry>::iterator> index;
    std::uint64_t hitCount = 0;
    std::uint64_t missCount = 0;
    std::uint64_t insertCount = 0;
    std::uint64_t evictCount = 0;
    std::uint64_t bytesStored = 0;
    /** kserved_cache_hit_seconds; null without a registry. */
    metrics::Histogram *hitLatency = nullptr;
};

} // namespace killi::serve

#endif // KILLI_SERVE_CACHE_HH
