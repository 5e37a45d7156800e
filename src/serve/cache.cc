#include "serve/cache.hh"

#include <algorithm>
#include <chrono>

#include "common/hash.hh"
#include "common/log.hh"

namespace killi::serve
{

ResultCache::ResultCache(std::size_t maxEntries,
                         metrics::MetricsRegistry *reg)
    : capacity(std::max<std::size_t>(1, maxEntries))
{
    if (!reg)
        return;
    // Counters are pulled at scrape time from the cache's own
    // accounting; the callbacks take this->mtx, which is safe
    // because the cache never touches the registry after
    // construction. The hit-latency histogram covers the whole
    // lookup (hash + lock + LRU splice + copy-out).
    reg->counterFn("kserved_cache_hits_total",
                   "Result-cache lookups served from memory", {},
                   [this] {
                       std::lock_guard<std::mutex> lock(mtx);
                       return hitCount;
                   });
    reg->counterFn("kserved_cache_misses_total",
                   "Result-cache lookups that required a run", {},
                   [this] {
                       std::lock_guard<std::mutex> lock(mtx);
                       return missCount;
                   });
    reg->counterFn("kserved_cache_insertions_total",
                   "Results inserted into the cache", {}, [this] {
                       std::lock_guard<std::mutex> lock(mtx);
                       return insertCount;
                   });
    reg->counterFn("kserved_cache_evictions_total",
                   "Entries evicted by the LRU bound", {}, [this] {
                       std::lock_guard<std::mutex> lock(mtx);
                       return evictCount;
                   });
    reg->gaugeFn("kserved_cache_entries", "Entries resident in the cache",
                 {}, [this] {
                     std::lock_guard<std::mutex> lock(mtx);
                     return double(lru.size());
                 });
    reg->gaugeFn("kserved_cache_bytes",
                 "Result-text payload bytes resident in the cache", {},
                 [this] {
                     std::lock_guard<std::mutex> lock(mtx);
                     return double(bytesStored);
                 });
    hitLatency = &reg->histogram(
        "kserved_cache_hit_seconds",
        "Latency of result-cache lookups that hit", {},
        // Hits are microseconds, not sweep-seconds: start the
        // buckets at 1 us.
        metrics::HistogramSpec{1e-6, 2.0, 24});
}

std::string
ResultCache::hashKey(const std::string &canonicalKey)
{
    return sha256Hex(canonicalKey);
}

bool
ResultCache::lookup(const std::string &canonicalKey,
                    std::string &resultText, std::string *hashOut)
{
    const auto t0 = std::chrono::steady_clock::now();
    const std::string hash = hashKey(canonicalKey);
    if (hashOut)
        *hashOut = hash;
    {
        std::lock_guard<std::mutex> lock(mtx);
        const auto it = index.find(hash);
        if (it == index.end()) {
            ++missCount;
            return false;
        }
        // A 256-bit collision is not a realistic event; a mismatch
        // here means the canonicalization itself is broken.
        if (it->second->canonicalKey != canonicalKey) {
            panic("ResultCache: content-hash collision for key '%s'",
                  canonicalKey.c_str());
        }
        lru.splice(lru.begin(), lru, it->second);
        resultText = it->second->resultText;
        ++hitCount;
    }
    if (hitLatency) {
        hitLatency->observe(std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count());
    }
    return true;
}

std::string
ResultCache::insert(const std::string &canonicalKey,
                    std::string resultText)
{
    std::string hash = hashKey(canonicalKey);
    std::lock_guard<std::mutex> lock(mtx);
    const auto it = index.find(hash);
    if (it != index.end()) {
        // Concurrent submits of the same uncached point both
        // compute it; results are deterministic, keep the newest.
        bytesStored -= it->second->resultText.size();
        bytesStored += resultText.size();
        it->second->resultText = std::move(resultText);
        lru.splice(lru.begin(), lru, it->second);
        return hash;
    }
    bytesStored += resultText.size();
    lru.push_front(Entry{hash, canonicalKey, std::move(resultText)});
    index.emplace(hash, lru.begin());
    ++insertCount;
    while (lru.size() > capacity) {
        bytesStored -= lru.back().resultText.size();
        index.erase(lru.back().hash);
        lru.pop_back();
        ++evictCount;
    }
    return hash;
}

void
ResultCache::clear()
{
    std::lock_guard<std::mutex> lock(mtx);
    evictCount += lru.size();
    lru.clear();
    index.clear();
    bytesStored = 0;
}

ResultCache::Stats
ResultCache::stats() const
{
    std::lock_guard<std::mutex> lock(mtx);
    Stats s;
    s.hits = hitCount;
    s.misses = missCount;
    s.insertions = insertCount;
    s.evictions = evictCount;
    s.entries = lru.size();
    s.maxEntries = capacity;
    s.bytes = bytesStored;
    return s;
}

Json
ResultCache::Stats::toJson() const
{
    Json doc = Json::object();
    doc.set("hits", Json::number(hits));
    doc.set("misses", Json::number(misses));
    doc.set("insertions", Json::number(insertions));
    doc.set("evictions", Json::number(evictions));
    doc.set("entries", Json::number(std::uint64_t(entries)));
    doc.set("max_entries", Json::number(std::uint64_t(maxEntries)));
    doc.set("bytes", Json::number(bytes));
    doc.set("hit_rate", Json::number(hitRate()));
    return doc;
}

} // namespace killi::serve
