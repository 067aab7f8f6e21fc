#include "storage/chunk_cache.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

#include "common/fault.hpp"
#include "obs/metrics.hpp"

namespace adr {
namespace {

// Cumulative process-wide series folding every cache instance's shard
// counters (metric catalog: docs/observability.md).  The per-instance
// ChunkCacheStats stay exact per cache; these are what the stats
// endpoint and long-running dashboards read.
struct CacheMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& hit_bytes;
  obs::Counter& miss_bytes;
  obs::Counter& evictions;
  obs::Counter& insertions;
  obs::Counter& invalidations;
  obs::Counter& coalesced;
  obs::Gauge& resident_bytes;
  obs::Gauge& resident_chunks;
};

CacheMetrics& cache_metrics() {
  static CacheMetrics m{obs::metrics().counter("chunk_cache.hits"),
                        obs::metrics().counter("chunk_cache.misses"),
                        obs::metrics().counter("chunk_cache.hit_bytes"),
                        obs::metrics().counter("chunk_cache.miss_bytes"),
                        obs::metrics().counter("chunk_cache.evictions"),
                        obs::metrics().counter("chunk_cache.insertions"),
                        obs::metrics().counter("chunk_cache.invalidations"),
                        obs::metrics().counter("chunk_cache.coalesced"),
                        obs::metrics().gauge("chunk_cache.resident_bytes"),
                        obs::metrics().gauge("chunk_cache.resident_chunks")};
  return m;
}

}  // namespace

CachingChunkStore::CachingChunkStore(ChunkStore& backing, std::uint64_t bytes_per_disk)
    : backing_(&backing), bytes_per_disk_(bytes_per_disk) {
  if (backing_->num_disks() < 1) {
    throw std::invalid_argument("CachingChunkStore: backing store has no disks");
  }
  shards_.reserve(static_cast<std::size_t>(backing_->num_disks()));
  for (int d = 0; d < backing_->num_disks(); ++d) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

CachingChunkStore::~CachingChunkStore() {
  // Residency gauges are process-wide; give back what this instance
  // still holds so a destroyed repository doesn't leak phantom bytes.
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    cache_metrics().resident_bytes.add(-static_cast<std::int64_t>(shard->bytes));
    cache_metrics().resident_chunks.add(
        -static_cast<std::int64_t>(shard->entries.size()));
  }
}

void CachingChunkStore::uncharge_locked(Shard& shard, const Entry& entry) const {
  shard.bytes -= entry.charged_bytes;
  cache_metrics().resident_bytes.add(-static_cast<std::int64_t>(entry.charged_bytes));
  cache_metrics().resident_chunks.add(-1);
}

void CachingChunkStore::remove_locked(Shard& shard, ChunkId id) const {
  auto it = shard.entries.find(id);
  if (it == shard.entries.end()) return;
  uncharge_locked(shard, it->second);
  shard.lru.erase(it->second.lru_pos);
  shard.entries.erase(it);
}

void CachingChunkStore::install_locked(Shard& shard, const Chunk& chunk) const {
  const ChunkId id = chunk.meta().id;
  const std::uint64_t cost = charge(chunk);
  remove_locked(shard, id);           // refresh: drop any stale copy
  if (cost > bytes_per_disk_) return;  // larger than the whole budget
  // The first victim's hash node and LRU node are taken out whole and
  // re-keyed for the new entry, so a miss that evicts allocates nothing.
  // Its LRU node waits in `spare` so later victims still come off the
  // back of the list.
  Shard::EntryMap::node_type reused;
  std::list<ChunkId> spare;
  while (shard.bytes + cost > bytes_per_disk_) {
    assert(!shard.lru.empty());
    if (reused.empty()) {
      reused = shard.entries.extract(shard.lru.back());
      uncharge_locked(shard, reused.mapped());
      spare.splice(spare.begin(), shard.lru, reused.mapped().lru_pos);
    } else {
      remove_locked(shard, shard.lru.back());
    }
    ++shard.evictions;
    cache_metrics().evictions.add();
  }
  if (reused.empty()) {
    shard.lru.push_front(id);
    shard.entries.emplace(id, Entry{chunk, shard.lru.begin(), cost});
  } else {
    Entry& entry = reused.mapped();
    entry.chunk = chunk;  // drops the victim's payload
    entry.charged_bytes = cost;
    *entry.lru_pos = id;
    shard.lru.splice(shard.lru.begin(), spare, entry.lru_pos);
    reused.key() = id;
    shard.entries.insert(std::move(reused));
  }
  shard.bytes += cost;
  ++shard.insertions;
  cache_metrics().insertions.add();
  cache_metrics().resident_bytes.add(static_cast<std::int64_t>(cost));
  cache_metrics().resident_chunks.add(1);
}

void CachingChunkStore::count_hit_locked(Shard& shard, const Chunk& chunk) const {
  ++shard.hits;
  shard.hit_bytes += chunk.payload().size();
  cache_metrics().hits.add();
  cache_metrics().hit_bytes.add(chunk.payload().size());
}

void CachingChunkStore::put(Chunk chunk) {
  Shard& shard = shard_of(chunk.meta().disk);
  std::lock_guard<std::mutex> lock(shard.mutex);
  backing_->put(chunk);  // write-through first: backing is ground truth
  // A fetch of this id already in flight may have read the old bytes.
  shard.flights.invalidate(chunk.meta().id);
  auto it = shard.entries.find(chunk.meta().id);
  if (it != shard.entries.end()) {
    // Coherence on overwrite of a cached id: refresh in place.
    ++shard.invalidations;
    cache_metrics().invalidations.add();
    install_locked(shard, chunk);
  }
}

std::optional<Chunk> CachingChunkStore::get(int disk, ChunkId id) const {
  Shard& shard = shard_of(disk);
  std::shared_ptr<Flight> flight;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.entries.find(id);
    if (it != shard.entries.end()) {
      count_hit_locked(shard, it->second.chunk);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
      return it->second.chunk;  // shares the cached buffer
    }
    flight = shard.flights.find(id);
    if (flight != nullptr) {
      ++shard.coalesced;
      cache_metrics().coalesced.add();
    } else {
      ++shard.misses;
      cache_metrics().misses.add();
      flight = shard.flights.start(id);
      leader = true;
    }
  }
  return leader ? fetch_as_leader(shard, disk, id, *flight) : await_leader(shard, *flight);
}

std::optional<Chunk> CachingChunkStore::fetch_as_leader(Shard& shard, int disk, ChunkId id,
                                                        Flight& flight) const {
  // A failed backing fetch must never populate the shard: a fault that
  // throws below (or the injected one here, between the fetch and the
  // install) would otherwise be masked for every later reader, serving
  // bytes the "disk" never delivered.  Its waiters get the same error.
  std::optional<Chunk> chunk;
  try {
    chunk = backing_->get(disk, id);
    fault::faults().check("storage.cache_fetch");
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      shard.flights.finish(id, flight);
    }
    flight.fail(std::current_exception());
    throw;
  }
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.flights.finish(id, flight);
    if (chunk.has_value()) {
      const std::uint64_t bytes = std::as_const(*chunk).payload().size();
      shard.miss_bytes += bytes;
      cache_metrics().miss_bytes.add(bytes);
      if (!flight.stale) install_locked(shard, *chunk);
    }
  }
  flight.complete(chunk);
  return chunk;
}

std::optional<Chunk> CachingChunkStore::await_leader(Shard& shard,
                                                     const Flight& flight) const {
  std::optional<Chunk> chunk;
  std::exception_ptr error;
  try {
    chunk = flight.wait();
  } catch (...) {
    error = std::current_exception();
  }
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (chunk.has_value()) {
      count_hit_locked(shard, *chunk);
    } else {
      ++shard.misses;
      cache_metrics().misses.add();
    }
  }
  if (error) std::rethrow_exception(error);
  return chunk;
}

bool CachingChunkStore::contains(int disk, ChunkId id) const {
  return backing_->contains(disk, id);
}

bool CachingChunkStore::erase(int disk, ChunkId id) {
  Shard& shard = shard_of(disk);
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.flights.invalidate(id);
  auto it = shard.entries.find(id);
  if (it != shard.entries.end()) {
    ++shard.invalidations;
    cache_metrics().invalidations.add();
    remove_locked(shard, id);
  }
  return backing_->erase(disk, id);
}

std::size_t CachingChunkStore::chunk_count(int disk) const {
  return backing_->chunk_count(disk);
}

std::uint64_t CachingChunkStore::bytes_on_disk(int disk) const {
  return backing_->bytes_on_disk(disk);
}

ChunkCacheStats CachingChunkStore::stats() const {
  ChunkCacheStats total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total.hits += shard->hits;
    total.misses += shard->misses;
    total.hit_bytes += shard->hit_bytes;
    total.miss_bytes += shard->miss_bytes;
    total.evictions += shard->evictions;
    total.insertions += shard->insertions;
    total.invalidations += shard->invalidations;
    total.coalesced += shard->coalesced;
    total.resident_bytes += shard->bytes;
    total.resident_chunks += shard->entries.size();
  }
  return total;
}

void CachingChunkStore::clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    cache_metrics().resident_bytes.add(-static_cast<std::int64_t>(shard->bytes));
    cache_metrics().resident_chunks.add(
        -static_cast<std::int64_t>(shard->entries.size()));
    shard->lru.clear();
    shard->entries.clear();
    shard->bytes = 0;
  }
}

}  // namespace adr
