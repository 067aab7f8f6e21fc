// Cross-query chunk cache (the buffer cache the paper flushed away,
// rebuilt for the serving path).
//
// CachingChunkStore decorates any ChunkStore with a sharded LRU payload
// cache: one shard per disk of the farm, each with its own lock and byte
// budget, so node threads reading from different disks never contend.
// Reads that hit serve from memory; misses fall through to the backing
// store and populate the shard.  put() is write-through and updates an
// already-cached id in place (a put of an uncached id does not allocate
// cache space — query outputs don't pollute the read cache); erase()
// invalidates.  The cache sits *below* the engine: plan chunk-read counts
// and ExecStats::chunks_read are unchanged, only where the bytes come
// from changes — exactly the layering bench/ablation_caching.cpp modelled
// in the simulator.
//
// A hit shares the cached payload buffer (a refcount bump, no copy).
// Misses are single-flight (storage/single_flight.hpp): the first reader
// to miss an id fetches it with no shard lock held, and concurrent
// readers missing the same id wait for that fetch instead of reading it
// again.  A waiter served that way counts as a hit: its bytes did not
// come from the backing store.  A put or erase of the id during the
// fetch marks it stale, so bytes that may predate the write are never
// installed.
//
// Thread safety: fully thread-safe.  Lock order: shard mutex -> backing
// store's internal locks (put and erase hold the shard lock across the
// backing write so the cache and the backing store change in the same
// order; a get never holds it across the backing read; the backing store
// never calls back into the cache).  An eviction drops its payload under
// the shard lock, which may park a pooled buffer: shard mutex -> payload
// pool shard (storage/payload_pool.hpp), and the pool never calls back.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "storage/disk_store.hpp"
#include "storage/single_flight.hpp"

namespace adr {

/// Monotonic counters, aggregated over all shards.
struct ChunkCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  /// Payload bytes served from memory (hits) vs fetched from the
  /// backing store (misses) — the byte-level split the per-query cost
  /// ledger reconciles against (obs/query_cost.hpp).
  std::uint64_t hit_bytes = 0;
  std::uint64_t miss_bytes = 0;
  std::uint64_t evictions = 0;
  std::uint64_t insertions = 0;
  std::uint64_t invalidations = 0;
  /// Gets that missed while another reader's fetch of the same id was in
  /// flight and waited for it instead of reading the backing store.  Each
  /// is also counted once in hits (or in misses, when that fetch failed
  /// or found nothing).
  std::uint64_t coalesced = 0;
  /// Point-in-time occupancy.
  std::uint64_t resident_bytes = 0;
  std::uint64_t resident_chunks = 0;
};

class CachingChunkStore : public ChunkStore {
 public:
  /// Wraps `backing` (not owned; must outlive the cache) with one LRU
  /// shard per backing disk, each budgeted `bytes_per_disk`.
  CachingChunkStore(ChunkStore& backing, std::uint64_t bytes_per_disk);
  ~CachingChunkStore() override;

  void put(Chunk chunk) override;
  std::optional<Chunk> get(int disk, ChunkId id) const override;
  bool contains(int disk, ChunkId id) const override;
  bool erase(int disk, ChunkId id) override;
  std::size_t chunk_count(int disk) const override;
  std::uint64_t bytes_on_disk(int disk) const override;
  int num_disks() const override { return backing_->num_disks(); }

  ChunkStore& backing() { return *backing_; }
  std::uint64_t bytes_per_disk() const { return bytes_per_disk_; }

  ChunkCacheStats stats() const;

  /// Drops every cached payload (counters keep counting).
  void clear();

 private:
  /// Memory charged to a cached chunk beyond its payload (map/list node
  /// and metadata overhead) so metadata-only chunks still have a cost.
  static constexpr std::uint64_t kEntryOverheadBytes = 64;

  struct Entry {
    Chunk chunk;
    std::list<ChunkId>::iterator lru_pos;
    std::uint64_t charged_bytes = 0;
  };
  struct Shard {
    using EntryMap = std::unordered_map<ChunkId, Entry, ChunkIdHash>;
    mutable std::mutex mutex;
    std::list<ChunkId> lru;  // front = most recently used
    EntryMap entries;
    FlightTable flights;
    std::uint64_t bytes = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t hit_bytes = 0;
    std::uint64_t miss_bytes = 0;
    std::uint64_t evictions = 0;
    std::uint64_t insertions = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t coalesced = 0;
  };

  static std::uint64_t charge(const Chunk& chunk) {
    return chunk.payload().size() + kEntryOverheadBytes;
  }

  Shard& shard_of(int disk) const {
    check_disk(disk);
    return *shards_[static_cast<std::size_t>(disk)];
  }
  /// The leader's side of a miss: fetches without the shard lock and
  /// installs the result unless a put or erase made it stale.
  std::optional<Chunk> fetch_as_leader(Shard& shard, int disk, ChunkId id,
                                       Flight& flight) const;
  /// A waiter's side of a miss: the leader's outcome, counted as a hit
  /// when it delivered a chunk and as a miss otherwise.
  std::optional<Chunk> await_leader(Shard& shard, const Flight& flight) const;
  void count_hit_locked(Shard& shard, const Chunk& chunk) const;
  /// Inserts or refreshes `chunk` in `shard`, evicting LRU entries until
  /// it fits.  Caller holds the shard mutex.
  void install_locked(Shard& shard, const Chunk& chunk) const;
  void remove_locked(Shard& shard, ChunkId id) const;
  /// Takes `entry`'s charge off the shard and the residency gauges.
  void uncharge_locked(Shard& shard, const Entry& entry) const;

  ChunkStore* backing_;
  std::uint64_t bytes_per_disk_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace adr
