// Gang-scoped shared-scan buffer for batch execution.
//
// SharedScanStore decorates a ChunkStore for the lifetime of one gang
// (Repository::submit_batch): the batch plan registers, per input chunk,
// how many reads the gang's members will issue for it in total.  The
// first get() of a chunk fetches it from the backing store (a *cold*
// fetch) and, when more planned uses remain, retains the payload; every
// later get() is served from the buffer (a *shared hit*) and decrements
// the remaining-use count.  When the count hits zero the entry is
// dropped immediately — residency tracks exactly the window between a
// chunk's first and last planned reader, bounded further by `max_bytes`
// (past the cap, chunks are served pass-through and later users refetch;
// sharing degrades instead of memory growing).
//
// Reads with no registered uses (e.g. output-chunk initialization reads)
// pass straight through.  put()/erase() forward to the backing store and
// update/invalidate any retained copy, so a member that writes a chunk a
// later member reads observes the same bytes serial execution would.
// Hits share the retained payload buffer; nothing is copied.
//
// Thread safety: fully thread-safe (one mutex over the maps; the gang's
// node threads read concurrently).  The mutex is never held across a
// backing fetch: cold fetches are single-flight (storage/single_flight.hpp),
// so planned readers that arrive while a chunk is being fetched wait for
// that fetch, and reads of other chunks proceed.  A put or erase during
// the fetch keeps its possibly superseded bytes from being retained.
// put and erase forward to the backing store before taking the mutex;
// the backing store never calls back in.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "storage/disk_store.hpp"
#include "storage/single_flight.hpp"

namespace adr {

struct SharedScanStats {
  /// Fetches that reached the backing store for a chunk with registered
  /// uses — the gang's cold reads.
  std::uint64_t cold_fetches = 0;
  /// Reads served from the retained buffer or from a cold fetch that
  /// was already in flight.
  std::uint64_t shared_hits = 0;
  /// Reads with no registered use (forwarded untouched).
  std::uint64_t passthrough = 0;
  /// Retentions skipped because max_bytes was reached.
  std::uint64_t cap_rejections = 0;
  std::uint64_t resident_bytes = 0;
  std::uint64_t peak_resident_bytes = 0;
};

class SharedScanStore : public ChunkStore {
 public:
  /// Wraps `backing` (not owned; must outlive this store).  `max_bytes`
  /// caps retained payload bytes; 0 means unlimited.
  explicit SharedScanStore(ChunkStore& backing, std::uint64_t max_bytes = 0);

  /// Registers `uses` planned reads of a chunk (additive across calls).
  void add_planned_uses(ChunkId id, std::uint32_t uses);

  void put(Chunk chunk) override;
  std::optional<Chunk> get(int disk, ChunkId id) const override;
  bool contains(int disk, ChunkId id) const override;
  bool erase(int disk, ChunkId id) override;
  std::size_t chunk_count(int disk) const override;
  std::uint64_t bytes_on_disk(int disk) const override;
  int num_disks() const override { return backing_->num_disks(); }

  SharedScanStats stats() const;

 private:
  struct Entry {
    Chunk chunk;
    std::uint32_t remaining = 0;
  };

  /// Keeps a completed cold fetch for the chunk's remaining planned
  /// readers, when there are any and the cap allows.  Caller holds mutex_.
  void retain_locked(ChunkId id, const std::optional<Chunk>& chunk,
                     const Flight& flight) const;

  ChunkStore* backing_;
  const std::uint64_t max_bytes_;

  mutable std::mutex mutex_;
  mutable std::unordered_map<ChunkId, std::uint32_t, ChunkIdHash> planned_;
  mutable std::unordered_map<ChunkId, Entry, ChunkIdHash> retained_;
  mutable FlightTable flights_;
  mutable SharedScanStats stats_;
};

}  // namespace adr
