#include "storage/shared_scan.hpp"

#include <algorithm>
#include <utility>

#include "common/fault.hpp"

namespace adr {

SharedScanStore::SharedScanStore(ChunkStore& backing, std::uint64_t max_bytes)
    : backing_(&backing), max_bytes_(max_bytes) {}

void SharedScanStore::add_planned_uses(ChunkId id, std::uint32_t uses) {
  if (uses == 0) return;
  std::lock_guard lock(mutex_);
  planned_[id] += uses;
}

std::optional<Chunk> SharedScanStore::get(int disk, ChunkId id) const {
  check_disk(disk);
  std::unique_lock lock(mutex_);
  if (auto it = retained_.find(id); it != retained_.end()) {
    ++stats_.shared_hits;
    Chunk shared = it->second.chunk;  // shares the retained buffer
    if (--it->second.remaining == 0) {
      stats_.resident_bytes -= std::as_const(shared).payload().size();
      retained_.erase(it);
    }
    return shared;
  }

  auto planned = planned_.find(id);
  if (planned == planned_.end()) {
    ++stats_.passthrough;
    lock.unlock();
    return backing_->get(disk, id);
  }
  // This reader spends one planned use.  The uses left in planned_ are
  // the gang's later readers: they join the fetch below while it is in
  // flight, and share its retained copy once it lands.
  if (--planned->second == 0) planned_.erase(planned);

  if (std::shared_ptr<Flight> flight = flights_.find(id)) {
    ++stats_.shared_hits;
    lock.unlock();
    return flight->wait();
  }

  // First planned reader: pay the cold fetch, with no lock held.
  ++stats_.cold_fetches;
  std::shared_ptr<Flight> flight = flights_.start(id);
  lock.unlock();
  std::optional<Chunk> chunk;
  try {
    fault::faults().check("storage.shared_fetch");
    chunk = backing_->get(disk, id);
  } catch (...) {
    // A failed cold fetch consumes only the uses of the readers it
    // served (the leader and its waiters, who get the same error).  The
    // rest stay registered, so the gang's later readers are still
    // counted, and retained once a retry succeeds, instead of the whole
    // refcount leaking away into passthrough reads.
    lock.lock();
    flights_.finish(id, *flight);
    lock.unlock();
    flight->fail(std::current_exception());
    throw;
  }
  lock.lock();
  flights_.finish(id, *flight);
  retain_locked(id, chunk, *flight);
  lock.unlock();
  flight->complete(chunk);
  return chunk;
}

void SharedScanStore::retain_locked(ChunkId id, const std::optional<Chunk>& chunk,
                                    const Flight& flight) const {
  auto planned = planned_.find(id);
  // Nothing to keep for: no later readers, an absent chunk, or bytes a
  // put or erase may have superseded mid-fetch.  Later readers refetch.
  if (planned == planned_.end() || !chunk.has_value() || flight.stale) return;
  const std::uint64_t charge = chunk->payload().size();
  if (max_bytes_ != 0 && stats_.resident_bytes + charge > max_bytes_) {
    // Over budget: the later readers stay registered and refetch (and
    // are retained once memory frees up).
    ++stats_.cap_rejections;
    return;
  }
  retained_.emplace(id, Entry{*chunk, planned->second});
  planned_.erase(planned);
  stats_.resident_bytes += charge;
  stats_.peak_resident_bytes = std::max(stats_.peak_resident_bytes, stats_.resident_bytes);
}

void SharedScanStore::put(Chunk chunk) {
  // Backing first: once the retained copy and any in-flight fetch are
  // updated below, no reader can pick up bytes older than this write.
  backing_->put(chunk);
  std::lock_guard lock(mutex_);
  flights_.invalidate(chunk.meta().id);
  if (auto it = retained_.find(chunk.meta().id); it != retained_.end()) {
    stats_.resident_bytes -= std::as_const(it->second.chunk).payload().size();
    stats_.resident_bytes += std::as_const(chunk).payload().size();
    stats_.peak_resident_bytes =
        std::max(stats_.peak_resident_bytes, stats_.resident_bytes);
    it->second.chunk = std::move(chunk);
  }
}

bool SharedScanStore::contains(int disk, ChunkId id) const {
  return backing_->contains(disk, id);
}

bool SharedScanStore::erase(int disk, ChunkId id) {
  const bool existed = backing_->erase(disk, id);
  std::lock_guard lock(mutex_);
  flights_.invalidate(id);
  if (auto it = retained_.find(id); it != retained_.end()) {
    stats_.resident_bytes -= std::as_const(it->second.chunk).payload().size();
    retained_.erase(it);
  }
  planned_.erase(id);
  return existed;
}

std::size_t SharedScanStore::chunk_count(int disk) const {
  return backing_->chunk_count(disk);
}

std::uint64_t SharedScanStore::bytes_on_disk(int disk) const {
  return backing_->bytes_on_disk(disk);
}

SharedScanStats SharedScanStore::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

}  // namespace adr
