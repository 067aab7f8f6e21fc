// Single-flight chunk fetches.
//
// When several readers miss the same chunk at once, only the first (the
// leader) reads it from the backing store.  The others wait on the
// leader's Flight and get its outcome, the same bytes or the same error,
// instead of issuing reads of their own or blocking on a lock held
// across the leader's I/O.  CachingChunkStore and SharedScanStore each
// keep a FlightTable under their own lock; nothing else is locked while
// the leader fetches.
//
// A put or erase of a chunk whose fetch is in flight marks the Flight
// stale and detaches it from the table: the fetched bytes may predate
// the write, so the owner must not keep them, and the next miss starts
// a fresh fetch.  Readers already waiting still get the leader's
// outcome; they raced the write, so either version is a valid read.
#pragma once

#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "storage/chunk.hpp"

namespace adr {

/// One backing fetch of a chunk, shared by its leader and its waiters.
class Flight {
 public:
  /// Publishes the leader's result and wakes every waiter.
  void complete(const std::optional<Chunk>& chunk);
  /// Publishes the leader's error; every waiter rethrows it.
  void fail(std::exception_ptr error);
  /// Blocks until the leader publishes, then returns its chunk (sharing
  /// the payload buffer) or rethrows its error.
  std::optional<Chunk> wait() const;

  /// Set under the owner's lock when a put or erase of the chunk lands
  /// during the fetch.
  bool stale = false;

 private:
  mutable std::mutex mutex_;
  mutable std::condition_variable published_;
  bool done_ = false;
  std::optional<Chunk> chunk_;
  std::exception_ptr error_;
};

/// In-flight fetches by chunk id.  Not synchronized: the owner guards it
/// with its own lock.
class FlightTable {
 public:
  /// The fetch of `id` in flight, or null.
  std::shared_ptr<Flight> find(ChunkId id) const;
  /// Registers a new fetch of `id`; the caller is its leader and must
  /// finish() it and then complete() or fail() it.
  std::shared_ptr<Flight> start(ChunkId id);
  /// A put or erase of `id` landed: marks its fetch stale and detaches it.
  void invalidate(ChunkId id);
  /// Detaches `flight` if it is still the fetch registered for `id`.
  void finish(ChunkId id, const Flight& flight);

 private:
  std::unordered_map<ChunkId, std::shared_ptr<Flight>, ChunkIdHash> flights_;
};

}  // namespace adr
