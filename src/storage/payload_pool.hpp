// Recycled payload buffers for cold chunk reads.
//
// A cold read needs a buffer of exactly the chunk's size.  A fresh
// std::vector per read is allocated, zero-filled only for pread to
// overwrite every byte, and freed again when the chunk cache evicts it.
// The pool breaks that cycle: acquire_payload() hands out a parked
// buffer of the same size with its old bytes untouched, and when the
// last owner of a buffer drops it, the buffer is parked again instead
// of freed.
//
// Lifecycle:
//   acquire_payload(n)  -> PooledPayload, the sole and writable owner
//   fill every byte     -> (FileChunkStore: pread_exact)
//   std::shared_ptr<const Chunk::Buffer>(std::move(pooled))
//                       -> shared, read-only; ParkPayload is its deleter
//   last owner drops it -> parked in the dropping thread's shard
// A PooledPayload destroyed before it is shared (a failed read) parks
// its buffer without anyone having seen the bytes.
//
// Bounds: the free lists are sharded by thread, and together park at
// most kPayloadPoolBytes; parking into a full shard frees that shard's
// oldest parked buffers first.  A buffer parks with the thread that
// dropped it: on a cold read that is the node thread whose miss evicted
// it from the chunk cache (or that finished aggregating it), which is
// the thread that acquires the next buffer for the next miss.  Buffers
// keep their size while parked and are reused only for a request of
// that exact size, so a reuse never resizes or fills.
//
// Under AddressSanitizer a parked buffer's bytes are poisoned, so a
// stale reference into one still faults even though the memory was not
// freed.
//
// Locking: a shard's mutex guards only its free lists and is always the
// innermost lock (a cache shard may hold its own lock while an eviction
// parks a buffer); the pool never calls out while holding it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "storage/chunk.hpp"

namespace adr {

/// Upper bound on the bytes parked across all shards.  Sized for the
/// transient buffers of in-flight misses and recently dropped chunks,
/// well below the allocator churn it replaces; not a tuning knob.
inline constexpr std::size_t kPayloadPoolBytes = std::size_t{16} << 20;

/// Deleter that parks a buffer in the releasing thread's pool shard.
struct ParkPayload {
  void operator()(Chunk::Buffer* buffer) const noexcept;
};

using PooledPayload = std::unique_ptr<Chunk::Buffer, ParkPayload>;

/// A buffer of exactly `bytes` bytes (> 0) with unspecified contents:
/// a parked one when this thread's shard has one of that size, otherwise
/// a new one.  Ticks storage.payload_buffers_reused or
/// storage.payload_buffers_allocated.
PooledPayload acquire_payload(std::size_t bytes);

}  // namespace adr
