// Chunks: ADR's unit of storage, I/O and communication.
//
// Every dataset is partitioned into chunks; each chunk carries the minimum
// bounding rectangle (MBR) of its items in the dataset's attribute space,
// a placement (which disk of the farm holds it), and optionally a payload.
// Payloads are real bytes in thread-executor runs; simulation runs may use
// metadata-only chunks whose size still drives I/O and network costs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/geometry.hpp"

namespace adr {

/// Identifies a chunk within the repository: (dataset id, chunk index).
struct ChunkId {
  std::uint32_t dataset = 0;
  std::uint32_t index = 0;

  bool operator==(const ChunkId&) const = default;
  auto operator<=>(const ChunkId&) const = default;

  std::string to_string() const {
    return "d" + std::to_string(dataset) + ":c" + std::to_string(index);
  }
};

struct ChunkIdHash {
  std::size_t operator()(const ChunkId& id) const {
    return std::hash<std::uint64_t>{}((static_cast<std::uint64_t>(id.dataset) << 32) |
                                      id.index);
  }
};

/// Chunk metadata: everything the planner and indexing service need.
struct ChunkMeta {
  ChunkId id;
  /// MBR of the chunk's items in the dataset's attribute space.
  Rect mbr;
  /// On-disk size in bytes (drives I/O and communication costs).
  std::uint64_t bytes = 0;
  /// Global disk index (node-major across the disk farm); -1 = unplaced.
  int disk = -1;
};

/// A chunk with (optional) payload.
///
/// The payload is an immutable, reference-counted buffer: copying a
/// Chunk (a cache hit, a shared-scan hit, a message to another node)
/// shares the bytes instead of copying them.  The const accessors never
/// copy.  The non-const accessors copy on write: when the buffer is
/// shared they first give this Chunk a private copy, so a mutation is
/// never visible through any other Chunk.  A reference or span taken from
/// a non-const accessor is only valid until this Chunk is next copied.
class Chunk {
 public:
  using Buffer = std::vector<std::byte>;

  Chunk() = default;
  explicit Chunk(ChunkMeta meta) : meta_(std::move(meta)) {}
  Chunk(ChunkMeta meta, Buffer payload);
  /// Adopts a buffer that is already shared (null means no payload).
  Chunk(ChunkMeta meta, std::shared_ptr<const Buffer> payload)
      : meta_(std::move(meta)), payload_(std::move(payload)) {}

  const ChunkMeta& meta() const { return meta_; }
  ChunkMeta& meta() { return meta_; }

  bool has_payload() const { return payload_ != nullptr && !payload_->empty(); }
  const Buffer& payload() const { return payload_ != nullptr ? *payload_ : empty_buffer(); }
  Buffer& payload() { return mutable_payload(); }

  /// The shared buffer itself (null when the chunk has no payload):
  /// hands the bytes on to a message or another Chunk without a copy.
  const std::shared_ptr<const Buffer>& shared_payload() const { return payload_; }

  /// Reinterprets the payload as an array of T (size must divide evenly).
  template <typename T>
  std::span<const T> as() const {
    const Buffer& bytes = payload();
    return {reinterpret_cast<const T*>(bytes.data()), bytes.size() / sizeof(T)};
  }

  template <typename T>
  std::span<T> as() {
    Buffer& bytes = mutable_payload();
    return {reinterpret_cast<T*>(bytes.data()), bytes.size() / sizeof(T)};
  }

 private:
  static const Buffer& empty_buffer();
  /// Copy-on-write: makes this Chunk the buffer's sole, writable owner.
  Buffer& mutable_payload();

  ChunkMeta meta_;
  std::shared_ptr<const Buffer> payload_;
  /// True when payload_ was allocated by a Chunk as a mutable Buffer, so
  /// its sole owner may write through it.  An adopted buffer may have
  /// been created const and is always copied before a write.
  bool writable_ = false;
};

/// Builds a payload from a vector of doubles (the emulators' item type).
std::vector<std::byte> payload_from_doubles(const std::vector<double>& values);

}  // namespace adr
