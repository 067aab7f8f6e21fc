#include "storage/chunk.hpp"

#include <atomic>
#include <cstring>

namespace adr {

Chunk::Chunk(ChunkMeta meta, Buffer payload) : meta_(std::move(meta)) {
  if (!payload.empty()) {
    payload_ = std::make_shared<Buffer>(std::move(payload));
    writable_ = true;
  }
}

const Chunk::Buffer& Chunk::empty_buffer() {
  static const Buffer empty;
  return empty;
}

Chunk::Buffer& Chunk::mutable_payload() {
  if (writable_ && payload_.use_count() == 1) {
    // Sole owner.  The acquire fence pairs with the release in the last
    // other owner's reference drop, so its reads of the bytes happen
    // before the caller's writes.
    std::atomic_thread_fence(std::memory_order_acquire);
    return const_cast<Buffer&>(*payload_);
  }
  auto fresh = payload_ != nullptr ? std::make_shared<Buffer>(*payload_)
                                   : std::make_shared<Buffer>();
  Buffer& bytes = *fresh;
  payload_ = std::move(fresh);
  writable_ = true;
  return bytes;
}

std::vector<std::byte> payload_from_doubles(const std::vector<double>& values) {
  std::vector<std::byte> bytes(values.size() * sizeof(double));
  std::memcpy(bytes.data(), values.data(), bytes.size());
  return bytes;
}

}  // namespace adr
