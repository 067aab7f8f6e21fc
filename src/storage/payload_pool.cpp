#include "storage/payload_pool.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <mutex>
#include <vector>

#include "obs/metrics.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace adr {
namespace {

constexpr std::size_t kShards = 16;
constexpr std::size_t kShardBytes = kPayloadPoolBytes / kShards;
/// Parked buffers one shard tracks, whatever their size.
constexpr std::size_t kShardBuffers = 256;
/// How many of the most recently parked buffers an acquire checks for
/// its size.  A query reads one input and at most one output dataset,
/// so the size it wants is almost always on top; older buffers of sizes
/// nobody asks for any more sink and are freed first.
constexpr std::size_t kProbe = 8;

struct PoolMetrics {
  obs::Counter& reused;
  obs::Counter& allocated;
};

PoolMetrics& pool_metrics() {
  static PoolMetrics m{obs::metrics().counter("storage.payload_buffers_reused"),
                       obs::metrics().counter("storage.payload_buffers_allocated")};
  return m;
}

struct alignas(64) Shard {
  Shard() { parked.reserve(kShardBuffers); }

  std::mutex mutex;
  std::vector<Chunk::Buffer*> parked;  // oldest first
  std::size_t parked_bytes = 0;
};

/// Deliberately never destroyed: a chunk held by another static object
/// may drop its buffer during static destruction, after a pool with a
/// destructor would be gone.  Parked buffers stay reachable from it.
std::array<Shard, kShards>& shards() {
  static auto* pool = new std::array<Shard, kShards>();
  return *pool;
}

std::uint8_t this_thread_shard() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const auto shard =
      static_cast<std::uint8_t>(next.fetch_add(1, std::memory_order_relaxed) % kShards);
  return shard;
}

}  // namespace

PooledPayload acquire_payload(std::size_t bytes) {
  Shard& shard = shards()[this_thread_shard()];
  Chunk::Buffer* buffer = nullptr;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto newest = shard.parked.rbegin();
    const auto last =
        newest + static_cast<std::ptrdiff_t>(std::min(kProbe, shard.parked.size()));
    const auto it = std::find_if(newest, last, [bytes](const Chunk::Buffer* b) {
      return b->size() == bytes;
    });
    if (it != last) {
      buffer = *it;
      shard.parked.erase(std::next(it).base());
      shard.parked_bytes -= bytes;
    }
  }
  if (buffer != nullptr) {
    ASAN_UNPOISON_MEMORY_REGION(buffer->data(), buffer->size());
    pool_metrics().reused.add();
  } else {
    buffer = new Chunk::Buffer(bytes);
    pool_metrics().allocated.add();
  }
  return PooledPayload(buffer);
}

void ParkPayload::operator()(Chunk::Buffer* buffer) const noexcept {
  const std::size_t bytes = buffer->size();
  if (bytes == 0 || bytes > kShardBytes) {
    delete buffer;
    return;
  }
  Shard& home = shards()[this_thread_shard()];
  std::lock_guard<std::mutex> lock(home.mutex);
  // Make room by freeing the oldest parked buffers.
  std::size_t drop = 0;
  std::size_t room = kShardBytes - home.parked_bytes;
  while (room < bytes || home.parked.size() - drop >= kShardBuffers) {
    Chunk::Buffer* oldest = home.parked[drop++];
    room += oldest->size();
    home.parked_bytes -= oldest->size();
    ASAN_UNPOISON_MEMORY_REGION(oldest->data(), oldest->size());
    delete oldest;
  }
  home.parked.erase(home.parked.begin(),
                    home.parked.begin() + static_cast<std::ptrdiff_t>(drop));
  // Poisoned under the shard lock, before acquire_payload can take it
  // (which unpoisons only after taking it off the list).
  ASAN_POISON_MEMORY_REGION(buffer->data(), bytes);
  home.parked.push_back(buffer);  // never reallocates: size < kShardBuffers
  home.parked_bytes += bytes;
}

}  // namespace adr
