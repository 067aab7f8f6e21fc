// Recycled payload buffers (storage/payload_pool.hpp): exact-size reuse,
// return on the last owner's drop, the byte bound, and buffers that
// cycle between threads.  PayloadPool.* is a ThreadSanitizer target (see
// .github/workflows/ci.yml).
#include "storage/payload_pool.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace adr {
namespace {

std::uint64_t reused() {
  return obs::metrics().counter("storage.payload_buffers_reused").value();
}

std::uint64_t allocated() {
  return obs::metrics().counter("storage.payload_buffers_allocated").value();
}

TEST(PayloadPool, DroppedBufferIsReusedForTheSameSize) {
  PooledPayload first = acquire_payload(1000);
  ASSERT_EQ(first->size(), 1000u);
  const std::byte* data = first->data();
  first.reset();

  const std::uint64_t reused_before = reused();
  const std::uint64_t allocated_before = allocated();
  PooledPayload again = acquire_payload(1000);
  EXPECT_EQ(again->data(), data);
  EXPECT_EQ(again->size(), 1000u);
  EXPECT_EQ(reused(), reused_before + 1);
  EXPECT_EQ(allocated(), allocated_before);
}

TEST(PayloadPool, ADifferentSizeGetsItsOwnBuffer) {
  PooledPayload small = acquire_payload(1001);
  const std::byte* data = small->data();
  small.reset();

  const std::uint64_t allocated_before = allocated();
  PooledPayload other = acquire_payload(1002);
  EXPECT_NE(other->data(), data);
  EXPECT_EQ(other->size(), 1002u);
  EXPECT_EQ(allocated(), allocated_before + 1);
}

TEST(PayloadPool, SharedBufferReturnsOnlyWhenItsLastOwnerDrops) {
  PooledPayload pooled = acquire_payload(1003);
  std::memset(pooled->data(), 0x5A, pooled->size());
  const std::byte* data = pooled->data();
  std::shared_ptr<const Chunk::Buffer> owner(std::move(pooled));
  std::shared_ptr<const Chunk::Buffer> other = owner;

  owner.reset();
  PooledPayload while_shared = acquire_payload(1003);
  EXPECT_NE(while_shared->data(), data);  // `other` still reads it
  EXPECT_EQ((*other)[0], std::byte{0x5A});
  EXPECT_EQ((*other)[1002], std::byte{0x5A});

  other.reset();
  PooledPayload after = acquire_payload(1003);
  EXPECT_EQ(after->data(), data);
}

TEST(PayloadPool, ParksNoMoreThanItsBound) {
  constexpr std::size_t kBytes = 64 * 1024;
  constexpr std::size_t kBound = kPayloadPoolBytes / kBytes;
  constexpr std::size_t kCount = kBound + 8;
  std::vector<PooledPayload> held;
  for (std::size_t i = 0; i < kCount; ++i) held.push_back(acquire_payload(kBytes));
  held.clear();  // more than the pool may keep

  const std::uint64_t reused_before = reused();
  for (std::size_t i = 0; i < kCount; ++i) held.push_back(acquire_payload(kBytes));
  const std::uint64_t reuses = reused() - reused_before;
  EXPECT_GT(reuses, 0u);
  EXPECT_LE(reuses, kBound);
}

TEST(PayloadPool, BuffersCycleIntactBetweenThreads) {
  // Each thread fills pooled buffers and hands them to the next thread
  // in a ring, which checks and drops them: a buffer one thread wrote is
  // parked by another, which acquires and rewrites it.  Every buffer
  // must hold exactly what its writer put there until it is dropped.
  constexpr int kThreads = 3;
  constexpr int kPerThread = 400;
  using Handed = std::pair<std::shared_ptr<const Chunk::Buffer>, std::byte>;
  struct Inbox {
    std::mutex mutex;
    std::vector<Handed> items;
  };
  std::array<Inbox, kThreads> inboxes;
  std::atomic<int> bad{0};
  std::atomic<int> producing{kThreads};
  const std::uint64_t reused_before = reused();
  // Checks and drops everything handed to `inbox`; returns how many.
  const auto drain = [&bad](Inbox& inbox) {
    std::vector<Handed> batch;
    {
      std::lock_guard<std::mutex> lock(inbox.mutex);
      batch.swap(inbox.items);
    }
    for (const auto& [buffer, fill] : batch) {
      for (const std::byte b : *buffer) {
        if (b != fill) {
          ++bad;
          break;
        }
      }
    }
    return batch.size();
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      Inbox& next = inboxes[static_cast<std::size_t>((t + 1) % kThreads)];
      for (int i = 0; i < kPerThread; ++i) {
        PooledPayload p = acquire_payload(512 + static_cast<std::size_t>(i % 3) * 64);
        const auto fill = static_cast<std::byte>((t * kPerThread + i) & 0xFF);
        std::memset(p->data(), static_cast<int>(fill), p->size());
        {
          std::lock_guard<std::mutex> lock(next.mutex);
          next.items.emplace_back(std::shared_ptr<const Chunk::Buffer>(std::move(p)),
                                  fill);
        }
        drain(inboxes[static_cast<std::size_t>(t)]);
      }
      --producing;
      for (;;) {
        const bool all_produced = producing.load() == 0;  // read before the last drain
        if (drain(inboxes[static_cast<std::size_t>(t)]) == 0 && all_produced) return;
        std::this_thread::yield();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GT(reused(), reused_before);
}

#if defined(__SANITIZE_ADDRESS__)
TEST(PayloadPoolDeathTest, AStaleReferenceIntoAParkedBufferFaults) {
  PooledPayload pooled = acquire_payload(1004);
  std::shared_ptr<const Chunk::Buffer> owner(std::move(pooled));
  const std::byte* stale = owner->data();
  owner.reset();  // parked, not freed
  EXPECT_DEATH(
      {
        volatile std::byte b = stale[0];
        (void)b;
      },
      "use-after-poison");
}
#endif

}  // namespace
}  // namespace adr
