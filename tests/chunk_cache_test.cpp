// CachingChunkStore (cross-query chunk cache) tests: LRU mechanics and
// coherence against the backing store, then the Repository-level
// behaviour — a repeated query served warm out of the cache,
// byte-identical to cold.
//
// The ChunkCache.Concurrent* suites are ThreadSanitizer targets (see
// .github/workflows/ci.yml).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <future>
#include <list>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/fault.hpp"
#include "core/frontend.hpp"
#include "obs/metrics.hpp"
#include "storage/chunk_cache.hpp"
#include "storage/disk_store.hpp"
#include "storage/payload_pool.hpp"
#include "test_helpers.hpp"

namespace adr {
namespace {

Chunk make_chunk(std::uint32_t dataset, std::uint32_t index, int disk,
                 std::size_t payload_bytes, std::byte fill = std::byte{0xAB}) {
  ChunkMeta meta;
  meta.id = {dataset, index};
  meta.disk = disk;
  meta.bytes = payload_bytes;
  meta.mbr = Rect::cube(2, 0.0, 1.0);
  return Chunk(meta, std::vector<std::byte>(payload_bytes, fill));
}

// ------------------------------------------------- store-level behaviour

TEST(ChunkCache, MissThenHitServesIdenticalBytes) {
  MemoryChunkStore backing(2);
  backing.put(make_chunk(1, 0, 0, 100, std::byte{0x11}));
  backing.put(make_chunk(1, 1, 1, 200, std::byte{0x22}));
  CachingChunkStore cache(backing, /*bytes_per_disk=*/1 << 20);

  const auto cold0 = cache.get(0, {1, 0});
  const auto cold1 = cache.get(1, {1, 1});
  ASSERT_TRUE(cold0.has_value());
  ASSERT_TRUE(cold1.has_value());
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().resident_chunks, 2u);

  const auto warm0 = cache.get(0, {1, 0});
  const auto warm1 = cache.get(1, {1, 1});
  ASSERT_TRUE(warm0.has_value());
  ASSERT_TRUE(warm1.has_value());
  EXPECT_EQ(warm0->payload(), cold0->payload());
  EXPECT_EQ(warm1->payload(), cold1->payload());
  EXPECT_EQ(warm0->meta().id, cold0->meta().id);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(ChunkCache, MissingChunkIsMissNotCrash) {
  MemoryChunkStore backing(1);
  CachingChunkStore cache(backing, 1 << 20);
  EXPECT_FALSE(cache.get(0, {9, 9}).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().resident_chunks, 0u);  // absent chunks not cached
}

TEST(ChunkCache, FailedFetchIsNeverCached) {
  // Regression: a fetch that errors must not install anything — a
  // cached copy would mask the fault for every later reader, serving
  // bytes the disk never delivered.
  MemoryChunkStore backing(1);
  backing.put(make_chunk(1, 0, 0, 64, std::byte{0x33}));
  CachingChunkStore cache(backing, 1 << 20);

  fault::ScopedFaultPlan plan(/*seed=*/51);
  fault::FaultSpec spec;
  spec.trigger = fault::Trigger::kOneShot;
  plan.arm("storage.cache_fetch", spec);
  EXPECT_THROW(cache.get(0, {1, 0}), StatusError);
  EXPECT_EQ(cache.stats().resident_chunks, 0u);
  EXPECT_EQ(cache.stats().insertions, 0u);

  // Budget spent: the retry is a clean miss that fetches real bytes.
  const auto retried = cache.get(0, {1, 0});
  ASSERT_TRUE(retried.has_value());
  EXPECT_EQ(retried->payload()[0], std::byte{0x33});
  EXPECT_EQ(cache.stats().hits, 0u);  // nothing was poisoned into a hit
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().resident_chunks, 1u);
}

TEST(ChunkCache, LruEvictsLeastRecentlyUsedFirst) {
  MemoryChunkStore backing(1);
  backing.put(make_chunk(1, 0, 0, 100));
  backing.put(make_chunk(1, 1, 0, 100));
  backing.put(make_chunk(1, 2, 0, 100));
  // Budget fits exactly two 100-byte payloads (+64B overhead each).
  CachingChunkStore cache(backing, /*bytes_per_disk=*/2 * (100 + 64));

  ASSERT_TRUE(cache.get(0, {1, 0}).has_value());  // cache: [0]
  ASSERT_TRUE(cache.get(0, {1, 1}).has_value());  // cache: [1, 0]
  ASSERT_TRUE(cache.get(0, {1, 0}).has_value());  // touch 0 -> [0, 1]
  ASSERT_TRUE(cache.get(0, {1, 2}).has_value());  // evicts 1 -> [2, 0]
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().resident_chunks, 2u);

  ChunkCacheStats before = cache.stats();
  ASSERT_TRUE(cache.get(0, {1, 0}).has_value());  // still resident: hit
  EXPECT_EQ(cache.stats().hits, before.hits + 1);
  before = cache.stats();
  ASSERT_TRUE(cache.get(0, {1, 1}).has_value());  // was evicted: miss
  EXPECT_EQ(cache.stats().misses, before.misses + 1);
}

TEST(ChunkCache, OversizedChunkBypassesCache) {
  MemoryChunkStore backing(1);
  backing.put(make_chunk(1, 0, 0, 4096));
  CachingChunkStore cache(backing, /*bytes_per_disk=*/256);
  ASSERT_TRUE(cache.get(0, {1, 0}).has_value());
  EXPECT_EQ(cache.stats().resident_chunks, 0u);  // never installed
  ASSERT_TRUE(cache.get(0, {1, 0}).has_value());  // still served, via backing
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(ChunkCache, EraseInvalidatesCachedCopy) {
  MemoryChunkStore backing(1);
  backing.put(make_chunk(1, 0, 0, 100));
  CachingChunkStore cache(backing, 1 << 20);
  ASSERT_TRUE(cache.get(0, {1, 0}).has_value());  // now cached
  EXPECT_TRUE(cache.erase(0, {1, 0}));
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.stats().resident_chunks, 0u);
  // No stale hit: the chunk is gone from cache AND backing.
  EXPECT_FALSE(cache.get(0, {1, 0}).has_value());
  EXPECT_FALSE(backing.contains(0, {1, 0}));
}

TEST(ChunkCache, PutRefreshesCachedIdInPlace) {
  MemoryChunkStore backing(1);
  backing.put(make_chunk(1, 0, 0, 100, std::byte{0x01}));
  CachingChunkStore cache(backing, 1 << 20);
  ASSERT_TRUE(cache.get(0, {1, 0}).has_value());  // cached with 0x01 bytes

  cache.put(make_chunk(1, 0, 0, 100, std::byte{0x02}));  // overwrite
  const auto after = cache.get(0, {1, 0});
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->payload()[0], std::byte{0x02});  // no stale bytes served
  EXPECT_EQ(backing.get(0, {1, 0})->payload()[0], std::byte{0x02});
}

TEST(ChunkCache, PutOfUncachedIdDoesNotAllocateCacheSpace) {
  MemoryChunkStore backing(1);
  CachingChunkStore cache(backing, 1 << 20);
  // Query outputs are written through but must not pollute the read cache.
  cache.put(make_chunk(7, 0, 0, 100));
  EXPECT_EQ(cache.stats().resident_chunks, 0u);
  EXPECT_TRUE(backing.contains(0, {7, 0}));  // write-through happened
}

TEST(ChunkCache, ConcurrentGetsAccountEveryAccess) {
  // ThreadSanitizer target: concurrent hits and misses over shared
  // shards, with an eviction-heavy budget so install/evict race too.
  const int kChunks = 16;
  MemoryChunkStore backing(2);
  for (int i = 0; i < kChunks; ++i) {
    backing.put(make_chunk(1, static_cast<std::uint32_t>(i), i % 2, 256,
                           static_cast<std::byte>(i)));
  }
  CachingChunkStore cache(backing, /*bytes_per_disk=*/4 * (256 + 64));

  const int kThreads = 8;
  const int kGetsEach = 200;
  std::atomic<int> bad_payloads{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int g = 0; g < kGetsEach; ++g) {
        const int i = (t * 7 + g) % kChunks;
        const auto chunk = cache.get(i % 2, {1, static_cast<std::uint32_t>(i)});
        if (!chunk.has_value() || chunk->payload().size() != 256 ||
            chunk->payload()[0] != static_cast<std::byte>(i)) {
          ++bad_payloads;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(bad_payloads.load(), 0);
  const ChunkCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads * kGetsEach));
  EXPECT_LE(stats.resident_bytes, 2u * 4 * (256 + 64));  // budget held
}

// ------------------------------------------------- single-flight misses

/// Polls `done` until it holds or `timeout` passes.
template <typename Pred>
bool eventually(Pred done, std::chrono::milliseconds timeout = std::chrono::seconds(10)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

double elapsed_ms(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - since)
      .count();
}

TEST(ChunkCache, ConcurrentMissesOfOneChunkShareOneBackingRead) {
  // N readers miss the same cold chunk while a storage.fetch latency
  // fault slows its read: one backing read serves them all.  The miss
  // holds no shard lock, so a hit on another chunk of the same disk is
  // served while the read is in flight.
  constexpr int kReaders = 6;
  constexpr auto kDelay = std::chrono::milliseconds(400);
  MemoryChunkStore backing(1);
  backing.put(make_chunk(1, 0, 0, 256, std::byte{0x41}));
  backing.put(make_chunk(1, 1, 0, 256, std::byte{0x42}));
  CachingChunkStore cache(backing, 1 << 20);
  ASSERT_TRUE(cache.get(0, {1, 1}).has_value());  // warm the neighbour

  obs::Counter& reads = obs::metrics().counter("storage.chunk_reads");
  const std::uint64_t reads_before = reads.value();
  const ChunkCacheStats before = cache.stats();
  fault::ScopedFaultPlan plan(/*seed=*/53);
  fault::FaultSpec slow;
  slow.code = StatusCode::kOk;
  slow.delay = kDelay;
  plan.arm("storage.fetch", slow);

  std::vector<std::optional<Chunk>> got(kReaders);
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t]() { got[t] = cache.get(0, {1, 0}); });
  }
  const bool in_flight =
      eventually([] { return fault::faults().stats("storage.fetch").hits >= 1; });
  const auto hit_start = std::chrono::steady_clock::now();
  const auto neighbour = cache.get(0, {1, 1});
  const double hit_ms = elapsed_ms(hit_start);
  for (auto& t : threads) t.join();

  ASSERT_TRUE(in_flight);
  ASSERT_TRUE(neighbour.has_value());
  EXPECT_LT(hit_ms, kDelay.count() / 2.0) << "the shard was locked across the miss";
  EXPECT_EQ(reads.value() - reads_before, 1u);
  for (int t = 0; t < kReaders; ++t) {
    ASSERT_TRUE(got[t].has_value()) << t;
    EXPECT_EQ(got[t]->payload(), std::vector<std::byte>(256, std::byte{0x41})) << t;
  }
  const ChunkCacheStats after = cache.stats();
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_EQ(after.hits - before.hits, static_cast<std::uint64_t>(kReaders));
  EXPECT_EQ(after.miss_bytes - before.miss_bytes, 256u);
}

TEST(ChunkCache, PutDuringInFlightMissIsNotOverwrittenByTheStaleFetch) {
  // The leader has read the old bytes and is held (by a latency fault)
  // between its fetch and its install when a put of the same id lands.
  // The put does not wait for the read, and the stale bytes are never
  // installed: the next get fetches the new ones.
  constexpr auto kDelay = std::chrono::milliseconds(500);
  MemoryChunkStore backing(1);
  backing.put(make_chunk(1, 0, 0, 100, std::byte{0x01}));
  CachingChunkStore cache(backing, 1 << 20);

  fault::ScopedFaultPlan plan(/*seed=*/54);
  fault::FaultSpec slow;
  slow.trigger = fault::Trigger::kOneShot;
  slow.code = StatusCode::kOk;
  slow.delay = kDelay;
  plan.arm("storage.cache_fetch", slow);

  std::optional<Chunk> raced;
  std::thread leader([&]() { raced = cache.get(0, {1, 0}); });
  const bool in_flight =
      eventually([] { return fault::faults().stats("storage.cache_fetch").hits >= 1; });
  const auto put_start = std::chrono::steady_clock::now();
  cache.put(make_chunk(1, 0, 0, 100, std::byte{0x02}));
  const double put_ms = elapsed_ms(put_start);
  leader.join();

  ASSERT_TRUE(in_flight);
  EXPECT_LT(put_ms, kDelay.count() / 2.0) << "the put waited for the in-flight read";
  ASSERT_TRUE(raced.has_value());  // it raced the put: either version is valid
  EXPECT_EQ(cache.stats().resident_chunks, 0u);
  EXPECT_EQ(cache.stats().insertions, 0u);
  const auto after = cache.get(0, {1, 0});
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->payload(), std::vector<std::byte>(100, std::byte{0x02}));
  EXPECT_EQ(cache.stats().insertions, 1u);
  EXPECT_EQ(cache.get(0, {1, 0})->payload()[0], std::byte{0x02});  // now a hit
}

TEST(ChunkCache, WaitersOfAFailedFetchGetItsErrorAndNothingIsCached) {
  // The leader's fetch is held in the backing store until every other
  // reader has joined it; then it fails.  All of them get the error, the
  // backing store was read once, and the retry fetches real bytes.
  constexpr int kReaders = 4;
  MemoryChunkStore backing(1);
  backing.put(make_chunk(1, 0, 0, 64, std::byte{0x33}));
  testing::GatedStore gate(backing, {1, 0});
  CachingChunkStore cache(gate, 1 << 20);

  fault::ScopedFaultPlan plan(/*seed=*/55);
  fault::FaultSpec spec;
  spec.trigger = fault::Trigger::kOneShot;
  plan.arm("storage.cache_fetch", spec);

  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&]() {
      try {
        cache.get(0, {1, 0});
      } catch (const StatusError&) {
        ++errors;
      }
    });
  }
  const bool joined = gate.wait_entered(1) && eventually([&] {
    return cache.stats().coalesced == kReaders - 1;
  });
  gate.open();
  for (auto& t : threads) t.join();

  ASSERT_TRUE(joined);
  EXPECT_EQ(errors.load(), kReaders);
  EXPECT_EQ(gate.entered(), 1);
  EXPECT_EQ(cache.stats().resident_chunks, 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, static_cast<std::uint64_t>(kReaders));

  const auto retried = cache.get(0, {1, 0});
  ASSERT_TRUE(retried.has_value());
  EXPECT_EQ(retried->payload()[0], std::byte{0x33});
  EXPECT_EQ(cache.stats().resident_chunks, 1u);
}

TEST(ChunkCache, HitsShareTheCachedBufferWithoutCopying) {
  MemoryChunkStore backing(1);
  backing.put(make_chunk(1, 0, 0, 512));
  CachingChunkStore cache(backing, 1 << 20);
  const auto cold = cache.get(0, {1, 0});
  const auto warm = cache.get(0, {1, 0});
  ASSERT_TRUE(cold.has_value() && warm.has_value());
  EXPECT_EQ(warm->shared_payload(), cold->shared_payload());
  // And the cached buffer is the backing store's own.
  EXPECT_EQ(backing.get(0, {1, 0})->shared_payload(), warm->shared_payload());
}

/// The cache's LRU policy written the plain way (list + erase + insert):
/// what a scripted sequence must leave behind, node reuse or not.
class ReferenceLru {
 public:
  explicit ReferenceLru(std::uint64_t budget) : budget_(budget) {}

  bool touch(ChunkId id) {
    const auto it = find(id);
    if (it == lru_.end()) return false;
    lru_.splice(lru_.begin(), lru_, it);
    return true;
  }
  void install(ChunkId id, std::uint64_t cost) {
    remove(id);
    if (cost > budget_) return;
    while (bytes_ + cost > budget_) {
      bytes_ -= lru_.back().second;
      lru_.pop_back();
      ++evictions;
    }
    lru_.emplace_front(id, cost);
    bytes_ += cost;
    ++insertions;
  }
  bool remove(ChunkId id) {
    const auto it = find(id);
    if (it == lru_.end()) return false;
    bytes_ -= it->second;
    lru_.erase(it);
    return true;
  }
  std::uint64_t bytes() const { return bytes_; }
  std::size_t size() const { return lru_.size(); }

  std::uint64_t evictions = 0;
  std::uint64_t insertions = 0;

 private:
  std::list<std::pair<ChunkId, std::uint64_t>>::iterator find(ChunkId id) {
    return std::find_if(lru_.begin(), lru_.end(),
                        [id](const auto& entry) { return entry.first == id; });
  }

  std::uint64_t budget_;
  std::uint64_t bytes_ = 0;
  std::list<std::pair<ChunkId, std::uint64_t>> lru_;  // front = most recent
};

TEST(ChunkCache, ScriptedSequenceMatchesAReferenceLru) {
  // Mixed sizes make every eviction's count depend on the exact LRU
  // order, and the hit/miss of every later get depends on exactly which
  // ids survived: matching the reference at every step pins the order.
  constexpr std::uint64_t kBudget = 4000;
  constexpr std::uint32_t kIds = 40;
  MemoryChunkStore backing(1);
  std::mt19937 rng(20261019);
  const auto size = [&rng]() {
    return std::uniform_int_distribution<std::size_t>(40, 1200)(rng);
  };
  for (std::uint32_t i = 0; i < kIds; ++i) backing.put(make_chunk(1, i, 0, size()));
  CachingChunkStore cache(backing, kBudget);
  ReferenceLru model(kBudget);
  std::uint64_t hits = 0, misses = 0, invalidations = 0;

  for (int step = 0; step < 4000; ++step) {
    const ChunkId id{1, std::uniform_int_distribution<std::uint32_t>(0, kIds - 1)(rng)};
    const int op = std::uniform_int_distribution<int>(0, 99)(rng);
    if (op < 82) {
      const auto got = cache.get(0, id);
      if (model.touch(id)) {
        ++hits;
      } else {
        ++misses;
        if (got.has_value()) model.install(id, got->payload().size() + 64);
      }
    } else if (op < 94) {
      const Chunk chunk = make_chunk(1, id.index, 0, size());
      cache.put(chunk);
      if (model.remove(id)) {
        ++invalidations;
        model.install(id, chunk.payload().size() + 64);
      }
    } else {
      cache.erase(0, id);
      if (model.remove(id)) ++invalidations;
    }
    const ChunkCacheStats stats = cache.stats();
    ASSERT_EQ(stats.hits, hits) << "step " << step;
    ASSERT_EQ(stats.misses, misses) << "step " << step;
    ASSERT_EQ(stats.evictions, model.evictions) << "step " << step;
    ASSERT_EQ(stats.insertions, model.insertions) << "step " << step;
    ASSERT_EQ(stats.invalidations, invalidations) << "step " << step;
    ASSERT_EQ(stats.resident_bytes, model.bytes()) << "step " << step;
    ASSERT_EQ(stats.resident_chunks, model.size()) << "step " << step;
  }
  EXPECT_GT(model.evictions, 500u);  // the script really exercised eviction
}

TEST(ChunkCache, HeldChunkSurvivesMoreEvictionsThanThePoolHolds) {
  // Every get of a file-backed store reads into a recycled buffer, and a
  // thrashing cache parks one on every eviction.  A chunk still held
  // must keep its bytes however many buffers cycle through the pool.
  constexpr std::size_t kBytes = 64 * 1024;
  constexpr std::uint32_t kIds = 4;
  const auto dir = std::filesystem::temp_directory_path() /
                   ("adr_cache_held_" + std::to_string(::getpid()));
  FileChunkStore backing(dir, 1);
  for (std::uint32_t i = 0; i < kIds; ++i) {
    backing.put(make_chunk(1, i, 0, kBytes, static_cast<std::byte>(0x10 + i)));
  }
  CachingChunkStore cache(backing, /*bytes_per_disk=*/2 * (kBytes + 64));
  obs::Counter& reused = obs::metrics().counter("storage.payload_buffers_reused");
  const std::uint64_t reused_before = reused.value();

  const auto held = cache.get(0, {1, 0});
  ASSERT_TRUE(held.has_value());
  const std::size_t rounds = 2 * kPayloadPoolBytes / kBytes + 16;
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::uint32_t index = 1 + static_cast<std::uint32_t>(r % (kIds - 1));
    const auto c = cache.get(0, {1, index});  // always a miss: the LRU thrashes
    ASSERT_TRUE(c.has_value());
    ASSERT_EQ(c->payload().size(), kBytes);
    ASSERT_EQ(c->payload().front(), static_cast<std::byte>(0x10 + index));
    ASSERT_EQ(c->payload().back(), static_cast<std::byte>(0x10 + index));
  }
  EXPECT_GE(cache.stats().evictions, rounds - 1);
  EXPECT_GT(reused.value(), reused_before);
  const std::vector<std::byte> expected(kBytes, std::byte{0x10});
  EXPECT_EQ(held->payload(), expected);
  std::filesystem::remove_all(dir);
}

TEST(ChunkCache, OutOfRangeDiskThrows) {
  MemoryChunkStore backing(2);
  CachingChunkStore cache(backing, 1 << 20);
  EXPECT_THROW(cache.get(2, {1, 0}), std::out_of_range);
  EXPECT_THROW(cache.erase(-1, {1, 0}), std::out_of_range);
  EXPECT_THROW(cache.put(make_chunk(1, 0, 5, 8)), std::out_of_range);
  EXPECT_THROW(cache.contains(2, {1, 0}), std::out_of_range);
}

// ------------------------------------------------- Repository-level

RepositoryConfig cached_thread_config() {
  RepositoryConfig cfg;
  cfg.backend = RepositoryConfig::Backend::kThreads;
  cfg.num_nodes = 2;
  cfg.memory_per_node = 1 << 20;
  // These suites pin the byte-cache layer: keep the marginal cache out
  // of the way so repeated queries actually re-read their inputs
  // (marginal-cache serving has its own suites in marginal_cache_test).
  cfg.marginal_cache_bytes = 0;
  return cfg;
}

std::vector<Chunk> grid_chunks(int n_side, int values_per_chunk) {
  std::vector<Chunk> chunks;
  const Rect domain = Rect::cube(2, 0.0, 1.0);
  std::uint64_t v = 0;
  for (int iy = 0; iy < n_side; ++iy) {
    for (int ix = 0; ix < n_side; ++ix) {
      ChunkMeta meta;
      meta.mbr = testing::cell(domain, n_side, ix, iy);
      std::vector<std::uint64_t> vals(static_cast<std::size_t>(values_per_chunk));
      for (auto& x : vals) x = ++v;
      std::vector<std::byte> payload(vals.size() * sizeof(std::uint64_t));
      std::memcpy(payload.data(), vals.data(), payload.size());
      chunks.emplace_back(meta, std::move(payload));
    }
  }
  return chunks;
}

std::vector<Chunk> grid_accumulators(int n_side) {
  std::vector<Chunk> chunks;
  const Rect domain = Rect::cube(2, 0.0, 1.0);
  for (int iy = 0; iy < n_side; ++iy) {
    for (int ix = 0; ix < n_side; ++ix) {
      ChunkMeta meta;
      meta.mbr = testing::cell(domain, n_side, ix, iy);
      chunks.emplace_back(meta, std::vector<std::byte>(24, std::byte{0}));
    }
  }
  return chunks;
}

Query sum_query(std::uint32_t in, std::uint32_t out) {
  Query q;
  q.input_dataset = in;
  q.output_dataset = out;
  q.range = Rect(Point{0.0, 0.0}, Point{0.999, 0.999});
  q.aggregation = "sum-count-max";
  q.delivery = OutputDelivery::kReturnToClient;
  return q;
}

TEST(ChunkCache, RepeatedQueryRunsWarmOnReusedExecutor) {
  // The acceptance scenario: submit the same query twice.  The second run
  // must read its inputs out of the chunk cache, on the same node threads,
  // while returning byte-identical outputs.
  Repository repo(cached_thread_config());
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0),
                                      grid_chunks(8, 4));
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0),
                                       grid_accumulators(2));

  const QueryResult cold = repo.submit(sum_query(in, out));
  EXPECT_GT(cold.cache_misses, 0u);  // first run fills the cache

  const QueryResult warm = repo.submit(sum_query(in, out));
  EXPECT_GT(warm.cache_hits, 0u);       // second run served from memory
  EXPECT_GT(warm.stats.cache_hits, 0u)  // and surfaced through ExecStats
      << warm.stats.summary();

  // The cache must not change observable results or engine-level counts.
  EXPECT_EQ(warm.chunk_reads, cold.chunk_reads);
  ASSERT_EQ(warm.outputs.size(), cold.outputs.size());
  for (std::size_t i = 0; i < warm.outputs.size(); ++i) {
    EXPECT_EQ(warm.outputs[i].meta().id, cold.outputs[i].meta().id);
    EXPECT_EQ(warm.outputs[i].payload(), cold.outputs[i].payload());
  }
}

TEST(ChunkCache, DisabledCacheKeepsSeedBehaviour) {
  RepositoryConfig cfg = cached_thread_config();
  cfg.chunk_cache_bytes_per_node = 0;  // opt out
  Repository repo(cfg);
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0),
                                      grid_chunks(4, 2));
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0),
                                       grid_accumulators(2));
  EXPECT_EQ(repo.chunk_cache(), nullptr);
  const QueryResult r1 = repo.submit(sum_query(in, out));
  const QueryResult r2 = repo.submit(sum_query(in, out));
  EXPECT_EQ(r2.cache_hits, 0u);
  ASSERT_EQ(r1.outputs.size(), r2.outputs.size());
  for (std::size_t i = 0; i < r1.outputs.size(); ++i) {
    EXPECT_EQ(r1.outputs[i].payload(), r2.outputs[i].payload());
  }
}

TEST(ChunkCache, DatasetEraseInvalidatesCachedChunks) {
  // Overwriting a dataset's chunks after a query must not leave stale
  // payloads in the cache (repo erase/put goes through the decorator).
  Repository repo(cached_thread_config());
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0),
                                      grid_chunks(4, 2));
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0),
                                       grid_accumulators(2));
  const QueryResult cold = repo.submit(sum_query(in, out));
  ASSERT_GT(repo.chunk_cache_stats().resident_chunks, 0u);
  const std::uint64_t invalidations_before =
      repo.chunk_cache_stats().invalidations;

  // Rewrite every input chunk with different values through the repo's
  // store; the cached copies must be refreshed, not served stale.
  auto replacement = grid_chunks(4, 2);
  for (auto& chunk : replacement) {
    for (auto& b : chunk.payload()) b = static_cast<std::byte>(0xEE);
  }
  std::uint32_t index = 0;
  for (auto& chunk : replacement) {
    const ChunkId id{in, index++};
    for (int d = 0; d < repo.store().num_disks(); ++d) {
      const auto existing = repo.store().get(d, id);
      if (!existing.has_value()) continue;
      chunk.meta().id = id;
      chunk.meta().disk = d;
      repo.store().put(chunk);
    }
  }
  EXPECT_GT(repo.chunk_cache_stats().invalidations, invalidations_before);

  const QueryResult warm = repo.submit(sum_query(in, out));
  // Values changed, so the aggregate must change: stale cache would
  // reproduce the cold outputs byte-for-byte.
  ASSERT_EQ(warm.outputs.size(), cold.outputs.size());
  bool any_diff = false;
  for (std::size_t i = 0; i < warm.outputs.size(); ++i) {
    if (warm.outputs[i].payload() != cold.outputs[i].payload()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace adr
