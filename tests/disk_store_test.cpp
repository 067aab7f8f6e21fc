#include "storage/disk_store.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>

#include <filesystem>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.hpp"
#include "common/status.hpp"
#include "obs/metrics.hpp"

namespace adr {
namespace {

Chunk make_chunk(std::uint32_t index, int disk, std::vector<std::uint64_t> values) {
  ChunkMeta meta;
  meta.id = {0, index};
  meta.disk = disk;
  std::vector<std::byte> payload(values.size() * sizeof(std::uint64_t));
  std::memcpy(payload.data(), values.data(), payload.size());
  meta.bytes = payload.size();
  return Chunk(meta, std::move(payload));
}

template <typename StoreT>
class ChunkStoreTest : public ::testing::Test {
 public:
  std::unique_ptr<ChunkStore> make(int disks) {
    if constexpr (std::is_same_v<StoreT, MemoryChunkStore>) {
      return std::make_unique<MemoryChunkStore>(disks);
    } else {
      dir_ = std::filesystem::temp_directory_path() /
             ("adr_store_test_" + std::to_string(::getpid()));
      return std::make_unique<FileChunkStore>(dir_, disks);
    }
  }
  ~ChunkStoreTest() override {
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

 private:
  std::filesystem::path dir_;
};

using StoreTypes = ::testing::Types<MemoryChunkStore, FileChunkStore>;
TYPED_TEST_SUITE(ChunkStoreTest, StoreTypes);

TYPED_TEST(ChunkStoreTest, PutGetRoundTrip) {
  auto store = this->make(2);
  store->put(make_chunk(0, 1, {10, 20, 30}));
  auto chunk = store->get(1, {0, 0});
  ASSERT_TRUE(chunk.has_value());
  auto view = chunk->template as<std::uint64_t>();
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ(view[1], 20u);
  EXPECT_EQ(chunk->meta().disk, 1);
}

TYPED_TEST(ChunkStoreTest, GetMissingReturnsNullopt) {
  auto store = this->make(2);
  EXPECT_FALSE(store->get(0, {0, 7}).has_value());
}

TYPED_TEST(ChunkStoreTest, ChunkOnWrongDiskNotFound) {
  auto store = this->make(2);
  store->put(make_chunk(3, 0, {1}));
  EXPECT_FALSE(store->get(1, {0, 3}).has_value());
  EXPECT_TRUE(store->get(0, {0, 3}).has_value());
}

TYPED_TEST(ChunkStoreTest, ContainsAndErase) {
  auto store = this->make(1);
  store->put(make_chunk(5, 0, {1, 2}));
  EXPECT_TRUE(store->contains(0, {0, 5}));
  EXPECT_TRUE(store->erase(0, {0, 5}));
  EXPECT_FALSE(store->contains(0, {0, 5}));
  EXPECT_FALSE(store->erase(0, {0, 5}));
}

TYPED_TEST(ChunkStoreTest, CountsAndBytes) {
  auto store = this->make(2);
  store->put(make_chunk(0, 0, {1}));
  store->put(make_chunk(1, 0, {1, 2}));
  store->put(make_chunk(2, 1, {1}));
  EXPECT_EQ(store->chunk_count(0), 2u);
  EXPECT_EQ(store->chunk_count(1), 1u);
  EXPECT_EQ(store->bytes_on_disk(0), 3 * sizeof(std::uint64_t));
}

TYPED_TEST(ChunkStoreTest, OverwriteReplacesContent) {
  auto store = this->make(1);
  store->put(make_chunk(0, 0, {1}));
  store->put(make_chunk(1, 0, {7, 8, 9}));
  store->put(make_chunk(0, 0, {42, 43}));
  auto chunk = store->get(0, {0, 0});
  ASSERT_TRUE(chunk.has_value());
  EXPECT_EQ(chunk->template as<std::uint64_t>()[0], 42u);
  EXPECT_EQ(store->chunk_count(0), 2u);
  // The overwrite swaps the old size for the new one.
  EXPECT_EQ(store->bytes_on_disk(0), 5 * sizeof(std::uint64_t));
  store->put(make_chunk(0, 0, {5}));
  EXPECT_EQ(store->bytes_on_disk(0), 4 * sizeof(std::uint64_t));
}

TYPED_TEST(ChunkStoreTest, OutOfRangeDiskThrowsInEveryBuild) {
  auto store = this->make(2);
  store->put(make_chunk(0, 1, {1}));
  for (int disk : {-1, 2, 9}) {
    SCOPED_TRACE(disk);
    EXPECT_THROW(store->put(make_chunk(1, disk, {1})), std::out_of_range);
    EXPECT_THROW(store->get(disk, {0, 0}), std::out_of_range);
    EXPECT_THROW(store->contains(disk, {0, 0}), std::out_of_range);
    EXPECT_THROW(store->erase(disk, {0, 0}), std::out_of_range);
    EXPECT_THROW(store->chunk_count(disk), std::out_of_range);
    EXPECT_THROW(store->bytes_on_disk(disk), std::out_of_range);
  }
  // The rejected calls changed nothing.
  EXPECT_EQ(store->chunk_count(0) + store->chunk_count(1), 1u);
  EXPECT_TRUE(store->get(1, {0, 0}).has_value());
}

TYPED_TEST(ChunkStoreTest, MetadataOnlyChunk) {
  auto store = this->make(1);
  ChunkMeta meta;
  meta.id = {0, 9};
  meta.disk = 0;
  meta.bytes = 1 << 20;  // nominal size, no payload
  store->put(Chunk(meta));
  auto chunk = store->get(0, {0, 9});
  ASSERT_TRUE(chunk.has_value());
  EXPECT_FALSE(chunk->has_payload());
  EXPECT_EQ(chunk->meta().bytes, 1u << 20);
  EXPECT_EQ(store->bytes_on_disk(0), 1u << 20);
}

/// The version-`v` payload of chunk `i` in the concurrency test: every
/// word carries (v, i), and the length varies with v, so a read that
/// mixed two versions (or one version's size with another's bytes)
/// cannot pass as a complete one.
Chunk versioned_chunk(std::uint32_t i, int disk, std::uint64_t v) {
  return make_chunk(i, disk,
                    std::vector<std::uint64_t>(8 * (v % 3 + 1), (v << 16) | i));
}

TYPED_TEST(ChunkStoreTest, ConcurrentReadersAndWriters) {
  // ThreadSanitizer target: per disk, one writer keeps overwriting the
  // same ids while two readers read them.  Every read must return one
  // complete version.  Failures are collected and asserted here, on the
  // main thread.
  constexpr int kDisks = 4;
  constexpr std::uint32_t kIds = 8;
  constexpr std::uint64_t kVersions = 60;
  constexpr int kReadsEach = 600;
  auto store = this->make(kDisks);
  for (int d = 0; d < kDisks; ++d) {
    for (std::uint32_t i = 0; i < kIds; ++i) store->put(versioned_chunk(i, d, 0));
  }

  std::mutex failures_mutex;
  std::vector<std::string> failures;
  auto fail = [&](std::string what) {
    std::lock_guard<std::mutex> lock(failures_mutex);
    failures.push_back(std::move(what));
  };
  auto check = [&](const std::optional<Chunk>& c, std::uint32_t i) {
    if (!c.has_value()) return fail("chunk " + std::to_string(i) + " missing");
    const auto words = c->template as<std::uint64_t>();
    if (words.empty() || words.size() % 8 != 0 ||
        c->meta().bytes != c->payload().size()) {
      return fail("chunk " + std::to_string(i) + " has a torn size");
    }
    const std::uint64_t v = words[0] >> 16;
    if ((words[0] & 0xffff) != i || words.size() != 8 * (v % 3 + 1)) {
      return fail("chunk " + std::to_string(i) + " has a foreign header");
    }
    for (std::uint64_t w : words) {
      if (w != words[0]) return fail("chunk " + std::to_string(i) + " mixes versions");
    }
  };

  std::vector<std::thread> threads;
  for (int d = 0; d < kDisks; ++d) {
    threads.emplace_back([&, d]() {
      try {
        for (std::uint64_t v = 1; v <= kVersions; ++v) {
          for (std::uint32_t i = 0; i < kIds; ++i) store->put(versioned_chunk(i, d, v));
        }
      } catch (const std::exception& e) {
        fail(std::string("writer: ") + e.what());
      }
    });
    for (int r = 0; r < 2; ++r) {
      threads.emplace_back([&, d, r]() {
        try {
          for (int k = 0; k < kReadsEach; ++k) {
            const std::uint32_t i = static_cast<std::uint32_t>(k * (r + 3)) % kIds;
            check(store->get(d, {0, i}), i);
          }
        } catch (const std::exception& e) {
          fail(std::string("reader: ") + e.what());
        }
      });
    }
  }
  for (auto& t : threads) t.join();

  EXPECT_TRUE(failures.empty()) << failures.size() << " failures, first: "
                                << (failures.empty() ? "" : failures[0]);
  for (int d = 0; d < kDisks; ++d) {
    EXPECT_EQ(store->chunk_count(d), kIds);
    EXPECT_EQ(store->bytes_on_disk(d), kIds * 8 * (kVersions % 3 + 1) * sizeof(std::uint64_t));
    for (std::uint32_t i = 0; i < kIds; ++i) {
      const auto last = store->get(d, {0, i});
      ASSERT_TRUE(last.has_value());
      EXPECT_EQ(last->template as<std::uint64_t>()[0], (kVersions << 16) | i);
    }
  }
}

TEST(FileChunkStore, ReopenRestoresContents) {
  const auto dir = std::filesystem::temp_directory_path() / "adr_store_reopen";
  std::filesystem::remove_all(dir);
  {
    FileChunkStore store(dir, 2);
    for (std::uint32_t i = 0; i < 20; ++i) {
      Chunk c = make_chunk(i, static_cast<int>(i % 2), {i, i * 3});
      c.meta().mbr = Rect(Point{static_cast<double>(i), 0.0}, Point{i + 1.0, 2.0});
      store.put(std::move(c));
    }
    store.erase(0, {0, 4});
  }
  FileChunkStore reopened(dir, 2, /*open_existing=*/true);
  EXPECT_EQ(reopened.chunk_count(0), 9u);  // 10 minus the erased one
  EXPECT_EQ(reopened.chunk_count(1), 10u);
  EXPECT_FALSE(reopened.contains(0, {0, 4}));
  for (std::uint32_t i = 0; i < 20; ++i) {
    if (i == 4) continue;
    auto c = reopened.get(static_cast<int>(i % 2), {0, i});
    ASSERT_TRUE(c.has_value()) << i;
    auto view = c->as<std::uint64_t>();
    ASSERT_EQ(view.size(), 2u);
    EXPECT_EQ(view[0], i);
    EXPECT_EQ(view[1], i * 3);
    EXPECT_DOUBLE_EQ(c->meta().mbr.lo()[0], static_cast<double>(i));
  }
  std::filesystem::remove_all(dir);
}

TEST(FileChunkStore, ReopenAfterOverwriteKeepsLatest) {
  const auto dir = std::filesystem::temp_directory_path() / "adr_store_overwrite";
  std::filesystem::remove_all(dir);
  {
    FileChunkStore store(dir, 1);
    store.put(make_chunk(0, 0, {1}));
    store.put(make_chunk(0, 0, {42, 43, 44}));
  }
  FileChunkStore reopened(dir, 1, true);
  auto c = reopened.get(0, {0, 0});
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->as<std::uint64_t>().size(), 3u);
  EXPECT_EQ(c->as<std::uint64_t>()[0], 42u);
  std::filesystem::remove_all(dir);
}

TEST(FileChunkStore, ReopenRejectsOutOfRangeEraseDisk) {
  // Regression: a corrupt manifest's erase line naming a disk outside
  // the farm used to index past the disk table instead of failing.
  const auto dir = std::filesystem::temp_directory_path() / "adr_store_bad_erase";
  std::filesystem::remove_all(dir);
  {
    FileChunkStore store(dir, 4);
    store.put(make_chunk(0, 0, {1}));
  }
  std::ofstream(dir / "manifest.txt", std::ios::app) << "erase 9 0 0\n";
  EXPECT_THROW(FileChunkStore(dir, 4, /*open_existing=*/true), std::runtime_error);
  std::filesystem::remove_all(dir);
}

TEST(FileChunkStore, ReopenAfterTornManifestTailKeepsEveryCompleteRecord) {
  // Regression: a crash mid-append leaves a last manifest line with no
  // newline.  Reopen used to throw on it; and had the torn bytes been
  // kept, the next append would have been glued onto them.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("adr_store_torn_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    FileChunkStore store(dir, 2);
    for (std::uint32_t i = 0; i < 6; ++i) {
      store.put(make_chunk(i, static_cast<int>(i % 2), {i, i + 100}));
    }
  }
  std::ofstream(dir / "manifest.txt", std::ios::app) << "put 1 0 9 40";
  const auto check = [](const FileChunkStore& store, std::uint32_t count) {
    for (std::uint32_t i = 0; i < count; ++i) {
      const auto c = store.get(static_cast<int>(i % 2), {0, i});
      ASSERT_TRUE(c.has_value()) << i;
      ASSERT_EQ(c->as<std::uint64_t>().size(), 2u);
      EXPECT_EQ(c->as<std::uint64_t>()[0], i);
      EXPECT_EQ(c->as<std::uint64_t>()[1], i + 100);
    }
  };
  {
    FileChunkStore reopened(dir, 2, /*open_existing=*/true);
    check(reopened, 6);
    EXPECT_FALSE(reopened.contains(1, {0, 9}));
    reopened.put(make_chunk(6, 0, {6, 106}));
  }
  FileChunkStore again(dir, 2, /*open_existing=*/true);
  check(again, 7);
  EXPECT_EQ(again.chunk_count(0), 4u);
  EXPECT_EQ(again.chunk_count(1), 3u);
  std::filesystem::remove_all(dir);
}

TEST(FileChunkStore, WriteToAReadPayloadCopiesFirst) {
  // A read's buffer comes from the payload pool and may be shared (a
  // cache entry, a message); writing through a Chunk must never reach it.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("adr_store_cow_" + std::to_string(::getpid()));
  FileChunkStore store(dir, 1);
  store.put(make_chunk(0, 0, {7, 8, 9}));
  auto read = store.get(0, {0, 0});
  ASSERT_TRUE(read.has_value());
  const Chunk other = *read;
  const auto* pooled = read->shared_payload().get();
  read->as<std::uint64_t>()[0] = 70;
  EXPECT_NE(read->shared_payload().get(), pooled);
  EXPECT_EQ(read->as<std::uint64_t>()[0], 70u);
  EXPECT_EQ(other.as<std::uint64_t>()[0], 7u);
  EXPECT_EQ(store.get(0, {0, 0})->as<std::uint64_t>()[0], 7u);
  std::filesystem::remove_all(dir);
}

TEST(FileChunkStore, FailedReadsNeverExposeTheirBuffer) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("adr_store_failed_read_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  const auto counter = [](const char* name) {
    return obs::metrics().counter(name).value();
  };
  std::vector<std::uint64_t> a(37), b(37);
  for (std::uint64_t i = 0; i < 37; ++i) {
    a[i] = 1000 + i;
    b[i] = 2000 + i;
  }
  FileChunkStore store(dir, 1);
  store.put(make_chunk(0, 0, a));
  store.put(make_chunk(1, 0, b));

  // An injected fetch error fails before any buffer is taken.
  {
    fault::ScopedFaultPlan plan(/*seed=*/3);
    plan.arm("storage.fetch", fault::FaultSpec{});  // fires on every hit
    const std::uint64_t taken = counter("storage.payload_buffers_reused") +
                                counter("storage.payload_buffers_allocated");
    EXPECT_THROW(store.get(0, {0, 1}), StatusError);
    EXPECT_EQ(counter("storage.payload_buffers_reused") +
                  counter("storage.payload_buffers_allocated"),
              taken);
  }

  // A data file cut short mid-payload: the read fails, and its buffer
  // goes back to the pool without ever being returned.  The next read
  // of that size on this thread gets that very buffer, and must see
  // only its own bytes.
  std::filesystem::resize_file(dir / "disk0.dat", 2 * 37 * sizeof(std::uint64_t) - 8);
  EXPECT_THROW(store.get(0, {0, 1}), std::runtime_error);
  const std::uint64_t reused = counter("storage.payload_buffers_reused");
  const std::uint64_t allocated = counter("storage.payload_buffers_allocated");
  const auto c = store.get(0, {0, 0});
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(counter("storage.payload_buffers_reused"), reused + 1);
  EXPECT_EQ(counter("storage.payload_buffers_allocated"), allocated);
  const auto words = c->as<std::uint64_t>();
  EXPECT_EQ(std::vector<std::uint64_t>(words.begin(), words.end()), a);
  std::filesystem::remove_all(dir);
}

TEST(FileChunkStore, FreshOpenTruncatesOldData) {
  const auto dir = std::filesystem::temp_directory_path() / "adr_store_trunc";
  std::filesystem::remove_all(dir);
  {
    FileChunkStore store(dir, 1);
    store.put(make_chunk(0, 0, {1}));
  }
  FileChunkStore fresh(dir, 1);  // open_existing defaults to false
  EXPECT_EQ(fresh.chunk_count(0), 0u);
  std::filesystem::remove_all(dir);
}

TEST(FileChunkStore, PersistsAcrossHandleReads) {
  const auto dir = std::filesystem::temp_directory_path() / "adr_store_persist";
  FileChunkStore store(dir, 1);
  for (std::uint32_t i = 0; i < 50; ++i) store.put(make_chunk(i, 0, {i * 7}));
  for (std::uint32_t i = 0; i < 50; ++i) {
    auto c = store.get(0, {0, i});
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->as<std::uint64_t>()[0], i * 7);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace adr
