#include "storage/chunk.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include <memory>
#include <unordered_set>
#include <utility>

namespace adr {
namespace {

TEST(ChunkId, OrderingAndEquality) {
  ChunkId a{0, 1}, b{0, 2}, c{1, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a, (ChunkId{0, 1}));
  EXPECT_NE(a, b);
}

TEST(ChunkId, HashDistinguishes) {
  std::unordered_set<ChunkId, ChunkIdHash> set;
  set.insert({0, 0});
  set.insert({0, 1});
  set.insert({1, 0});
  EXPECT_EQ(set.size(), 3u);
  EXPECT_TRUE(set.contains(ChunkId{0, 1}));
}

TEST(ChunkId, ToString) {
  EXPECT_EQ((ChunkId{2, 7}).to_string(), "d2:c7");
}

TEST(Chunk, MetadataOnlyHasNoPayload) {
  ChunkMeta meta;
  meta.bytes = 4096;
  Chunk chunk(meta);
  EXPECT_FALSE(chunk.has_payload());
  EXPECT_EQ(chunk.meta().bytes, 4096u);
}

TEST(Chunk, PayloadRoundTripAsUint64) {
  std::vector<std::uint64_t> values = {1, 2, 3, 500};
  std::vector<std::byte> payload(values.size() * sizeof(std::uint64_t));
  std::memcpy(payload.data(), values.data(), payload.size());
  Chunk chunk(ChunkMeta{}, std::move(payload));
  ASSERT_TRUE(chunk.has_payload());
  auto view = chunk.as<std::uint64_t>();
  ASSERT_EQ(view.size(), 4u);
  EXPECT_EQ(view[3], 500u);
}

TEST(Chunk, MutableViewWritesThrough) {
  std::vector<std::byte> payload(2 * sizeof(std::uint64_t), std::byte{0});
  Chunk chunk(ChunkMeta{}, std::move(payload));
  chunk.as<std::uint64_t>()[1] = 99;
  EXPECT_EQ(chunk.as<std::uint64_t>()[1], 99u);
}

TEST(Chunk, CopiesShareOnePayloadBuffer) {
  Chunk a(ChunkMeta{}, std::vector<std::byte>(64, std::byte{1}));
  const Chunk b = a;
  EXPECT_EQ(a.shared_payload(), b.shared_payload());
  EXPECT_EQ(std::as_const(a).payload().data(), b.payload().data());
}

TEST(Chunk, WriteToASharedBufferCopiesFirst) {
  Chunk a(ChunkMeta{}, std::vector<std::byte>(64, std::byte{1}));
  Chunk b = a;
  b.payload()[0] = std::byte{9};
  EXPECT_NE(a.shared_payload(), b.shared_payload());
  EXPECT_EQ(std::as_const(a).payload()[0], std::byte{1});
  EXPECT_EQ(std::as_const(b).payload()[0], std::byte{9});
  b.as<std::uint64_t>()[1] = 5;  // b is now the sole owner: no new copy
  EXPECT_EQ(std::as_const(a).payload()[8], std::byte{1});
}

TEST(Chunk, SoleOwnerWritesInPlace) {
  Chunk a(ChunkMeta{}, std::vector<std::byte>(64, std::byte{1}));
  const auto* before = a.shared_payload().get();
  a.payload().resize(8);
  EXPECT_EQ(a.shared_payload().get(), before);
  EXPECT_EQ(std::as_const(a).payload().size(), 8u);
}

TEST(Chunk, AdoptedBufferIsNeverWrittenThrough) {
  auto shared = std::make_shared<const std::vector<std::byte>>(16, std::byte{2});
  Chunk a(ChunkMeta{}, shared);
  EXPECT_EQ(a.shared_payload(), shared);
  a.payload()[0] = std::byte{7};
  EXPECT_EQ((*shared)[0], std::byte{2});
  EXPECT_EQ(std::as_const(a).payload()[0], std::byte{7});
}

TEST(Chunk, MetadataOnlyChunkGainsAPayloadOnWrite) {
  Chunk a(ChunkMeta{});
  a.payload().assign(8, std::byte{3});
  EXPECT_TRUE(a.has_payload());
  EXPECT_EQ(std::as_const(a).payload().size(), 8u);
}

TEST(PayloadFromDoubles, PreservesValues) {
  auto payload = payload_from_doubles({1.5, -2.25});
  Chunk chunk(ChunkMeta{}, std::move(payload));
  auto view = chunk.as<double>();
  ASSERT_EQ(view.size(), 2u);
  EXPECT_DOUBLE_EQ(view[0], 1.5);
  EXPECT_DOUBLE_EQ(view[1], -2.25);
}

}  // namespace
}  // namespace adr
