// Shared fixtures for planner/executor tests.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <vector>

#include "common/geometry.hpp"
#include "core/planner/mapping.hpp"
#include "core/planner/plan.hpp"
#include "core/planner/tiling.hpp"
#include "storage/disk_store.hpp"

namespace adr::testing {

/// Geometry for a synthetic scenario: `in_per_out` x `in_per_out` input
/// chunks nested inside each output chunk of an `out_n` x `out_n` grid.
struct GridScenario {
  Rect domain;
  std::vector<Rect> input_mbrs;
  std::vector<Rect> output_mbrs;
  ChunkMapping mapping;
};

inline Rect cell(const Rect& domain, int n, int ix, int iy) {
  const double dx = domain.extent(0) / n;
  const double dy = domain.extent(1) / n;
  const double e = 1e-9;
  return Rect(Point{domain.lo()[0] + ix * dx + e * dx, domain.lo()[1] + iy * dy + e * dy},
              Point{domain.lo()[0] + (ix + 1) * dx - e * dx,
                    domain.lo()[1] + (iy + 1) * dy - e * dy});
}

inline GridScenario make_grid_scenario(int out_n, int in_per_out) {
  GridScenario s;
  s.domain = Rect::cube(2, 0.0, 1.0);
  const int in_n = out_n * in_per_out;
  for (int iy = 0; iy < out_n; ++iy) {
    for (int ix = 0; ix < out_n; ++ix) {
      s.output_mbrs.push_back(cell(s.domain, out_n, ix, iy));
    }
  }
  for (int iy = 0; iy < in_n; ++iy) {
    for (int ix = 0; ix < in_n; ++ix) {
      s.input_mbrs.push_back(cell(s.domain, in_n, ix, iy));
    }
  }
  s.mapping = build_mapping(s.input_mbrs, s.output_mbrs, nullptr);
  return s;
}

/// PlannerInput over a scenario with round-robin chunk ownership.
inline PlannerInput make_planner_input(const GridScenario& s, int nodes,
                                       std::uint64_t memory_per_node,
                                       std::uint64_t input_bytes = 1000,
                                       std::uint64_t output_bytes = 500,
                                       double accum_multiplier = 1.0) {
  PlannerInput in;
  in.num_nodes = nodes;
  in.memory_per_node = memory_per_node;
  in.mapping = &s.mapping;
  in.owner_of_input.resize(s.input_mbrs.size());
  in.input_bytes.assign(s.input_mbrs.size(), input_bytes);
  for (std::size_t i = 0; i < s.input_mbrs.size(); ++i) {
    in.owner_of_input[i] = static_cast<int>(i % static_cast<std::size_t>(nodes));
  }
  in.owner_of_output.resize(s.output_mbrs.size());
  in.output_bytes.assign(s.output_mbrs.size(), output_bytes);
  in.accum_bytes.assign(
      s.output_mbrs.size(),
      static_cast<std::uint64_t>(static_cast<double>(output_bytes) * accum_multiplier));
  for (std::size_t o = 0; o < s.output_mbrs.size(); ++o) {
    in.owner_of_output[o] = static_cast<int>(o % static_cast<std::size_t>(nodes));
  }
  in.output_order = tiling_order(s.output_mbrs, s.domain, TilingOrder::kHilbert);
  return in;
}

/// A ChunkStore decorator that holds every get() of one chunk id until
/// open() is called, so a test can keep a backing fetch in flight while
/// it arranges concurrent readers.  Other ids pass straight through.
class GatedStore : public ChunkStore {
 public:
  GatedStore(ChunkStore& backing, ChunkId gated) : backing_(backing), gated_(gated) {}

  void open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }

  /// Waits until `n` gets of the gated id have reached this store.
  bool wait_entered(int n, std::chrono::milliseconds timeout = std::chrono::seconds(10)) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, timeout, [&] { return entered_ >= n; });
  }

  int entered() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entered_;
  }

  std::optional<Chunk> get(int disk, ChunkId id) const override {
    if (id == gated_) {
      std::unique_lock<std::mutex> lock(mutex_);
      ++entered_;
      cv_.notify_all();
      cv_.wait(lock, [&] { return open_; });
    }
    return backing_.get(disk, id);
  }
  void put(Chunk chunk) override { backing_.put(std::move(chunk)); }
  bool contains(int disk, ChunkId id) const override { return backing_.contains(disk, id); }
  bool erase(int disk, ChunkId id) override { return backing_.erase(disk, id); }
  std::size_t chunk_count(int disk) const override { return backing_.chunk_count(disk); }
  std::uint64_t bytes_on_disk(int disk) const override { return backing_.bytes_on_disk(disk); }
  int num_disks() const override { return backing_.num_disks(); }

 private:
  ChunkStore& backing_;
  const ChunkId gated_;
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  mutable int entered_ = 0;
  bool open_ = false;
};

}  // namespace adr::testing
