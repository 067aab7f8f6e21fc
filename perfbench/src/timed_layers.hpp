// Timing wrappers installed through the repository's public extension
// points (AggregationService::register_op, IndexRegistry::register_index).
//
// The traced run registers them in place of the built-in sum-count-max
// operation and the default R-tree index.  While the counters are off
// a wrapper only forwards; while on, it adds the call's wall time to
// shared counters, so the benchmark learns how long the aggregation
// kernel and the index took inside the server without any span in the
// program.  Aggregation calls run on executor node threads, so they are
// counted, not logged as spans; index lookups run on the thread that
// plans, and are logged as spans when that thread has one open.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "core/aggregation.hpp"
#include "spans.hpp"
#include "storage/spatial_index.hpp"

namespace perfbench {

struct LayerCounters {
  std::atomic<bool> on{false};
  /// AggregationOp::aggregate calls: wall ns and input payload bytes.
  std::atomic<std::uint64_t> aggregate_ns{0};
  std::atomic<std::uint64_t> aggregate_bytes{0};
  /// initialize + combine + output wall ns.
  std::atomic<std::uint64_t> other_op_ns{0};
  /// SpatialIndex::query calls and their wall ns.
  std::atomic<std::uint64_t> index_calls{0};
  std::atomic<std::uint64_t> index_ns{0};

  void reset() {
    aggregate_ns = 0;
    aggregate_bytes = 0;
    other_op_ns = 0;
    index_calls = 0;
    index_ns = 0;
  }
};

/// The process-wide counters every wrapper adds to.
inline LayerCounters& layer_counters() {
  static LayerCounters counters;
  return counters;
}

namespace detail {
inline std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() - t0)
          .count());
}
}  // namespace detail

class TimedAggregation : public adr::AggregationOp {
 public:
  explicit TimedAggregation(std::shared_ptr<adr::AggregationOp> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  adr::AccumulatorLayout layout() const override { return inner_->layout(); }
  bool requires_existing_output() const override { return inner_->requires_existing_output(); }

  std::vector<std::byte> initialize(const adr::ChunkMeta& out_meta,
                                    const adr::Chunk* existing) const override {
    LayerCounters& c = layer_counters();
    if (!c.on.load(std::memory_order_relaxed)) return inner_->initialize(out_meta, existing);
    const auto t0 = std::chrono::steady_clock::now();
    auto accum = inner_->initialize(out_meta, existing);
    c.other_op_ns.fetch_add(detail::elapsed_ns(t0), std::memory_order_relaxed);
    return accum;
  }

  void aggregate(const adr::Chunk& input, const adr::ChunkMeta& out_meta,
                 std::vector<std::byte>& accum) const override {
    LayerCounters& c = layer_counters();
    if (!c.on.load(std::memory_order_relaxed)) return inner_->aggregate(input, out_meta, accum);
    const auto t0 = std::chrono::steady_clock::now();
    inner_->aggregate(input, out_meta, accum);
    c.aggregate_ns.fetch_add(detail::elapsed_ns(t0), std::memory_order_relaxed);
    c.aggregate_bytes.fetch_add(input.payload().size(), std::memory_order_relaxed);
  }

  void combine(std::vector<std::byte>& dst, const std::vector<std::byte>& src) const override {
    LayerCounters& c = layer_counters();
    if (!c.on.load(std::memory_order_relaxed)) return inner_->combine(dst, src);
    const auto t0 = std::chrono::steady_clock::now();
    inner_->combine(dst, src);
    c.other_op_ns.fetch_add(detail::elapsed_ns(t0), std::memory_order_relaxed);
  }

  std::vector<std::byte> output(const adr::ChunkMeta& out_meta,
                                const std::vector<std::byte>& accum) const override {
    LayerCounters& c = layer_counters();
    if (!c.on.load(std::memory_order_relaxed)) return inner_->output(out_meta, accum);
    const auto t0 = std::chrono::steady_clock::now();
    auto out = inner_->output(out_meta, accum);
    c.other_op_ns.fetch_add(detail::elapsed_ns(t0), std::memory_order_relaxed);
    return out;
  }

 private:
  std::shared_ptr<adr::AggregationOp> inner_;
};

class TimedIndex : public adr::SpatialIndex {
 public:
  explicit TimedIndex(std::unique_ptr<adr::SpatialIndex> inner) : inner_(std::move(inner)) {}

  std::string name() const override { return "timed-" + inner_->name(); }
  void build(const std::vector<adr::Rect>& mbrs) override { inner_->build(mbrs); }
  std::size_t size() const override { return inner_->size(); }

  std::vector<std::uint32_t> query(const adr::Rect& range) const override {
    LayerCounters& c = layer_counters();
    if (!c.on.load(std::memory_order_relaxed)) return inner_->query(range);
    SpanLog::Scope span(spans(), "index.query", 0, /*only_nested=*/true);
    const auto t0 = std::chrono::steady_clock::now();
    auto hits = inner_->query(range);
    c.index_ns.fetch_add(detail::elapsed_ns(t0), std::memory_order_relaxed);
    c.index_calls.fetch_add(1, std::memory_order_relaxed);
    return hits;
  }

 private:
  std::unique_ptr<adr::SpatialIndex> inner_;
};

}  // namespace perfbench
