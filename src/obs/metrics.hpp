// Process-wide metrics registry for the serving runtime.
//
// The paper's evaluation is built on measured per-phase breakdowns; the
// serving stack grown around the reproduction (scheduler, node runtime,
// chunk cache, socket server) needs the same visibility *at runtime*.
// Three instrument kinds:
//
//   Counter   - monotonic u64, sharded across cache lines so concurrent
//               hot-path increments (one per chunk read) never contend;
//   Gauge     - point-in-time i64 (queue depth, resident bytes);
//   Histogram - fixed-bucket latency distribution, sharded like Counter,
//               with p50/p95/p99 read out of a snapshot.
//
// Writers touch only relaxed atomics in their own shard: recording a
// sample is a handful of nanoseconds and safe from any thread.  Readers
// (the stats endpoint, benches) take a MetricsSnapshot — a consistent-
// enough sum over shards — and render it as JSON.
//
// metrics() returns the process-wide registry.  It is intentionally
// immortal (never destroyed) so instrumented objects may update gauges
// from their destructors regardless of static teardown order.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace adr::obs {

/// Shards per instrument: threads hash onto shards, so concurrent
/// writers almost never share a cache line.
inline constexpr std::size_t kMetricShards = 16;

namespace detail {
/// Stable per-thread shard index in [0, kMetricShards).
std::size_t shard_index() noexcept;
/// Lock-free add to a double accumulated in atomic bits.
void atomic_add_double(std::atomic<std::uint64_t>& bits, double d) noexcept;
double atomic_load_double(const std::atomic<std::uint64_t>& bits) noexcept;
}  // namespace detail

/// Monotonic counter.  add() is wait-free and off the hot path's cache
/// lines; value() sums the shards (monotonic but not instantaneous).
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    shards_[detail::shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Shard, kMetricShards> shards_{};
};

/// Point-in-time signed value (queue depth, resident bytes).
class Gauge {
 public:
  void set(std::int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) noexcept { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Read-out of one histogram: cumulative-free per-bucket counts plus the
/// quantile/mean math over them.
struct HistogramSnapshot {
  /// Ascending finite upper bounds; observations land in the first
  /// bucket whose bound >= value.  counts has bounds.size()+1 entries,
  /// the last being the overflow bucket (> bounds.back()).
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;
  std::uint64_t count = 0;
  double sum = 0.0;

  /// Quantile by linear interpolation inside the target bucket (the
  /// classic fixed-bucket estimate; exact at bucket boundaries).  The
  /// overflow bucket reports the largest finite bound — check
  /// quantile_in_overflow() before trusting a tail quantile: a p99 that
  /// landed past the last bound is a *floor* ("p99 >= 10s"), not an
  /// estimate.  q in [0, 1].
  double quantile(double q) const;
  /// Observations past the largest finite bound.
  std::uint64_t overflow() const { return counts.empty() ? 0 : counts.back(); }
  /// True when quantile(q)'s rank lands in the overflow bucket, i.e. the
  /// returned value is clipped to bounds.back() and understates reality.
  bool quantile_in_overflow(double q) const;
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }
  double mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }
};

/// Fixed-bucket histogram; observe() is wait-free (binary search over
/// the bounds plus two relaxed adds in this thread's shard).
class Histogram {
 public:
  /// `bounds` must be non-empty and strictly ascending.
  explicit Histogram(std::vector<double> bounds);

  void observe(double v) noexcept;
  HistogramSnapshot snapshot() const;
  const std::vector<double>& bounds() const { return bounds_; }

 private:
  struct alignas(64) Shard {
    std::unique_ptr<std::atomic<std::uint64_t>[]> counts;  // bounds+1 buckets
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum_bits{0};  // double payload
  };

  std::vector<double> bounds_;
  std::array<Shard, kMetricShards> shards_;
};

/// Default latency buckets in seconds: 100 us .. 10 s, roughly 1-2.5-5
/// per decade — wide enough for a cold file-backed query, fine enough
/// that warm submits (a few ms) resolve.
std::vector<double> default_latency_buckets();

/// A consistent read of every registered series, detached from the
/// registry (safe to serialize while writers keep writing).
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  const std::uint64_t* counter(const std::string& name) const;
  const std::int64_t* gauge(const std::string& name) const;
  const HistogramSnapshot* histogram(const std::string& name) const;

  /// {"counters": {...}, "gauges": {...}, "histograms": {name:
  /// {count,overflow,sum,mean,p50,p95,p99,buckets:[{le,count}...]}}}
  std::string to_json() const;
};

/// Named-series registry.  Lookup is mutex-protected (instrumentation
/// sites cache the returned reference once); returned references stay
/// valid for the registry's lifetime.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// First registration fixes the buckets; later calls with the same
  /// name return the existing histogram and ignore `bounds`.
  Histogram& histogram(const std::string& name, std::vector<double> bounds = {});

  MetricsSnapshot snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// The process-wide registry every serving-stack component records into.
MetricsRegistry& metrics();

}  // namespace adr::obs
