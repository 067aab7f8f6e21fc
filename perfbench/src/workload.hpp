// The benchmark's workloads and the query streams they draw from.
//
// Every workload is 4 closed-loop clients in one process against
// in-process servers on a file-backed 4-node farm.  The workloads vary
// what the program's own caches can do for them: cold_scan's working
// set is four times its chunk cache, hot_overlap fits both caches and
// repeats output-aligned windows, and write_mix writes output products
// back to the farm while readers scan the same input.
#pragma once

#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "oracle.hpp"

namespace perfbench {

inline constexpr int kClients = 4;
inline constexpr int kNodes = 4;

struct Workload {
  const char* name = "";
  /// Input grid side: grid_n x grid_n chunks of 8 KiB.
  int grid_n = 0;
  /// Output grid side of return-to-client reads.
  int read_out_n = 0;
  /// Output grid side of write-back queries (0 = no writes).
  int write_out_n = 0;
  /// Side of a random read / write window (0 for hot_overlap).
  double read_width = 0.0;
  double write_width = 0.0;
  /// Clients 0 .. writers-1 issue write-backs, each into its own
  /// output dataset; the rest read.
  int writers = 0;
  /// Servers, each over its own farm holding identical datasets.
  int backends = 1;
  /// Clients go through an AdrRouter fronting the backends.
  bool routed = false;
  /// > 0: reads draw Zipf-skewed from this many output-aligned windows.
  int hot_windows = 0;
  /// RepositoryConfig values this workload sets (nullopt = default).
  std::optional<std::uint64_t> chunk_cache_bytes_per_node = std::nullopt;
  std::optional<std::uint64_t> memory_per_node = std::nullopt;
  std::optional<std::uint64_t> marginal_cache_bytes = std::nullopt;
  /// Random warm-up queries per reading client during set-up.
  int warm_reads_per_client = 0;
};

/// The workload named `name`, or nullptr.
const Workload* find_workload(const std::string& name);
const std::vector<Workload>& all_workloads();

/// One query a client will send.
struct Draw {
  bool write = false;
  /// Writer index (== client) for writes, -1 for reads.
  std::int8_t writer = -1;
  /// Index into the hot window set, -1 for a random window.
  std::int32_t hot_id = -1;
  Window window;
};

/// hot_overlap's fixed window set: 1-3 output chunks wide and tall,
/// edges on output-chunk boundaries, drawn from `seed`.
std::vector<Window> hot_window_set(const Workload& wl, std::uint64_t seed);

/// Zipf(s = 1) over ranks 0 .. n-1.
class Zipf {
 public:
  explicit Zipf(int n);
  int pick(std::mt19937_64& rng) const;

 private:
  std::vector<double> cdf_;
};

/// A client's endless seeded query stream.
class ClientScript {
 public:
  ClientScript(const Workload& wl, const std::vector<Window>& hot, std::uint64_t seed,
               int client, std::uint64_t tag);

  Draw next();

 private:
  const Workload* wl_;
  const std::vector<Window>* hot_;
  Zipf zipf_;
  std::mt19937_64 rng_;
  int client_;
};

/// Stream tags: each phase of a run draws from its own seeded stream.
inline constexpr std::uint64_t kWarmUpTag = 1;
inline constexpr std::uint64_t kTimedTag = 2;
inline constexpr std::uint64_t kTracedTag = 3;
inline constexpr std::uint64_t kHopTag = 4;
inline constexpr std::uint64_t kReplayTag = 5;
inline constexpr std::uint64_t kUntracedTag = 6;
inline constexpr std::uint64_t kSchedulerTag = 7;

/// The set-up warm-up for one client: writers sweep their output grid,
/// readers issue `warm_reads_per_client` random reads, and on
/// hot_overlap clients 0 .. backends-1 send every hot window once.
std::vector<Draw> warm_up_draws(const Workload& wl, const std::vector<Window>& hot,
                                std::uint64_t seed, int client);

}  // namespace perfbench
