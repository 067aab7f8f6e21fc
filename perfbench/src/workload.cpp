#include "workload.hpp"

#include <algorithm>

namespace perfbench {
namespace {

constexpr std::uint64_t kMiB = 1024 * 1024;

std::mt19937_64 seeded(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::seed_seq seq{static_cast<std::uint32_t>(seed), static_cast<std::uint32_t>(seed >> 32),
                    static_cast<std::uint32_t>(a), static_cast<std::uint32_t>(b)};
  return std::mt19937_64(seq);
}

}  // namespace

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> workloads = {
      {.name = "cold_scan",
       .grid_n = 90,
       .read_out_n = 4,
       .read_width = 0.2,
       // Both caches hold a fraction of what the scan touches: 16 MiB of
       // chunks against 63 MiB of input, and ~2k marginal partials
       // against ~25k distinct (output chunk, contributing set) keys.
       // With the default 32 MiB the partials all fit, and within a 20 s
       // run most queries become marginal hits.
       .chunk_cache_bytes_per_node = 4 * kMiB,
       .marginal_cache_bytes = 256 * 1024,
       .warm_reads_per_client = 25},
      {.name = "hot_overlap",
       .grid_n = 24,
       .read_out_n = 6,
       .backends = 2,
       .routed = true,
       .hot_windows = 32},
      {.name = "write_mix",
       .grid_n = 64,
       .read_out_n = 4,
       .write_out_n = 32,
       .read_width = 0.3,
       .write_width = 0.3,
       .writers = 2,
       // Small enough that a 0.3-wide write-back (~120 output chunks of
       // 72 accumulator bytes) runs about five FRA tiles with ghosts.
       .chunk_cache_bytes_per_node = 4 * kMiB,
       .memory_per_node = 2048,
       // Off so write-backs plan and execute every time instead of being
       // finalized from cached partials (hot_overlap covers that path).
       .marginal_cache_bytes = 0,
       .warm_reads_per_client = 25},
  };
  return workloads;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& wl : all_workloads()) {
    if (name == wl.name) return &wl;
  }
  return nullptr;
}

std::vector<Window> hot_window_set(const Workload& wl, std::uint64_t seed) {
  std::vector<Window> set;
  std::mt19937_64 rng = seeded(seed, 0x686f74, 0);
  const int n = wl.read_out_n;
  for (int i = 0; i < wl.hot_windows; ++i) {
    const int w = 1 + static_cast<int>(rng() % 3);
    const int h = 1 + static_cast<int>(rng() % 3);
    const int x = static_cast<int>(rng() % static_cast<std::uint64_t>(n - w + 1));
    const int y = static_cast<int>(rng() % static_cast<std::uint64_t>(n - h + 1));
    set.push_back(Window{static_cast<double>(x) / n, static_cast<double>(y) / n,
                         static_cast<double>(x + w) / n, static_cast<double>(y + h) / n});
  }
  return set;
}

Zipf::Zipf(int n) {
  double total = 0.0;
  for (int r = 0; r < n; ++r) {
    total += 1.0 / (r + 1);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

int Zipf::pick(std::mt19937_64& rng) const {
  const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<int>(std::min<std::ptrdiff_t>(it - cdf_.begin(),
                                                   static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
}

ClientScript::ClientScript(const Workload& wl, const std::vector<Window>& hot,
                           std::uint64_t seed, int client, std::uint64_t tag)
    : wl_(&wl),
      hot_(&hot),
      zipf_(std::max(1, wl.hot_windows)),
      rng_(seeded(seed, static_cast<std::uint64_t>(client), tag)),
      client_(client) {}

Draw ClientScript::next() {
  Draw d;
  if (client_ < wl_->writers) {
    d.write = true;
    d.writer = static_cast<std::int8_t>(client_);
  }
  if (!d.write && wl_->hot_windows > 0) {
    d.hot_id = zipf_.pick(rng_);
    d.window = (*hot_)[static_cast<std::size_t>(d.hot_id)];
    return d;
  }
  const double width = d.write ? wl_->write_width : wl_->read_width;
  std::uniform_real_distribution<double> origin(0.0, 1.0 - width);
  const double x = origin(rng_);
  const double y = origin(rng_);
  d.window = Window{x, y, x + width, y + width};
  return d;
}

std::vector<Draw> warm_up_draws(const Workload& wl, const std::vector<Window>& hot,
                                std::uint64_t seed, int client) {
  std::vector<Draw> draws;
  if (client < wl.writers) {
    // Sweep the output grid so every fully covered output chunk has a
    // cached partial before timing starts.
    const double w = wl.write_width;
    const int steps = static_cast<int>((1.0 - w) / 0.1 + 1e-9) + 1;
    for (int iy = 0; iy < steps; ++iy) {
      for (int ix = 0; ix < steps; ++ix) {
        Draw d;
        d.write = true;
        d.writer = static_cast<std::int8_t>(client);
        d.window = Window{ix * 0.1, iy * 0.1, ix * 0.1 + w, iy * 0.1 + w};
        draws.push_back(d);
      }
    }
    return draws;
  }
  if (wl.hot_windows > 0) {
    if (client < wl.backends) {
      for (std::size_t i = 0; i < hot.size(); ++i) {
        Draw d;
        d.hot_id = static_cast<std::int32_t>(i);
        d.window = hot[i];
        draws.push_back(d);
      }
    }
    return draws;
  }
  ClientScript stream(wl, hot, seed, client, kWarmUpTag);
  for (int i = 0; i < wl.warm_reads_per_client; ++i) draws.push_back(stream.next());
  return draws;
}

}  // namespace perfbench
