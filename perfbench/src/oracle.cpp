#include "oracle.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace perfbench {
namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

bool overlaps(const Interval& a, double lo, double hi) {
  return a.lo <= hi && lo <= a.hi;
}

/// Cells of an n-way split whose interval meets [lo, hi], ascending.
std::vector<int> cells_meeting(int n, double lo, double hi) {
  std::vector<int> out;
  const int first = std::max(0, static_cast<int>(std::floor(lo * n)) - 1);
  const int last = std::min(n - 1, static_cast<int>(std::floor(hi * n)) + 1);
  for (int k = first; k <= last; ++k) {
    if (overlaps(cell_interval(n, k), lo, hi)) out.push_back(k);
  }
  return out;
}

}  // namespace

void Scm::add(const Scm& other) {
  sum += other.sum;
  count += other.count;
  max = std::max(max, other.max);
}

adr::Rect Window::rect() const {
  return adr::Rect(adr::Point{x0, y0}, adr::Point{x1, y1});
}

Interval cell_interval(int n, int k) {
  const double width = 1.0 / n;
  const double inset = 1e-9 * width;
  return Interval{k * width + inset, (k + 1) * width - inset};
}

adr::Rect cell_rect(int n, int ix, int iy) {
  const Interval x = cell_interval(n, ix);
  const Interval y = cell_interval(n, iy);
  return adr::Rect(adr::Point{x.lo, y.lo}, adr::Point{x.hi, y.hi});
}

std::uint64_t cell_value(std::uint64_t seed, std::uint32_t cell, std::uint32_t i) {
  const std::uint64_t key =
      splitmix64(seed) ^ ((static_cast<std::uint64_t>(cell) << 20) | i);
  return splitmix64(key) % 1'000'000;
}

std::uint64_t digest(const Expected& outputs) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) { h = splitmix64(h ^ v); };
  mix(outputs.size());
  for (const auto& [index, scm] : outputs) {
    mix(index);
    mix(scm.sum);
    mix(scm.count);
    mix(scm.max);
  }
  return h;
}

Expected decode_outputs(const std::vector<adr::Chunk>& chunks) {
  Expected out;
  out.reserve(chunks.size());
  for (const adr::Chunk& c : chunks) {
    Scm scm{~0ull, ~0ull, ~0ull};
    if (c.payload().size() == sizeof(Scm)) {
      std::memcpy(&scm, c.payload().data(), sizeof(Scm));
    }
    out.emplace_back(c.meta().id.index, scm);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

GridOracle::GridOracle(int n, std::uint64_t seed)
    : n_(n), seed_(seed), cells_(static_cast<std::size_t>(n) * static_cast<std::size_t>(n)) {
  for (std::uint32_t c = 0; c < cells_.size(); ++c) {
    Scm& s = cells_[c];
    for (std::uint32_t i = 0; i < kValuesPerChunk; ++i) {
      const std::uint64_t v = cell_value(seed, c, i);
      s.sum += v;
      s.max = std::max(s.max, v);
    }
    s.count = kValuesPerChunk;
  }
}

std::vector<adr::Chunk> GridOracle::make_input_chunks() const {
  std::vector<adr::Chunk> chunks;
  chunks.reserve(cells_.size());
  for (int iy = 0; iy < n_; ++iy) {
    for (int ix = 0; ix < n_; ++ix) {
      const auto cell = static_cast<std::uint32_t>(iy * n_ + ix);
      std::vector<std::byte> payload(kValuesPerChunk * sizeof(std::uint64_t));
      for (std::uint32_t i = 0; i < kValuesPerChunk; ++i) {
        const std::uint64_t v = cell_value(seed_, cell, i);
        std::memcpy(payload.data() + i * sizeof(v), &v, sizeof(v));
      }
      adr::ChunkMeta meta;
      meta.mbr = cell_rect(n_, ix, iy);
      chunks.emplace_back(meta, std::move(payload));
    }
  }
  return chunks;
}

Expected GridOracle::expected(const Window& w, int out_n) const {
  const std::vector<int> in_x = cells_meeting(n_, w.x0, w.x1);
  const std::vector<int> in_y = cells_meeting(n_, w.y0, w.y1);
  const std::vector<int> out_x = cells_meeting(out_n, w.x0, w.x1);
  const std::vector<int> out_y = cells_meeting(out_n, w.y0, w.y1);

  // Intersection is a product of per-axis interval overlaps, so the
  // contributing inputs of output (ox, oy) are the selected columns
  // meeting column ox times the selected rows meeting row oy.
  auto contributing = [this](const std::vector<int>& selected, int out_n_, int o) {
    const Interval oi = cell_interval(out_n_, o);
    std::vector<int> out;
    for (int k : selected) {
      const Interval ki = cell_interval(n_, k);
      if (overlaps(ki, oi.lo, oi.hi)) out.push_back(k);
    }
    return out;
  };

  Expected result;
  result.reserve(out_x.size() * out_y.size());
  for (int oy : out_y) {
    const std::vector<int> rows = contributing(in_y, out_n, oy);
    for (int ox : out_x) {
      const std::vector<int> cols = contributing(in_x, out_n, ox);
      Scm acc;
      for (int iy : rows) {
        for (int ix : cols) acc.add(cell(ix, iy));
      }
      result.emplace_back(static_cast<std::uint32_t>(oy * out_n + ox), acc);
    }
  }
  return result;
}

std::vector<adr::Chunk> make_output_chunks(int out_n) {
  std::vector<adr::Chunk> chunks;
  chunks.reserve(static_cast<std::size_t>(out_n) * static_cast<std::size_t>(out_n));
  for (int iy = 0; iy < out_n; ++iy) {
    for (int ix = 0; ix < out_n; ++ix) {
      adr::ChunkMeta meta;
      meta.mbr = cell_rect(out_n, ix, iy);
      chunks.emplace_back(meta, std::vector<std::byte>(sizeof(Scm), std::byte{0}));
    }
  }
  return chunks;
}

}  // namespace perfbench
