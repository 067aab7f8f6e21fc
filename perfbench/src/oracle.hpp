// Input generation and the correctness oracle for the ADR benchmark.
//
// Every dataset the benchmark loads is a regular n x n grid of input
// chunks over the unit square.  Chunk (ix, iy) holds kValuesPerChunk
// u64 values drawn from the workload seed, so the same seed always
// produces the same bytes.  The oracle recomputes what a sum-count-max
// range query must return, per output chunk, from those values alone:
// it shares no code with the repository's planner, index or
// aggregation kernel, only the geometry convention (closed-interval
// intersection of inset cells) that the datasets are built with.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/geometry.hpp"
#include "storage/chunk.hpp"

namespace perfbench {

/// u64 values per input chunk: 8 KiB payloads.
inline constexpr std::uint32_t kValuesPerChunk = 1024;

/// One sum-count-max triple (the accumulator and the output payload).
struct Scm {
  std::uint64_t sum = 0;
  std::uint64_t count = 0;
  std::uint64_t max = 0;

  void add(const Scm& other);
  bool operator==(const Scm&) const = default;
};

/// A query window [x0, x1] x [y0, y1] in the unit square.
struct Window {
  double x0 = 0.0;
  double y0 = 0.0;
  double x1 = 0.0;
  double y1 = 0.0;

  adr::Rect rect() const;
};

/// Closed interval of cell k of an n-way split of [0, 1], inset on both
/// sides by a relative epsilon so neighbouring cells never touch.
struct Interval {
  double lo = 0.0;
  double hi = 0.0;
};
Interval cell_interval(int n, int k);
/// The MBR of cell (ix, iy) of an n x n grid (product of intervals).
adr::Rect cell_rect(int n, int ix, int iy);

/// Value i of input chunk `cell` for a seed (splitmix64 of the triple,
/// reduced below 10^6 so no sum can wrap).
std::uint64_t cell_value(std::uint64_t seed, std::uint32_t cell, std::uint32_t i);

/// Expected output of one query: (output chunk index, triple) for
/// every output chunk the query selects, ascending by index.
using Expected = std::vector<std::pair<std::uint32_t, Scm>>;

/// Order-sensitive 64-bit digest of an expected or delivered output.
std::uint64_t digest(const Expected& outputs);

/// Decodes delivered output chunks (payload = one Scm) into the
/// Expected layout, sorted by chunk index.  A payload of the wrong size
/// decodes to an all-ones triple, which never matches.
Expected decode_outputs(const std::vector<adr::Chunk>& chunks);

class GridOracle {
 public:
  /// Generates the n x n grid's per-chunk triples from `seed`.
  GridOracle(int n, std::uint64_t seed);

  int n() const { return n_; }
  std::uint64_t seed() const { return seed_; }

  /// The input chunks to load: cell (ix, iy) at index iy * n + ix.
  std::vector<adr::Chunk> make_input_chunks() const;

  /// What a sum-count-max query over `w` must deliver onto an
  /// out_n x out_n output grid: an output chunk is selected when it
  /// intersects the window, and an input chunk contributes to it when
  /// the input intersects both the window and the output chunk.
  Expected expected(const Window& w, int out_n) const;

  /// The generated triple of one input chunk.
  const Scm& cell(int ix, int iy) const {
    return cells_[static_cast<std::size_t>(iy) * static_cast<std::size_t>(n_) +
                  static_cast<std::size_t>(ix)];
  }

 private:
  int n_;
  std::uint64_t seed_;
  std::vector<Scm> cells_;
};

/// Zero-filled output chunks for an out_n x out_n grid (index iy * out_n
/// + ix), each holding one empty Scm.
std::vector<adr::Chunk> make_output_chunks(int out_n);

}  // namespace perfbench
