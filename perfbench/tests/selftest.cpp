// Tests for the benchmark's own oracle, quantile and workload code.
//
//   python3 perfbench/run.py --selftest      (or ctest in .bench_build)
//
// The oracle is checked three ways: against a brute-force scan over
// every cell using the library's Rect::intersects, against hand-made
// totals, and against real Repository::submit results on small grids,
// so a drift between the oracle's geometry convention and the
// planner's shows up here rather than as benchmark failures.
#include <cmath>
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "core/frontend.hpp"
#include "oracle.hpp"
#include "quantile.hpp"
#include "workload.hpp"

namespace pb = perfbench;

namespace {

int g_failures = 0;

void check(bool cond, const std::string& what) {
  if (!cond) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b)); }

void test_quantiles() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  check(near(pb::quantile_sorted(v, 0.5), 50.5), "median of 1..100 is 50.5");
  check(near(pb::quantile_sorted(v, 0.99), 99.01), "p99 of 1..100 is 99.01");
  check(near(pb::quantile_sorted(v, 0.0), 1.0), "q=0 is the minimum");
  check(near(pb::quantile_sorted(v, 1.0), 100.0), "q=1 is the maximum");
  check(pb::quantile_sorted({}, 0.5) == 0.0, "empty sample set reads 0");
  check(near(pb::quantile_sorted({4.0}, 0.99), 4.0), "one sample is every quantile");

  // Unsorted input: distribution() sorts; values are exact, not bucketed.
  const pb::Distribution d = pb::distribution({9.95, 7.5, 0.1, 22.0, 4.83});
  check(d.n == 5, "distribution keeps the sample count");
  check(near(d.p50, 7.5), "median of five raw samples is the middle one");
  check(near(d.p99, 9.95 + 0.96 * (22.0 - 9.95)), "p99 interpolates between the top two");

  check(pb::samples_beyond(1000, 0.99) == 10, "1000 samples leave 10 beyond p99");
  check(pb::samples_beyond(999, 0.99) == 10, "999 samples leave 10 beyond p99");
  check(pb::samples_beyond(100, 0.99) == 1, "100 samples leave 1 beyond p99");
  check(pb::samples_beyond(0, 0.99) == 0, "no samples, none beyond");
  check(near(pb::median({3.0, 1.0, 2.0, 10.0}), 2.5), "median of an even count averages");
}

/// The oracle recomputed by brute force with the library's geometry.
pb::Expected brute_force(const pb::GridOracle& o, const pb::Window& w, int out_n) {
  const adr::Rect win = w.rect();
  pb::Expected out;
  for (int oy = 0; oy < out_n; ++oy) {
    for (int ox = 0; ox < out_n; ++ox) {
      const adr::Rect orect = pb::cell_rect(out_n, ox, oy);
      if (!orect.intersects(win)) continue;
      pb::Scm acc;
      for (int iy = 0; iy < o.n(); ++iy) {
        for (int ix = 0; ix < o.n(); ++ix) {
          const adr::Rect irect = pb::cell_rect(o.n(), ix, iy);
          if (irect.intersects(win) && irect.intersects(orect)) acc.add(o.cell(ix, iy));
        }
      }
      out.emplace_back(static_cast<std::uint32_t>(oy * out_n + ox), acc);
    }
  }
  return out;
}

void test_oracle_against_brute_force() {
  const pb::GridOracle o(9, 42);
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (int t = 0; t < 300; ++t) {
    double x0 = u(rng), x1 = u(rng), y0 = u(rng), y1 = u(rng);
    if (x0 > x1) std::swap(x0, x1);
    if (y0 > y1) std::swap(y0, y1);
    const pb::Window w{x0, y0, x1, y1};
    for (int out_n : {1, 2, 4, 7}) {
      check(o.expected(w, out_n) == brute_force(o, w, out_n),
            "oracle == brute force, trial " + std::to_string(t) + " out_n " +
                std::to_string(out_n));
    }
  }
  // Windows on cell boundaries (hot_overlap's shape) select exactly the
  // cells inside them.
  const pb::Window aligned{1.0 / 3, 0.0, 2.0 / 3, 1.0 / 3};
  check(o.expected(aligned, 3) == brute_force(o, aligned, 3), "aligned window");
  const pb::Expected e = o.expected(aligned, 3);
  check(e.size() == 1 && e[0].first == 1, "aligned window selects one output chunk");
  check(e.size() == 1 && e[0].second.count == 9 * pb::kValuesPerChunk,
        "aligned window aggregates the 3x3 inputs beneath it");
}

void test_oracle_totals() {
  const pb::GridOracle o(5, 3);
  const std::vector<adr::Chunk> chunks = o.make_input_chunks();
  check(chunks.size() == 25, "n x n input chunks");
  pb::Scm total;
  for (const adr::Chunk& c : chunks) {
    check(c.payload().size() == pb::kValuesPerChunk * 8, "8 KiB payloads");
    for (std::uint64_t v : c.as<std::uint64_t>()) {
      total.sum += v;
      total.max = std::max(total.max, v);
      ++total.count;
    }
  }
  const pb::Expected all = o.expected({0.0, 0.0, 1.0, 1.0}, 1);
  check(all.size() == 1 && all[0].second == total, "full window == sum over every payload");
  check(pb::GridOracle(5, 3).cell(2, 2) == o.cell(2, 2), "same seed, same values");
  check(!(pb::GridOracle(5, 4).cell(2, 2) == o.cell(2, 2)), "another seed, other values");
}

void test_digest_and_decode() {
  const pb::Expected a = {{1, {10, 2, 7}}, {2, {5, 1, 5}}};
  const pb::Expected b = {{2, {5, 1, 5}}, {1, {10, 2, 7}}};
  check(pb::digest(a) != pb::digest(b), "digest is order-sensitive");
  check(pb::digest(a) != pb::digest({{1, {10, 2, 7}}}), "digest covers every chunk");

  std::vector<adr::Chunk> chunks;
  for (const auto& [idx, scm] : b) {
    adr::ChunkMeta meta;
    meta.id.index = idx;
    std::vector<std::byte> payload(sizeof(pb::Scm));
    std::memcpy(payload.data(), &scm, sizeof scm);
    chunks.emplace_back(meta, std::move(payload));
  }
  check(pb::decode_outputs(chunks) == a, "decode sorts delivered chunks by index");
  chunks[0].payload().resize(8);
  check(!(pb::decode_outputs(chunks) == a), "a short payload never matches");
}

/// The oracle agrees with the repository itself on small in-memory grids.
void test_oracle_against_repository() {
  for (int grid_n : {6, 10}) {
    const pb::GridOracle o(grid_n, 11);
    adr::RepositoryConfig cfg;
    cfg.num_nodes = pb::kNodes;
    cfg.memory_per_node = 512;  // several tiles for the finer grids
    adr::Repository repo(cfg);
    const std::uint32_t in = repo.create_dataset("in", adr::Rect::cube(2, 0, 1), o.make_input_chunks());
    std::mt19937_64 rng(9);
    std::uniform_real_distribution<double> u(0.0, 0.7);
    for (int out_n : {3, 4, 8}) {
      const std::uint32_t out =
          repo.create_dataset("out" + std::to_string(out_n), adr::Rect::cube(2, 0, 1),
                              pb::make_output_chunks(out_n));
      for (int t = 0; t < 20; ++t) {
        const double x = u(rng), y = u(rng);
        const pb::Window w{x, y, x + 0.3, y + 0.3};
        adr::Query q;
        q.input_dataset = in;
        q.output_dataset = out;
        q.range = w.rect();
        q.aggregation = "sum-count-max";
        q.delivery = adr::OutputDelivery::kReturnToClient;
        const adr::QueryResult r = repo.submit(q);
        check(pb::digest(pb::decode_outputs(r.outputs)) == pb::digest(o.expected(w, out_n)),
              "repository == oracle, grid " + std::to_string(grid_n) + " out_n " +
                  std::to_string(out_n) + " trial " + std::to_string(t));
        q.delivery = adr::OutputDelivery::kWriteBack;
        repo.submit(q);
        for (const auto& [idx, scm] : o.expected(w, out_n)) {
          const std::optional<adr::Chunk> c = repo.read_chunk(out, idx);
          check(c && pb::decode_outputs({*c}) == pb::Expected{{idx, scm}},
                "write-back read back == oracle");
        }
      }
    }
  }
}

void test_workloads() {
  for (const pb::Workload& wl : pb::all_workloads()) {
    check(pb::find_workload(wl.name) == &wl, std::string("find_workload ") + wl.name);
    const std::vector<pb::Window> hot = pb::hot_window_set(wl, 1);
    check(static_cast<int>(hot.size()) == wl.hot_windows, "hot set size");
    for (const pb::Window& w : hot) {
      for (double e : {w.x0, w.y0, w.x1, w.y1}) {
        const double k = e * wl.read_out_n;
        check(near(k, std::round(k)), "hot window edges lie on output-chunk boundaries");
      }
    }
    pb::ClientScript a(wl, hot, 7, 1, pb::kTimedTag), b(wl, hot, 7, 1, pb::kTimedTag);
    pb::ClientScript c(wl, hot, 8, 1, pb::kTimedTag);
    bool same = true, differs = false;
    for (int i = 0; i < 50; ++i) {
      const pb::Draw da = a.next(), db = b.next(), dc = c.next();
      same = same && da.window.x0 == db.window.x0 && da.window.y1 == db.window.y1;
      differs = differs || da.window.x0 != dc.window.x0;
      check(da.window.x0 >= 0 && da.window.x1 <= 1 + 1e-12, "windows stay in the domain");
    }
    check(same, std::string("same seed, same stream: ") + wl.name);
    check(differs, std::string("another seed, another stream: ") + wl.name);
    if (wl.writers > 0) {
      const std::vector<pb::Draw> sweep = pb::warm_up_draws(wl, hot, 1, 0);
      check(!sweep.empty() && sweep.back().window.x1 <= 1.0 + 1e-9, "writer sweep fits");
    }
  }
  pb::Zipf z(32);
  std::mt19937_64 rng(1);
  std::vector<int> hist(32, 0);
  for (int i = 0; i < 20000; ++i) ++hist[static_cast<std::size_t>(z.pick(rng))];
  check(hist[0] > hist[1] && hist[1] > hist[8] && hist[8] > hist[31], "Zipf is skewed");
}

}  // namespace

int main() {
  test_quantiles();
  test_oracle_against_brute_force();
  test_oracle_totals();
  test_digest_and_decode();
  test_oracle_against_repository();
  test_workloads();
  if (g_failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
