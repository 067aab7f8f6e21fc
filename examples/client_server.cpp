// Client/server deployment: the paper's Figure 2 in one process.
//
// Stands up an ADR repository behind the front-end socket server, then
// plays first a "sequential client" (paper's client A): connects over
// TCP, submits range queries of shrinking footprint, and reads the
// composited results off the wire — and then a crowd: eight clients on
// their own threads hammering the same server concurrently, each on its
// own connection.
//
//   ./client_server
#include <atomic>
#include <cstring>
#include <iostream>
#include <thread>
#include <vector>

#include "adr.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/trace.hpp"

namespace {

using namespace adr;

std::vector<Chunk> sensor_chunks() {
  Rng rng(31);
  std::vector<Chunk> chunks;
  const int n = 8;
  for (int iy = 0; iy < n; ++iy) {
    for (int ix = 0; ix < n; ++ix) {
      ChunkMeta meta;
      const double d = 1.0 / n, e = 1e-9;
      meta.mbr = Rect(Point{ix * d + e, iy * d + e},
                      Point{(ix + 1) * d - e, (iy + 1) * d - e});
      std::vector<std::uint64_t> vals(8);
      for (auto& v : vals) v = static_cast<std::uint64_t>(rng.uniform_int(0, 999));
      std::vector<std::byte> payload(vals.size() * sizeof(std::uint64_t));
      std::memcpy(payload.data(), vals.data(), payload.size());
      chunks.emplace_back(meta, std::move(payload));
    }
  }
  return chunks;
}

std::vector<Chunk> summary_chunks() {
  std::vector<Chunk> chunks;
  for (int iy = 0; iy < 2; ++iy) {
    for (int ix = 0; ix < 2; ++ix) {
      ChunkMeta meta;
      const double d = 0.5, e = 1e-9;
      meta.mbr = Rect(Point{ix * d + e, iy * d + e},
                      Point{(ix + 1) * d - e, (iy + 1) * d - e});
      chunks.emplace_back(meta, std::vector<std::byte>(24, std::byte{0}));
    }
  }
  return chunks;
}

}  // namespace

int main() {
  // ---- back end + front end ----
  RepositoryConfig config;
  config.backend = RepositoryConfig::Backend::kThreads;
  config.num_nodes = 4;
  config.memory_per_node = 1 << 20;
  Repository repo(config);
  const Rect domain = Rect::cube(2, 0.0, 1.0);
  const auto sensors = repo.create_dataset("sensors", domain, sensor_chunks());
  const auto summary = repo.create_dataset("summary", domain, summary_chunks());

  // Trace the whole session: every query's lifecycle spans land in the
  // ring the stats endpoint exports.
  obs::tracer().enable();

  net::AdrServer server(repo, /*port=*/0);
  server.start();
  std::cout << "ADR front end listening on 127.0.0.1:" << server.port() << "\n\n";

  // ---- sequential client over TCP ----
  net::AdrClient client(server.port());
  for (double extent : {1.0, 0.5, 0.25}) {
    Query q;
    q.input_dataset = sensors;
    q.output_dataset = summary;
    q.range = Rect(Point{0.0, 0.0}, Point{extent - 1e-9, extent - 1e-9});
    q.aggregation = "sum-count-max";
    q.strategy = StrategyKind::kAuto;
    q.delivery = OutputDelivery::kReturnToClient;

    const net::WireResult result = client.submit(q);
    if (!result.ok()) {
      std::cerr << "query failed: " << result.status.to_string() << "\n";
      return 1;
    }
    std::uint64_t count = 0, max = 0;
    for (const Chunk& chunk : result.outputs) {
      const auto v = chunk.as<std::uint64_t>();
      count += v[1];
      max = std::max(max, v[2]);
    }
    std::cout << "query over " << extent * 100 << "% x " << extent * 100
              << "% of the domain -> strategy " << to_string(result.strategy)
              << ", " << result.outputs.size() << " chunk(s), " << count
              << " readings, max " << max << "\n";
  }

  // ---- concurrent clients, one connection each ----
  const int n_clients = 8;
  const int queries_per_client = 4;
  std::atomic<std::uint64_t> grand_total{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> crowd;
  crowd.reserve(n_clients);
  for (int c = 0; c < n_clients; ++c) {
    crowd.emplace_back([&, c]() {
      try {
        net::AdrClient me(server.port());
        for (int i = 0; i < queries_per_client; ++i) {
          Query q;
          q.input_dataset = sensors;
          q.output_dataset = summary;
          const double extent = 0.25 + 0.25 * ((c + i) % 4);
          q.range = Rect(Point{0.0, 0.0}, Point{extent - 1e-9, extent - 1e-9});
          q.aggregation = "sum-count-max";
          q.delivery = OutputDelivery::kReturnToClient;
          const net::WireResult result = me.submit(q);
          if (!result.ok()) {
            ++failures;
            continue;
          }
          for (const Chunk& chunk : result.outputs) {
            grand_total += chunk.as<std::uint64_t>()[1];
          }
        }
      } catch (const std::exception& e) {
        ++failures;
      }
    });
  }
  for (std::thread& t : crowd) t.join();
  std::cout << "\n" << n_clients << " concurrent clients x " << queries_per_client
            << " queries: " << grand_total.load() << " readings counted, "
            << failures.load() << " failures\n";

  std::cout << "\nserver handled " << server.queries_served() << " queries\n";

  // ---- observability endpoint ----
  // The same socket the queries rode serves the metrics snapshot and,
  // because tracing is on, the Chrome trace (Perfetto-loadable).  The
  // adr_stats CLI does exactly this against any live server.
  const net::WireStatsReply stats = client.stats(/*include_trace=*/true);
  std::cout << "\nstats endpoint: " << stats.metrics_json.size()
            << "-byte metrics snapshot, " << stats.trace_json.size()
            << "-byte Chrome trace\n";
  // A taste of the snapshot without a JSON parser: a couple of series.
  for (const char* needle :
       {"\"server.queries_served\":", "\"chunk_cache.hits\":"}) {
    const auto pos = stats.metrics_json.find(needle);
    if (pos != std::string::npos) {
      std::cout << "  " << stats.metrics_json.substr(
                       pos, stats.metrics_json.find_first_of(",}", pos) - pos)
                << "\n";
    }
  }
  server.stop();
  return 0;
}
