// adr_perfbench: the repository's serving benchmark.
//
//   adr_perfbench --workload <cold_scan|hot_overlap|write_mix> --seed <n>
//                 --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// One process runs 4 closed-loop clients against in-process AdrServer
// (and, for hot_overlap, AdrRouter) instances on a file-backed 4-node
// farm built from the seed.  Every result is checked against an
// independent oracle after the timed phase.  --trace 0 measures the
// end-to-end metrics; --trace 1 measures the per-layer metrics by
// timing the benchmark's own calls into each module and writes a
// Chrome trace_event span file into --out-dir.  The last line of
// standard output is one JSON object; the exit code is 1 on any wrong
// result and 2 on a harness error.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <latch>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/logging.hpp"
#include "core/frontend.hpp"
#include "core/planner/planner.hpp"
#include "net/client.hpp"
#include "net/router.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "oracle.hpp"
#include "quantile.hpp"
#include "spans.hpp"
#include "storage/disk_store.hpp"
#include "timed_layers.hpp"
#include "workload.hpp"

namespace pb = perfbench;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

/// The untraced run measures this many independent worlds, each set up
/// from scratch and timed for seconds / kWorlds.  Every end-to-end
/// metric is the median over worlds, so neither one world's state (its
/// threads' placement, its page-cache write-back) nor one burst of
/// interference on a shared machine decides the result.
constexpr int kWorlds = 5;
/// Program tracer ring size for the traced phase (events, ~48 B each);
/// the ring keeps the latest events.
constexpr std::size_t kTracerCapacity = 1 << 17;
/// Client round trips logged as spans, per client and phase, so the
/// fast workloads' clients leave room in the span log for the layers.
constexpr std::uint64_t kSpannedQueriesPerClient = 8192;
/// Bounds on the traced run's in-process replays.
constexpr std::size_t kMaxReplayQueries = 2000;
constexpr std::size_t kMaxStoreGets = 20000;
constexpr std::size_t kMaxStorePuts = 2000;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path out_dir = ".bench_build/out";
};

Options parse_options(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      o.trace = value == "1";
    } else if (flag == "--out-dir") {
      o.out_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(o.seconds > 0.0 && o.seconds <= 120.0)) {
    throw std::invalid_argument("--seconds must be in (0, 120]");
  }
  return o;
}

// ------------------------------------------------------------------ world

/// One set-up: farms, repositories, servers and (for routed workloads)
/// the router.  Destruction stops serving and deletes the farms.
class World {
 public:
  struct Backend {
    fs::path dir;
    std::unique_ptr<adr::Repository> repo;
    std::unique_ptr<adr::net::AdrServer> server;
  };

  World(const pb::Workload& wl, const fs::path& dir_base,
        std::vector<std::vector<adr::Chunk>> inputs, bool timed_layers) {
    for (int b = 0; b < wl.backends; ++b) {
      Backend be;
      be.dir = dir_base / ("backend" + std::to_string(b));
      fs::remove_all(be.dir);
      fs::create_directories(be.dir);
      adr::RepositoryConfig cfg;
      cfg.num_nodes = pb::kNodes;
      cfg.storage_dir = be.dir;
      if (wl.chunk_cache_bytes_per_node) {
        cfg.chunk_cache_bytes_per_node = *wl.chunk_cache_bytes_per_node;
      }
      if (wl.memory_per_node) cfg.memory_per_node = *wl.memory_per_node;
      if (wl.marginal_cache_bytes) cfg.marginal_cache_bytes = *wl.marginal_cache_bytes;
      if (timed_layers) cfg.index = "timed-rtree";
      be.repo = std::make_unique<adr::Repository>(cfg, runtime());
      if (timed_layers) install_timed_layers(*be.repo);
      ids_.input = be.repo->create_dataset("input", adr::Rect::cube(2, 0.0, 1.0),
                                           std::move(inputs[static_cast<std::size_t>(b)]));
      ids_.read_out = be.repo->create_dataset("read_out", adr::Rect::cube(2, 0.0, 1.0),
                                              pb::make_output_chunks(wl.read_out_n));
      ids_.write_out.clear();
      for (int w = 0; w < wl.writers; ++w) {
        ids_.write_out.push_back(be.repo->create_dataset(
            "write_out_" + std::to_string(w), adr::Rect::cube(2, 0.0, 1.0),
            pb::make_output_chunks(wl.write_out_n)));
      }
      be.server = std::make_unique<adr::net::AdrServer>(*be.repo, 0, adr::ComputeCosts{},
                                                        runtime());
      be.server->start();
      backends_.push_back(std::move(be));
    }
    if (wl.routed) router_ = start_router();
  }

  ~World() {
    stop_serving();
    for (const Backend& be : backends_) {
      std::error_code ec;
      fs::remove_all(be.dir, ec);
    }
  }

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// The RuntimeConfig every workload uses: all defaults.
  static adr::RuntimeConfig runtime() { return adr::RuntimeConfig{}; }

  /// A router fronting every backend, replicating each dataset over all
  /// of them (RouterConfig defaults otherwise).
  std::unique_ptr<adr::net::AdrRouter> start_router() const {
    adr::net::RouterConfig rc;
    for (const Backend& be : backends_) rc.backend_ports.push_back(be.server->port());
    rc.replication = static_cast<int>(backends_.size());
    auto router = std::make_unique<adr::net::AdrRouter>(rc, 0);
    router->start();
    return router;
  }

  /// Stops the router and servers and releases the repositories (the
  /// farms stay on disk until destruction).
  void stop_serving() {
    if (router_) router_->stop();
    router_.reset();
    for (Backend& be : backends_) {
      if (be.server) be.server->stop();
      be.server.reset();
      be.repo.reset();
    }
  }

  struct Ids {
    std::uint32_t input = 0;
    std::uint32_t read_out = 0;
    std::vector<std::uint32_t> write_out;
  };

  const Ids& ids() const { return ids_; }
  std::vector<Backend>& backends() { return backends_; }
  adr::Repository& repo(int b = 0) { return *backends_[static_cast<std::size_t>(b)].repo; }
  std::uint16_t backend_port(int b) const {
    return backends_[static_cast<std::size_t>(b)].server->port();
  }
  /// Where clients send: the router when routed, else backend 0.
  std::uint16_t entry_port() const { return router_ ? router_->port() : backend_port(0); }

  std::uint64_t farm_bytes() const {
    std::uint64_t total = 0;
    for (const Backend& be : backends_) {
      for (const auto& e : fs::recursive_directory_iterator(be.dir)) {
        if (e.is_regular_file()) total += e.file_size();
      }
    }
    return total;
  }

  std::uint64_t live_payload_bytes() {
    std::uint64_t total = 0;
    for (Backend& be : backends_) {
      adr::ChunkStore& store = be.repo->store();
      for (int d = 0; d < store.num_disks(); ++d) total += store.bytes_on_disk(d);
    }
    return total;
  }

 private:
  static void install_timed_layers(adr::Repository& repo) {
    repo.aggregations().register_op(std::make_shared<pb::TimedAggregation>(
        repo.aggregations().find_shared("sum-count-max")));
    const adr::IndexRegistry& registry = repo.indices();
    repo.indices().register_index("timed-rtree", [&registry] {
      return std::make_unique<pb::TimedIndex>(registry.create("rtree"));
    });
  }

  Ids ids_;
  std::vector<Backend> backends_;
  std::unique_ptr<adr::net::AdrRouter> router_;
};

// ----------------------------------------------------------- client phase

/// One query's outcome.  Kept small (the hot workload completes ~10^5
/// queries per client): the query itself is not stored, because every
/// client's draws are regenerated from its seeded plan for checking.
struct Record {
  float rtt_ms = 0.0f;
  /// WireResult::total_s: the executor's wall time for the query.
  float server_ms = 0.0f;
  /// Scheduler queue wait (QueryCostLedger::queue_wait_s), when the
  /// client submits straight to a QuerySubmissionService.
  float queue_ms = 0.0f;
  /// Digest of the delivered outputs (reads).
  std::uint64_t digest = 0;
  std::uint16_t tiles = 0;
  adr::StatusCode code = adr::StatusCode::kOk;
  bool transport_error = false;
  bool routed = false;
  bool ok() const { return !transport_error && code == adr::StatusCode::kOk; }
};

/// A client's connection target; query k goes to paths[k % paths.size()].
struct Path {
  std::uint16_t port = 0;
  bool routed = false;
};

struct ClientPlan {
  std::vector<Path> paths;
  std::function<std::optional<pb::Draw>()> next;
};

/// Builds the same client plans every time it is called, so a phase's
/// draws can be regenerated after it ran.
using PlanFactory = std::function<std::vector<ClientPlan>()>;

struct PhaseResult {
  std::vector<std::vector<Record>> per_client;
  double wall_s = 0.0;
  double cpu_s = 0.0;

  std::size_t attempted() const {
    std::size_t n = 0;
    for (const auto& c : per_client) n += c.size();
    return n;
  }
  std::size_t ok() const {
    std::size_t n = 0;
    for (const auto& c : per_client) {
      for (const Record& r : c) n += r.ok() ? 1 : 0;
    }
    return n;
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& c : per_client) {
      for (const Record& r : c) fn(r);
    }
  }
  /// Calls fn(record, draw) for every record, regenerating the draws.
  template <typename Fn>
  void for_each_draw(const PlanFactory& factory, Fn&& fn) const {
    std::vector<ClientPlan> plans = factory();
    for (std::size_t c = 0; c < per_client.size(); ++c) {
      for (const Record& r : per_client[c]) fn(r, *plans[c].next());
    }
  }
};

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) { return static_cast<double>(t.tv_sec) + t.tv_usec * 1e-6; };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

adr::Query make_query(const World::Ids& ids, const pb::Draw& d) {
  adr::Query q;
  q.input_dataset = ids.input;
  q.output_dataset = d.write ? ids.write_out[static_cast<std::size_t>(d.writer)] : ids.read_out;
  q.range = d.window.rect();
  q.aggregation = "sum-count-max";
  q.strategy = adr::StrategyKind::kFRA;
  q.delivery = d.write ? adr::OutputDelivery::kWriteBack : adr::OutputDelivery::kReturnToClient;
  return q;
}

/// Runs one closed-loop client per plan until each plan runs dry or
/// `seconds` elapse.  Clients submit over TCP along their plan's paths,
/// or, when `scheduler` is given, straight into it (enqueue + take),
/// without the network.  Connections are made before the clock starts.
PhaseResult run_phase(const World::Ids& ids, const PlanFactory& factory, double seconds,
                      adr::QuerySubmissionService* scheduler = nullptr) {
  std::vector<ClientPlan> plans = factory();
  const std::size_t n = plans.size();
  PhaseResult result;
  result.per_client.resize(n);
  std::latch connected(static_cast<std::ptrdiff_t>(n));
  std::latch go(1);
  Clock::time_point deadline{};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      ClientPlan& plan = plans[c];
      std::vector<Record>& out = result.per_client[c];
      std::vector<std::unique_ptr<adr::net::AdrClient>> conns(plan.paths.size());
      auto connect = [&](std::size_t i) {
        conns[i] = std::make_unique<adr::net::AdrClient>(plan.paths[i].port);
      };
      for (std::size_t i = 0; i < conns.size(); ++i) connect(i);
      connected.count_down();
      go.wait();
      for (std::uint64_t k = 0; Clock::now() < deadline; ++k) {
        std::optional<pb::Draw> draw = plan.next();
        if (!draw) break;
        Record rec;
        const adr::Query q = make_query(ids, *draw);
        if (scheduler != nullptr) {
          const auto t0 = Clock::now();
          adr::QuerySubmissionService::Outcome o = scheduler->take(scheduler->enqueue(q, {}, c + 1));
          rec.rtt_ms = static_cast<float>(
              std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
          rec.code = o.status.code;
          if (o.ok()) {
            rec.queue_ms = static_cast<float>(o.result.cost.queue_wait_s * 1e3);
            rec.server_ms = static_cast<float>(o.result.stats.total_s * 1e3);
            rec.tiles = static_cast<std::uint16_t>(o.result.tiles);
            if (!draw->write) rec.digest = pb::digest(pb::decode_outputs(o.result.outputs));
          }
          out.push_back(rec);
          continue;
        }
        const std::size_t p = k % plan.paths.size();
        rec.routed = plan.paths[p].routed;
        const std::uint64_t qid = (static_cast<std::uint64_t>(c + 1) << 40) | k;
        std::optional<adr::net::WireResult> r;
        {
          std::optional<pb::SpanLog::Scope> span;
          if (k < kSpannedQueriesPerClient) {
            span.emplace(pb::spans(), rec.routed ? "client.submit.routed" : "client.submit", qid);
          }
          const auto t0 = Clock::now();
          try {
            r = conns[p]->submit(q);
          } catch (const std::exception&) {
            rec.transport_error = true;
          }
          rec.rtt_ms = static_cast<float>(
              std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
        }
        if (r) {
          rec.code = r->status.code;
          rec.server_ms = static_cast<float>(r->total_s * 1e3);
          rec.tiles = static_cast<std::uint16_t>(r->tiles);
          if (r->ok() && !draw->write) rec.digest = pb::digest(pb::decode_outputs(r->outputs));
        }
        out.push_back(rec);
        if (!rec.ok() && (rec.transport_error || !conns[p]->connected())) {
          try {
            connect(p);
          } catch (const std::exception&) {
            break;
          }
        }
      }
    });
  }
  connected.wait();
  const double cpu0 = process_cpu_s();
  const auto start = Clock::now();
  deadline =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  go.count_down();
  for (std::thread& t : threads) t.join();
  result.wall_s = seconds_since(start);
  result.cpu_s = process_cpu_s() - cpu0;
  return result;
}

// ------------------------------------------------------------ verification

/// Checks every delivered result against the oracle and keeps, per
/// writer dataset, the triple each output chunk must hold after the
/// writes applied so far (in each writer's completion order).
class Verifier {
 public:
  Verifier(const pb::Workload& wl, const pb::GridOracle& oracle,
           const std::vector<pb::Window>& hot)
      : wl_(wl), oracle_(oracle) {
    for (const pb::Window& w : hot) hot_digests_.push_back(pb::digest(oracle.expected(w, wl.read_out_n)));
    ledgers_.assign(static_cast<std::size_t>(wl.writers),
                    std::vector<pb::Scm>(static_cast<std::size_t>(wl.write_out_n) *
                                         static_cast<std::size_t>(wl.write_out_n)));
    tainted_.assign(static_cast<std::size_t>(wl.writers), false);
  }

  /// Verifies a read's digest, or applies a write to its ledger.
  /// Returns false for a wrong read.
  bool check(const pb::Draw& d, bool ok, std::uint64_t delivered_digest) {
    if (d.write) {
      const auto w = static_cast<std::size_t>(d.writer);
      if (!ok) {
        tainted_[w] = true;  // a failed write-back may have landed partly
        return true;
      }
      for (const auto& [index, scm] : oracle_.expected(d.window, wl_.write_out_n)) {
        ledgers_[w][index] = scm;
        written_payload_bytes_ += sizeof(pb::Scm);
      }
      return true;
    }
    if (!ok) return true;
    const std::uint64_t want = d.hot_id >= 0
                                   ? hot_digests_[static_cast<std::size_t>(d.hot_id)]
                                   : pb::digest(oracle_.expected(d.window, wl_.read_out_n));
    return want == delivered_digest;
  }

  /// Checks a phase (its draws regenerated by `factory`); returns the
  /// wrong results among its records.
  std::size_t check_phase(const PhaseResult& phase, const PlanFactory& factory) {
    std::size_t wrong = 0;
    phase.for_each_draw(factory, [&](const Record& r, const pb::Draw& d) {
      wrong += check(d, r.ok(), r.digest) ? 0 : 1;
    });
    return wrong;
  }

  /// Reads every writer dataset back and compares it with its ledger;
  /// returns the mismatching chunks.
  std::size_t read_back(World& world) {
    std::size_t wrong = 0;
    for (std::size_t w = 0; w < ledgers_.size(); ++w) {
      if (tainted_[w]) continue;
      for (std::uint32_t i = 0; i < ledgers_[w].size(); ++i) {
        std::optional<adr::Chunk> c = world.repo().read_chunk(world.ids().write_out[w], i);
        const pb::Expected got =
            c ? pb::decode_outputs({*c}) : pb::Expected{{i, pb::Scm{~0ull, ~0ull, ~0ull}}};
        if (got.size() != 1 || !(got[0].second == ledgers_[w][i])) ++wrong;
      }
    }
    return wrong;
  }

  std::uint64_t written_payload_bytes() const { return written_payload_bytes_; }

 private:
  const pb::Workload& wl_;
  const pb::GridOracle& oracle_;
  std::vector<std::uint64_t> hot_digests_;
  std::vector<std::vector<pb::Scm>> ledgers_;
  std::vector<bool> tainted_;
  std::uint64_t written_payload_bytes_ = 0;
};

// ------------------------------------------------------------------ report

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // human-readable context (sample counts)
};

std::string timing_note(const pb::Distribution& d, bool tail) {
  std::ostringstream os;
  os << "n=" << d.n;
  if (tail) {
    os << ", " << d.beyond_p99 << " beyond";
    if (d.beyond_p99 < 10) os << " (UNRESOLVED: fewer than 10 samples beyond p99)";
  }
  return os.str();
}

void print_report(const std::string& title, const std::vector<Metric>& metrics) {
  std::cout << title << "\n";
  for (const Metric& m : metrics) {
    char line[256];
    std::snprintf(line, sizeof line, "  %-34s %14.6g %-10s", m.name.c_str(), m.value,
                  m.unit.c_str());
    std::cout << line << (m.note.empty() ? "" : "  " + m.note) << "\n";
  }
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

void print_json(bool correct, std::size_t attempted, std::size_t failed,
                const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
       << json_number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

void warn(const std::string& workload, const std::string& message) {
  std::cout << "WARNING [" << workload << "]: " << message << "\n";
}

// ---------------------------------------------------------- layer counters

/// Cumulative server-side counters read through public stats calls and
/// the obs::metrics() registry; deltas of two snapshots bracket a phase.
struct ServerCounters {
  adr::ChunkCacheStats cache;
  adr::MarginalCacheStats marginal;
  std::uint64_t executors_created = 0;
  std::uint64_t farm_bytes = 0;
  std::map<std::string, std::uint64_t> registry;

  static constexpr const char* kRegistryNames[] = {
      "scheduler.completed", "scheduler.shed",   "batch.members", "batch.shared_hits",
      "batch.cold_reads",    "router.failovers", "router.retries"};

  static ServerCounters read(World& world) {
    ServerCounters s;
    for (World::Backend& be : world.backends()) {
      const adr::ChunkCacheStats c = be.repo->chunk_cache_stats();
      s.cache.hits += c.hits;
      s.cache.misses += c.misses;
      s.cache.evictions += c.evictions;
      const adr::MarginalCacheStats m = be.repo->marginal_cache_stats();
      s.marginal.hits += m.hits;
      s.marginal.misses += m.misses;
      s.marginal.invalidations += m.invalidations;
      s.executors_created += be.repo->executor_pool_stats().created;
    }
    s.farm_bytes = world.farm_bytes();
    const adr::obs::MetricsSnapshot snap = adr::obs::metrics().snapshot();
    for (const char* name : kRegistryNames) {
      const std::uint64_t* v = snap.counter(name);
      s.registry[name] = v ? *v : 0;
    }
    return s;
  }

  /// Accumulates the fields self_report reads.
  void add(const ServerCounters& d) {
    cache.hits += d.cache.hits;
    cache.misses += d.cache.misses;
    marginal.hits += d.marginal.hits;
    marginal.misses += d.marginal.misses;
  }

  /// this - earlier, field by field.
  ServerCounters minus(const ServerCounters& e) const {
    ServerCounters d;
    d.cache.hits = cache.hits - e.cache.hits;
    d.cache.misses = cache.misses - e.cache.misses;
    d.cache.evictions = cache.evictions - e.cache.evictions;
    d.marginal.hits = marginal.hits - e.marginal.hits;
    d.marginal.misses = marginal.misses - e.marginal.misses;
    d.marginal.invalidations = marginal.invalidations - e.marginal.invalidations;
    d.executors_created = executors_created - e.executors_created;
    d.farm_bytes = farm_bytes - e.farm_bytes;
    for (const auto& [k, v] : registry) d.registry[k] = v - e.registry.at(k);
    return d;
  }

  double cache_hit_ratio() const {
    return ratio(static_cast<double>(cache.hits), static_cast<double>(cache.hits + cache.misses));
  }
  double marginal_hit_ratio() const {
    return ratio(static_cast<double>(marginal.hits),
                 static_cast<double>(marginal.hits + marginal.misses));
  }
};

// ------------------------------------------------------------- the runner

class Bench {
 public:
  Bench(const pb::Workload& wl, const Options& opt)
      : wl_(wl),
        opt_(opt),
        oracle_(wl.grid_n, opt.seed),
        inputs_(oracle_.make_input_chunks()),
        hot_(pb::hot_window_set(wl, opt.seed)),
        farm_base_(opt.out_dir / ("farm-" + std::string(wl.name) + "-" +
                                  std::to_string(::getpid()))) {}

  ~Bench() {
    world_.reset();
    std::error_code ec;
    fs::remove_all(farm_base_, ec);
  }

  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  int run() {
    print_header();
    return opt_.trace ? run_traced() : run_untraced();
  }

 private:
  void print_header() const {
    std::cout << "workload " << wl_.name << "  seed " << opt_.seed << "  seconds "
              << opt_.seconds << "  trace " << (opt_.trace ? 1 : 0) << "\n"
              << "  input " << wl_.grid_n << "x" << wl_.grid_n << " chunks x 8 KiB ("
              << static_cast<double>(wl_.grid_n) * wl_.grid_n * 8 / 1024 << " MiB) per farm, "
              << wl_.backends << " farm(s) of " << pb::kNodes << " nodes, " << pb::kClients
              << " closed-loop clients" << (wl_.routed ? " via AdrRouter" : " direct") << "\n";
    adr::RepositoryConfig defaults;
    std::cout << "  RepositoryConfig: num_nodes=" << pb::kNodes << " storage_dir=<farm>"
              << " chunk_cache_bytes_per_node="
              << wl_.chunk_cache_bytes_per_node.value_or(defaults.chunk_cache_bytes_per_node)
              << " memory_per_node=" << wl_.memory_per_node.value_or(defaults.memory_per_node)
              << " marginal_cache_bytes="
              << wl_.marginal_cache_bytes.value_or(defaults.marginal_cache_bytes)
              << " (others default); RuntimeConfig: defaults\n";
  }

  /// Client plans: `next` draws from each client's seeded stream, or
  /// from a finite list when `fixed` is given.
  PlanFactory factory(std::uint64_t tag, std::vector<std::vector<Path>> paths,
                      std::shared_ptr<const std::vector<std::vector<pb::Draw>>> fixed = {}) const {
    return [this, tag, paths, fixed] {
      std::vector<ClientPlan> out;
      for (int c = 0; c < pb::kClients; ++c) {
        ClientPlan p;
        p.paths = paths[static_cast<std::size_t>(c)];
        if (fixed) {
          auto pos = std::make_shared<std::size_t>(0);
          p.next = [fixed, pos, c]() -> std::optional<pb::Draw> {
            const auto& list = (*fixed)[static_cast<std::size_t>(c)];
            if (*pos >= list.size()) return std::nullopt;
            return list[(*pos)++];
          };
        } else {
          auto script = std::make_shared<pb::ClientScript>(wl_, hot_, opt_.seed, c, tag);
          p.next = [script]() -> std::optional<pb::Draw> { return script->next(); };
        }
        out.push_back(std::move(p));
      }
      return out;
    };
  }

  std::vector<std::vector<Path>> entry_paths() const {
    return std::vector<std::vector<Path>>(pb::kClients,
                                          {Path{world_->entry_port(), wl_.routed}});
  }

  /// Sets up a fresh world and warms it up (the set-up time), then
  /// checks the warm-up's results.  Returns the set-up seconds.
  double build_world() {
    if (world_) finish_world();
    std::vector<std::vector<adr::Chunk>> copies(static_cast<std::size_t>(wl_.backends), inputs_);
    const auto t0 = Clock::now();
    world_ = std::make_unique<World>(wl_, farm_base_, std::move(copies), opt_.trace);
    const PlanFactory warm_plans = warm_up_plans();
    const PhaseResult warm = run_phase(world_->ids(), warm_plans, 1e9);
    const double setup_s = seconds_since(t0);
    verifier_ = std::make_unique<Verifier>(wl_, oracle_, hot_);
    account(warm, warm_plans);
    return setup_s;
  }

  /// Checks a phase's results (outside its timing) and counts them.
  void account(const PhaseResult& phase, const PlanFactory& plans) {
    const std::size_t wrong = verifier_->check_phase(phase, plans);
    wrong_ += wrong;
    attempted_ += phase.attempted();
    failed_ += phase.attempted() - phase.ok() + wrong;
  }

  PlanFactory warm_up_plans() const {
    auto fixed = std::make_shared<std::vector<std::vector<pb::Draw>>>();
    std::vector<std::vector<Path>> paths;
    for (int c = 0; c < pb::kClients; ++c) {
      fixed->push_back(pb::warm_up_draws(wl_, hot_, opt_.seed, c));
      // hot_overlap warms each backend directly so every one of them
      // holds every hot window's partials.
      const bool direct = wl_.hot_windows > 0 && c < wl_.backends;
      paths.push_back({Path{direct ? world_->backend_port(c) : world_->entry_port(),
                            wl_.routed && !direct}});
    }
    return factory(pb::kWarmUpTag, paths, fixed);
  }

  /// Reads the writer datasets back, then tears the world down.
  void finish_world() {
    account_read_back();
    world_.reset();
  }

  /// Reads the writer datasets back against the ledgers and counts
  /// every mismatching chunk as a failure.
  void account_read_back() {
    const std::size_t wrong = verifier_->read_back(*world_);
    wrong_ += wrong;
    failed_ += wrong;
  }

  // -------------------------------------------------------- --trace 0

  int run_untraced() {
    const double world_s = opt_.seconds / kWorlds;
    std::vector<double> setup_s, qps, p50, p99, cpu_ms, space_amp;
    std::vector<double> write_ms, write_tiles;
    std::size_t min_n = std::numeric_limits<std::size_t>::max(),
                min_beyond = std::numeric_limits<std::size_t>::max();
    std::uint64_t grown = 0, write_payload = 0;
    ServerCounters deltas;
    for (int w = 0; w < kWorlds; ++w) {
      setup_s.push_back(build_world());
      // Space amplification after the set-up's fixed, seeded work (the
      // writers' warm-up sweep), so it does not scale with throughput.
      space_amp.push_back(ratio(static_cast<double>(world_->farm_bytes()),
                                static_cast<double>(world_->live_payload_bytes())));
      const PlanFactory plans = factory(pb::kTimedTag + 16 * static_cast<std::uint64_t>(w),
                                        entry_paths());
      const ServerCounters before = ServerCounters::read(*world_);
      const PhaseResult timed = run_phase(world_->ids(), plans, world_s);
      const ServerCounters delta = ServerCounters::read(*world_).minus(before);
      deltas.add(delta);
      grown += delta.farm_bytes;

      const std::uint64_t written0 = verifier_->written_payload_bytes();
      account(timed, plans);
      write_payload += verifier_->written_payload_bytes() - written0;

      std::vector<double> ms;
      timed.for_each_draw(plans, [&](const Record& r, const pb::Draw& d) {
        ms.push_back(r.rtt_ms);
        if (d.write) {
          write_ms.push_back(r.rtt_ms);
          if (r.ok()) write_tiles.push_back(r.tiles);
        }
      });
      const pb::Distribution d = pb::distribution(std::move(ms));
      min_n = std::min(min_n, d.n);
      min_beyond = std::min(min_beyond, d.beyond_p99);
      const auto ok = static_cast<double>(timed.ok());
      qps.push_back(ratio(ok, timed.wall_s));
      p50.push_back(d.p50);
      p99.push_back(d.p99);
      cpu_ms.push_back(ratio(timed.cpu_s * 1e3, ok));
      finish_world();
    }

    const pb::Distribution wlat = pb::distribution(write_ms);
    const std::string worlds = "median of " + std::to_string(kWorlds) + " worlds";
    const std::string per_world = worlds + ", >= " + std::to_string(min_n) + " samples and >= " +
                                  std::to_string(min_beyond) + " beyond p99 in each" +
                                  (min_beyond < 10 ? " (UNRESOLVED)" : "");
    std::vector<Metric> e2e = {
        {"qps", pb::median(qps), "queries/s", worlds},
        {"latency_p50_ms", pb::median(p50), "ms", per_world},
        {"latency_p99_ms", pb::median(p99), "ms", per_world},
        {"setup_s", pb::median(setup_s), "s", worlds},
        {"cpu_ms_per_query", pb::median(cpu_ms), "ms", worlds},
        {"peak_rss_mib", peak_rss_mib(), "MiB", "whole process"},
        {"space_amp", pb::median(space_amp), "ratio", worlds},
    };
    std::vector<Metric> extra = {
        {"failed_frac", ratio(static_cast<double>(failed_), static_cast<double>(attempted_)),
         "ratio", std::to_string(failed_) + " of " + std::to_string(attempted_) + ", warm-ups included"},
    };
    if (wl_.writers > 0) {
      extra.push_back({"write_p50_ms", wlat.p50, "ms", timing_note(wlat, false)});
      extra.push_back({"write_p99_ms", wlat.p99, "ms", timing_note(wlat, true)});
      extra.push_back({"write_amp", ratio(static_cast<double>(grown), static_cast<double>(write_payload)),
                       "ratio",
                       std::to_string(grown) + " B grown / " + std::to_string(write_payload) +
                           " B written"});
    }
    print_report("end-to-end (untraced):", e2e);
    std::cout << "  per world (qps / p50 ms / p99 ms / setup s):";
    for (std::size_t k = 0; k < qps.size(); ++k) {
      std::cout << "  " << json_number(qps[k]) << " / " << json_number(p50[k]) << " / "
                << json_number(p99[k]) << " / " << json_number(setup_s[k]);
    }
    std::cout << "\n";
    print_report("reported, not gated (see perfbench/README.md):", extra);
    self_report(deltas, attempted_, pb::median(write_tiles));

    const bool correct = wrong_ == 0;
    print_json(correct, attempted_, failed_, e2e);
    return correct ? 0 : 1;
  }

  /// Warnings when a workload stops exercising the layer it is for.
  void self_report(const ServerCounters& delta, std::size_t queries, double write_tiles) {
    const std::string name = wl_.name;
    if (name == "cold_scan" && delta.cache_hit_ratio() >= 0.5) {
      warn(name, "chunk_cache.hit_ratio " + json_number(delta.cache_hit_ratio()) +
                     " >= 0.5: the working set no longer exceeds the chunk cache");
    }
    if (name == "cold_scan" && delta.marginal_hit_ratio() >= 0.5) {
      warn(name, "marginal.hit_ratio " + json_number(delta.marginal_hit_ratio()) +
                     " >= 0.5: the marginal cache, not storage, serves the scan");
    }
    const double cold_reads = ratio(static_cast<double>(delta.cache.misses),
                                    static_cast<double>(queries));
    if (name == "hot_overlap" && cold_reads > 1.0) {
      warn(name, "store.cold_reads_per_query " + json_number(cold_reads) +
                     " > 1 after warm-up: the caches no longer hold the working set");
    }
    if (name == "write_mix" && write_tiles <= 1.0) {
      warn(name, "planner.tiles_per_query " + json_number(write_tiles) +
                     " <= 1: write-backs no longer run several tiles");
    }
  }

  // -------------------------------------------------------- --trace 1

  int run_traced();
  struct Replay;
  Replay replay_layers(double budget_s);
  std::vector<Metric> store_layer(const std::vector<adr::ChunkMeta>& gets,
                                  const std::vector<adr::ChunkMeta>& puts);

  const pb::Workload& wl_;
  const Options& opt_;
  pb::GridOracle oracle_;
  std::vector<adr::Chunk> inputs_;
  std::vector<pb::Window> hot_;
  fs::path farm_base_;
  std::unique_ptr<World> world_;
  std::unique_ptr<Verifier> verifier_;
  /// Queries sent, failed (error, refusal or wrong result) and wrong,
  /// over every phase of the run.
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::size_t wrong_ = 0;
};

/// Results of timing the program's layers directly on replayed queries.
struct Bench::Replay {
  std::size_t queries = 0;
  /// Queries that reached the executor (not finalized from cache).
  std::size_t executed = 0;
  std::vector<double> select_us, plan_us, submit_ms, exec_ms, executed_ms;
  double tiles = 0, ghosts = 0;
  double init_ms = 0, reduce_ms = 0, combine_ms = 0, output_ms = 0;
  double thread_cpu_s = 0, node_wall_s = 0;
  double msgs = 0, bytes_sent = 0, pairs = 0;
  std::vector<adr::ChunkMeta> read_chunks;
  std::vector<adr::ChunkMeta> written_chunks;
};

/// Direct timed calls to select_query_chunks, plan_query and
/// Repository::submit on a fresh draw of the workload's query streams
/// (the clients' streams interleaved), on backend 0 from one thread:
/// no network and no queue.
Bench::Replay Bench::replay_layers(double budget_s) {
  Replay rp;
  adr::Repository& repo = world_->repo();
  const adr::RepositoryConfig& cfg = repo.config();
  const adr::AggregationOp* op = repo.aggregations().find("sum-count-max");
  std::vector<pb::ClientScript> scripts;
  for (int c = 0; c < pb::kClients; ++c) scripts.emplace_back(wl_, hot_, opt_.seed, c, pb::kReplayTag);
  {
    // Rewrite one input chunk with its own bytes.  This bumps the input's
    // data version, so every cached marginal partial is recomputed once.
    // On hot_overlap, where the marginal cache serves everything else,
    // those recomputations are the executor runs the exec.* metrics see.
    const adr::ChunkMeta& meta = repo.dataset(world_->ids().input).chunk(0);
    std::optional<adr::Chunk> chunk = repo.store().get(meta.disk, meta.id);
    if (!chunk) throw std::runtime_error("replay: input chunk missing");
    repo.store().put(std::move(*chunk));
  }
  const auto t_start = Clock::now();
  while (rp.queries < kMaxReplayQueries && (rp.queries == 0 || seconds_since(t_start) < budget_s)) {
    const pb::Draw d = scripts[rp.queries % scripts.size()].next();
    const adr::Query q = make_query(world_->ids(), d);
    adr::PlanRequest req;
    req.input = &repo.dataset(q.input_dataset);
    req.output = &repo.dataset(q.output_dataset);
    req.range = q.range;
    req.op = op;
    req.num_nodes = cfg.num_nodes;
    req.disks_per_node = cfg.disks_per_node;
    req.memory_per_node = cfg.memory_per_node;
    req.strategy = q.strategy;
    req.order = q.tiling_order;
    req.seed = q.seed;

    pb::SpanLog::Scope root(pb::spans(), "replay.query", rp.queries + 1);
    adr::QuerySelection sel;
    {
      pb::SpanLog::Scope span(pb::spans(), "planner.select", rp.queries + 1);
      const auto t0 = Clock::now();
      sel = adr::select_query_chunks(req);
      rp.select_us.push_back(seconds_since(t0) * 1e6);
    }
    adr::PlannedQuery planned;
    {
      pb::SpanLog::Scope span(pb::spans(), "planner.plan", rp.queries + 1);
      const auto t0 = Clock::now();
      planned = adr::plan_query(req, std::move(sel));
      rp.plan_us.push_back(seconds_since(t0) * 1e6);
    }
    rp.tiles += planned.plan.num_tiles;
    rp.ghosts += static_cast<double>(planned.plan.total_ghost_chunks);
    for (std::uint32_t idx : planned.selected_inputs) {
      if (rp.read_chunks.size() < kMaxStoreGets) rp.read_chunks.push_back(req.input->chunk(idx));
    }
    for (std::uint32_t idx : planned.selected_outputs) {
      if (rp.written_chunks.size() < kMaxStorePuts) {
        rp.written_chunks.push_back(req.output->chunk(idx));
      }
    }

    adr::QueryResult r;
    {
      pb::SpanLog::Scope span(pb::spans(), "frontend.submit", rp.queries + 1);
      const auto t0 = Clock::now();
      r = repo.submit(q);
      rp.submit_ms.push_back(seconds_since(t0) * 1e3);
    }
    const std::uint64_t got = d.write ? 0 : pb::digest(pb::decode_outputs(r.outputs));
    const std::size_t wrong = verifier_->check(d, true, got) ? 0 : 1;
    wrong_ += wrong;
    failed_ += wrong;
    ++attempted_;

    ++rp.queries;
    const adr::ExecStats& st = r.stats;
    rp.exec_ms.push_back(st.total_s * 1e3);
    if (st.total_s <= 0.0) continue;
    ++rp.executed;
    rp.executed_ms.push_back(st.total_s * 1e3);
    rp.init_ms += st.phase_init_s * 1e3;
    rp.reduce_ms += st.phase_lr_s * 1e3;
    rp.combine_ms += st.phase_gc_s * 1e3;
    rp.output_ms += st.phase_oh_s * 1e3;
    rp.thread_cpu_s += st.thread_cpu_s;
    rp.node_wall_s += st.total_s * static_cast<double>(st.nodes.size());
    for (const adr::NodeStats& n : st.nodes) rp.msgs += static_cast<double>(n.msgs_sent);
    rp.bytes_sent += static_cast<double>(st.total_bytes_sent());
    rp.pairs += static_cast<double>(st.total_lr_pairs());
  }
  return rp;
}

/// Replays the chunk ids the replayed queries read (and the output
/// chunks they wrote) through a FileChunkStore reopened on backend 0's
/// farm after the servers are gone.
std::vector<Metric> Bench::store_layer(const std::vector<adr::ChunkMeta>& gets,
                                       const std::vector<adr::ChunkMeta>& puts) {
  adr::FileChunkStore store(world_->backends()[0].dir, pb::kNodes, /*open_existing=*/true);
  std::vector<double> get_us;
  std::uint64_t bytes = 0;
  const auto t1 = Clock::now();
  for (const adr::ChunkMeta& m : gets) {
    pb::SpanLog::Scope span(pb::spans(), "store.get");
    const auto t0 = Clock::now();
    std::optional<adr::Chunk> c = store.get(m.disk, m.id);
    get_us.push_back(seconds_since(t0) * 1e6);
    if (!c) throw std::runtime_error("store replay: chunk missing from the farm");
    bytes += c->payload().size();
  }
  const double wall_1t = seconds_since(t1);

  std::atomic<std::uint64_t> bytes_4t{0};
  const auto t4 = Clock::now();
  {
    std::vector<std::jthread> readers;
    for (int t = 0; t < 4; ++t) {
      readers.emplace_back([&, t] {
        std::uint64_t local = 0;
        for (std::size_t i = static_cast<std::size_t>(t); i < gets.size(); i += 4) {
          std::optional<adr::Chunk> c = store.get(gets[i].disk, gets[i].id);
          if (c) local += c->payload().size();
        }
        bytes_4t += local;
      });
    }
  }
  const double wall_4t = seconds_since(t4);

  std::vector<double> put_us;
  for (const adr::ChunkMeta& m : puts) {
    std::optional<adr::Chunk> c = store.get(m.disk, m.id);
    if (!c) throw std::runtime_error("store replay: output chunk missing from the farm");
    pb::SpanLog::Scope span(pb::spans(), "store.put");
    const auto t0 = Clock::now();
    store.put(std::move(*c));
    put_us.push_back(seconds_since(t0) * 1e6);
  }
  const pb::Distribution g = pb::distribution(get_us);
  const pb::Distribution p = pb::distribution(put_us);
  constexpr double kMiB = 1024.0 * 1024.0;
  return {
      {"store.get_p50_us", g.p50, "us", timing_note(g, false)},
      {"store.get_p99_us", g.p99, "us", timing_note(g, true)},
      {"store.read_mibps_1t", ratio(static_cast<double>(bytes) / kMiB, wall_1t), "MiB/s", ""},
      {"store.read_mibps_4t", ratio(static_cast<double>(bytes_4t.load()) / kMiB, wall_4t),
       "MiB/s", ""},
      {"store.put_p50_us", p.p50, "us", timing_note(p, false)},
  };
}

int Bench::run_traced() {
  const double s = opt_.seconds;
  build_world();
  pb::LayerCounters& layers = pb::layer_counters();

  // A1, B, A2: untraced slices on either side of the traced phase, so
  // drift over the run (caches filling) cancels in trace.overhead_frac.
  const PlanFactory a1_plans = factory(pb::kTimedTag, entry_paths());
  const PhaseResult a1 = run_phase(world_->ids(), a1_plans, 0.1 * s);

  // B: traced, same topology; spans, wrappers and the program tracer on.
  pb::spans().set_enabled(true);
  layers.reset();
  layers.on = true;
  const std::int64_t tracer_offset_us = pb::spans().now_ns() / 1000;
  adr::obs::tracer().enable(kTracerCapacity);
  const ServerCounters before = ServerCounters::read(*world_);
  const PlanFactory traced_plans = factory(pb::kTracedTag, entry_paths());
  const PhaseResult traced = run_phase(world_->ids(), traced_plans, 0.3 * s);
  const ServerCounters delta = ServerCounters::read(*world_).minus(before);
  const std::vector<adr::obs::TraceEvent> program = adr::obs::tracer().events();
  const std::uint64_t tracer_dropped = adr::obs::tracer().dropped();
  adr::obs::tracer().disable();
  const std::uint64_t agg_ns = layers.aggregate_ns, other_ns = layers.other_op_ns,
                      index_ns = layers.index_ns;
  layers.on = false;
  pb::spans().set_enabled(false);

  const PlanFactory a2_plans = factory(pb::kUntracedTag, entry_paths());
  const PhaseResult a2 = run_phase(world_->ids(), a2_plans, 0.1 * s);

  // B2: each client alternates routed and direct submits on one stream.
  pb::spans().set_enabled(true);
  std::unique_ptr<adr::net::AdrRouter> hop_router;
  if (!wl_.routed) hop_router = world_->start_router();
  std::vector<std::vector<Path>> hop_paths;
  for (int c = 0; c < pb::kClients; ++c) {
    const std::uint16_t routed = hop_router ? hop_router->port() : world_->entry_port();
    hop_paths.push_back({Path{routed, true}, Path{world_->backend_port(c % wl_.backends), false}});
  }
  const ServerCounters hop_before = ServerCounters::read(*world_);
  const PlanFactory hop_plans = factory(pb::kHopTag, hop_paths);
  const PhaseResult hop = run_phase(world_->ids(), hop_plans, 0.15 * s);
  const ServerCounters hop_delta = ServerCounters::read(*world_).minus(hop_before);
  if (hop_router) hop_router->stop();
  hop_router.reset();

  // Q: the same clients submitting straight into a scheduler over
  // backend 0's repository (default RuntimeConfig), for raw queue waits.
  const PlanFactory sched_plans = factory(pb::kSchedulerTag, entry_paths());
  PhaseResult sched;
  {
    adr::QuerySubmissionService scheduler(world_->repo(), World::runtime());
    scheduler.start(static_cast<int>(World::runtime().scheduler_workers));
    sched = run_phase(world_->ids(), sched_plans, 0.15 * s, &scheduler);
    scheduler.stop();
  }

  // Verification of the client phases, in the order they ran (writers'
  // ledgers depend on it), outside every timed phase.
  const std::pair<const PhaseResult*, const PlanFactory*> phases[] = {
      {&a1, &a1_plans}, {&traced, &traced_plans}, {&a2, &a2_plans}, {&hop, &hop_plans},
      {&sched, &sched_plans}};
  for (const auto& [phase, plans] : phases) account(*phase, *plans);

  // C: direct calls into the planner and the front end (checked inline).
  layers.on = true;
  const Replay rp = replay_layers(0.15 * s);
  layers.on = false;
  // The kernel's cost per KiB pools B and C: on hot_overlap only C's
  // recomputations reach the aggregation kernel.
  const double agg_ns_per_kib =
      ratio(static_cast<double>(layers.aggregate_ns), static_cast<double>(layers.aggregate_bytes) / 1024.0);
  account_read_back();

  // D: the storage layer, after the servers release the farm.
  world_->stop_serving();
  std::vector<Metric> store = store_layer(rp.read_chunks, rp.written_chunks);
  pb::spans().set_enabled(false);

  // Derived per-layer metrics.
  const double q_traced = static_cast<double>(traced.ok());
  std::vector<double> overhead_ms, routed_ms, direct_ms;
  traced.for_each([&](const Record& r) {
    if (r.ok()) overhead_ms.push_back(r.rtt_ms - r.server_ms);
  });
  hop.for_each([&](const Record& r) {
    if (r.ok()) (r.routed ? routed_ms : direct_ms).push_back(r.rtt_ms);
  });
  std::vector<double> queue_wait_ms;
  sched.for_each([&](const Record& r) {
    if (r.ok()) queue_wait_ms.push_back(r.queue_ms);
  });
  const pb::Distribution qw = pb::distribution(queue_wait_ms);
  const pb::Distribution ov = pb::distribution(overhead_ms);
  const double select_med = pb::median(rp.select_us), plan_med = pb::median(rp.plan_us);
  const double submit_med = pb::median(rp.submit_ms), exec_med = pb::median(rp.exec_ms);
  const double nq = static_cast<double>(std::max<std::size_t>(rp.queries, 1));
  const double nx = static_cast<double>(std::max<std::size_t>(rp.executed, 1));
  const std::string per_executed = "per executed query, n=" + std::to_string(rp.executed);
  const auto& reg = delta.registry;
  const auto regd = [&reg](const char* k) { return static_cast<double>(reg.at(k)); };
  const double qps_u =
      ratio(static_cast<double>(a1.ok() + a2.ok()), a1.wall_s + a2.wall_s);
  const double qps_t = ratio(q_traced, traced.wall_s);
  const double router_failovers =
      static_cast<double>(delta.registry.at("router.failovers") + hop_delta.registry.at("router.failovers"));
  const double router_retries =
      static_cast<double>(delta.registry.at("router.retries") + hop_delta.registry.at("router.retries"));

  std::vector<Metric> layer = {
      {"net.serve_overhead_p50_ms", ov.p50, "ms", timing_note(ov, false)},
      {"router.hop_p50_ms", pb::median(routed_ms) - pb::median(direct_ms), "ms",
       "routed n=" + std::to_string(routed_ms.size()) + ", direct n=" +
           std::to_string(direct_ms.size())},
      {"router.failovers", router_failovers, "count", ""},
      {"router.retries", router_retries, "count", ""},
      {"scheduler.queue_wait_p50_ms", qw.p50, "ms", timing_note(qw, false)},
      {"scheduler.queue_wait_p99_ms", qw.p99, "ms", timing_note(qw, true)},
      {"scheduler.gang_frac", ratio(regd("batch.members"), regd("scheduler.completed")), "ratio", ""},
      {"gang.shared_hit_ratio",
       ratio(regd("batch.shared_hits"), regd("batch.shared_hits") + regd("batch.cold_reads")),
       "ratio", ""},
      {"scheduler.shed", regd("scheduler.shed"), "count", ""},
      {"executor_pool.fresh_per_query", ratio(static_cast<double>(delta.executors_created), q_traced),
       "ratio", ""},
      {"frontend.submit_p50_ms", submit_med, "ms", "n=" + std::to_string(rp.submit_ms.size())},
      {"frontend.unattributed_frac",
       submit_med > 0 ? 1.0 - (select_med * 1e-3 + plan_med * 1e-3 + exec_med) / submit_med : 0.0,
       "ratio", ""},
      {"planner.select_p50_us", select_med, "us", "n=" + std::to_string(rp.select_us.size())},
      {"planner.plan_p50_us", plan_med, "us", "n=" + std::to_string(rp.plan_us.size())},
      {"planner.tiles_per_query", rp.tiles / nq, "count", ""},
      {"planner.ghosts_per_query", rp.ghosts / nq, "count", ""},
      {"index.query_us_per_query", ratio(static_cast<double>(index_ns) * 1e-3, q_traced), "us", ""},
      {"exec.wall_p50_ms", pb::median(rp.executed_ms), "ms", per_executed},
      {"exec.init_ms", rp.init_ms / nx, "ms", per_executed},
      {"exec.reduce_ms", rp.reduce_ms / nx, "ms", per_executed},
      {"exec.combine_ms", rp.combine_ms / nx, "ms", per_executed},
      {"exec.output_ms", rp.output_ms / nx, "ms", per_executed},
      {"exec.cpu_util", ratio(rp.thread_cpu_s, rp.node_wall_s), "ratio", per_executed},
      {"exec.msgs_per_query", rp.msgs / nx, "count", per_executed},
      {"exec.bytes_sent_per_query", rp.bytes_sent / nx, "B", per_executed},
      {"exec.pairs_per_query", rp.pairs / nx, "count", per_executed},
      {"agg.aggregate_ns_per_kib", agg_ns_per_kib, "ns/KiB", "phases B and C"},
      {"agg.busy_ms_per_query", ratio(static_cast<double>(agg_ns + other_ns) * 1e-6, q_traced), "ms", ""},
  };
  layer.insert(layer.end(), store.begin(), store.end());
  layer.push_back({"store.bytes_written_per_query", ratio(static_cast<double>(delta.farm_bytes), q_traced),
                   "B", ""});
  layer.push_back({"store.cold_reads_per_query", ratio(static_cast<double>(delta.cache.misses), q_traced),
                   "count", ""});
  layer.push_back({"chunk_cache.hit_ratio", delta.cache_hit_ratio(), "ratio", ""});
  layer.push_back({"chunk_cache.evictions_per_query",
                   ratio(static_cast<double>(delta.cache.evictions), q_traced), "count", ""});
  layer.push_back({"marginal.hit_ratio", delta.marginal_hit_ratio(), "ratio", ""});
  layer.push_back({"marginal.invalidations", static_cast<double>(delta.marginal.invalidations), "count", ""});
  layer.push_back({"trace.overhead_frac", qps_u > 0 ? 1.0 - qps_t / qps_u : 0.0, "ratio",
                   "untraced " + json_number(qps_u) + " qps, traced " + json_number(qps_t) + " qps"});

  // Span file.
  fs::create_directories(opt_.out_dir);
  const fs::path trace_path =
      opt_.out_dir / ("trace-" + std::string(wl_.name) + "-seed" + std::to_string(opt_.seed) + ".json");
  {
    std::ofstream os(trace_path);
    pb::spans().write_chrome_json(os, program, tracer_offset_us);
    if (!os) throw std::runtime_error("cannot write " + trace_path.string());
  }

  print_report("per-layer (traced):", layer);
  std::cout << "span file: " << trace_path.string() << " (" << pb::spans().spans().size()
            << " spans kept, " << pb::spans().dropped() << " dropped; " << program.size()
            << " program tracer events kept, " << tracer_dropped << " dropped)\n";
  std::vector<double> write_tiles;
  traced.for_each_draw(traced_plans, [&](const Record& r, const pb::Draw& d) {
    if (d.write && r.ok()) write_tiles.push_back(r.tiles);
  });
  self_report(delta, traced.ok(), pb::median(write_tiles));

  const bool correct = wrong_ == 0;
  print_json(correct, attempted_, failed_, layer);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  adr::set_log_level(adr::LogLevel::kWarn);
  try {
    const Options opt = parse_options(argc, argv);
    const pb::Workload* wl = pb::find_workload(opt.workload);
    if (wl == nullptr) throw std::invalid_argument("unknown workload " + opt.workload);
    fs::create_directories(opt.out_dir);
    Bench bench(*wl, opt);
    return bench.run();
  } catch (const std::exception& e) {
    std::cerr << "adr_perfbench: " << e.what() << "\n";
    return 2;
  }
}
