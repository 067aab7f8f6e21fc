// Concurrent front-of-house tests: many threads through one Repository,
// the QuerySubmissionService worker pool, and many simultaneous socket
// clients against one AdrServer.  Every concurrent result is compared
// byte-for-byte against the serial baseline — the built-in aggregations
// use exact integer arithmetic, so any divergence is a real race.
//
// The ConcurrentSubmit / SubmissionPool / NodeRuntime suites are
// ThreadSanitizer targets (see .github/workflows/ci.yml).
#include <gtest/gtest.h>

#include <time.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <future>
#include <latch>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/frontend.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "runtime/node_runtime.hpp"
#include "runtime/thread_executor.hpp"
#include "test_helpers.hpp"

namespace adr {
namespace {

RepositoryConfig thread_config(int nodes) {
  RepositoryConfig cfg;
  cfg.backend = RepositoryConfig::Backend::kThreads;
  cfg.num_nodes = nodes;
  cfg.memory_per_node = 1 << 20;
  return cfg;
}

std::vector<Chunk> grid_inputs(int n_side, int values_per_chunk) {
  std::vector<Chunk> chunks;
  const Rect domain = Rect::cube(2, 0.0, 1.0);
  std::uint64_t idx = 0;
  for (int iy = 0; iy < n_side; ++iy) {
    for (int ix = 0; ix < n_side; ++ix) {
      ChunkMeta meta;
      meta.mbr = testing::cell(domain, n_side, ix, iy);
      std::vector<std::uint64_t> vals(static_cast<std::size_t>(values_per_chunk));
      for (auto& v : vals) v = ++idx;
      std::vector<std::byte> payload(vals.size() * sizeof(std::uint64_t));
      std::memcpy(payload.data(), vals.data(), payload.size());
      chunks.emplace_back(meta, std::move(payload));
    }
  }
  return chunks;
}

std::vector<Chunk> grid_outputs(int n_side) {
  std::vector<Chunk> chunks;
  const Rect domain = Rect::cube(2, 0.0, 1.0);
  for (int iy = 0; iy < n_side; ++iy) {
    for (int ix = 0; ix < n_side; ++ix) {
      ChunkMeta meta;
      meta.mbr = testing::cell(domain, n_side, ix, iy);
      chunks.emplace_back(meta, std::vector<std::byte>(24, std::byte{0}));
    }
  }
  return chunks;
}

// The q-th query shape every suite below uses: distinct ranges and
// strategies so concurrent work is genuinely heterogeneous.
Query variant_query(std::uint32_t in, std::uint32_t out, int q) {
  Query query;
  query.input_dataset = in;
  query.output_dataset = out;
  const double extent = 0.25 + 0.25 * (q % 4);
  query.range = Rect(Point{0.0, 0.0}, Point{extent - 1e-9, extent - 1e-9});
  query.aggregation = "sum-count-max";
  query.strategy =
      std::vector<StrategyKind>{StrategyKind::kFRA, StrategyKind::kSRA,
                                StrategyKind::kDA}[static_cast<std::size_t>(q) % 3];
  query.delivery = OutputDelivery::kReturnToClient;
  return query;
}

void expect_same_outputs(const std::vector<Chunk>& got, const std::vector<Chunk>& want,
                         const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].meta().id, want[i].meta().id) << label << " chunk " << i;
    EXPECT_EQ(got[i].payload(), want[i].payload()) << label << " chunk " << i;
  }
}

// ---------------------------------------------------- Repository::submit

TEST(ConcurrentSubmit, ManyThreadsMatchSerialBaseline) {
  Repository repo(thread_config(2));
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0), grid_inputs(8, 3));
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0), grid_outputs(2));

  const int kVariants = 6;
  std::vector<QueryResult> baseline;
  for (int q = 0; q < kVariants; ++q) {
    baseline.push_back(repo.submit(variant_query(in, out, q)));
  }

  const int kThreads = 8;
  const int kRounds = 3;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int r = 0; r < kRounds; ++r) {
        const int q = (t + r) % kVariants;
        const QueryResult result = repo.submit(variant_query(in, out, q));
        const QueryResult& want = baseline[static_cast<std::size_t>(q)];
        if (result.outputs.size() != want.outputs.size()) {
          ++mismatches;
          continue;
        }
        for (std::size_t i = 0; i < result.outputs.size(); ++i) {
          if (result.outputs[i].payload() != want.outputs[i].payload()) ++mismatches;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrentSubmit, SubmitRacingCreateDataset) {
  // Queries keep running (shared lock) while new datasets register
  // (exclusive lock); neither side crashes or corrupts the other.
  Repository repo(thread_config(2));
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0), grid_inputs(4, 2));
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0), grid_outputs(2));
  const QueryResult baseline = repo.submit(variant_query(in, out, 3));

  std::atomic<int> mismatches{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&]() {
      for (int i = 0; i < 15; ++i) {
        const QueryResult r = repo.submit(variant_query(in, out, 3));
        if (r.outputs.size() != baseline.outputs.size()) ++mismatches;
      }
    });
  }
  for (int d = 0; d < 6; ++d) {
    repo.create_dataset("extra" + std::to_string(d), Rect::cube(2, 0.0, 1.0),
                        grid_inputs(2, 1));
  }
  for (std::thread& t : submitters) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(repo.num_datasets(), 8u);
}

// ------------------------------------------- QuerySubmissionService pool

TEST(SubmissionPool, ConcurrentTicketsMatchSerialBaseline) {
  Repository repo(thread_config(2));
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0), grid_inputs(8, 2));
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0), grid_outputs(2));

  const int kVariants = 6;
  std::vector<QueryResult> baseline;
  for (int q = 0; q < kVariants; ++q) {
    baseline.push_back(repo.submit(variant_query(in, out, q)));
  }

  QuerySubmissionService service(repo);
  service.start(4);
  std::vector<std::pair<std::uint64_t, int>> tickets;
  for (int q = 0; q < 24; ++q) {
    tickets.emplace_back(
        service.enqueue(variant_query(in, out, q % kVariants), {}, /*client=*/q % 5),
        q % kVariants);
  }
  for (const auto& [ticket, q] : tickets) {
    const QuerySubmissionService::Outcome outcome = service.take(ticket);
    ASSERT_TRUE(outcome.ok()) << "ticket " << ticket << ": "
                              << outcome.status.to_string();
    expect_same_outputs(outcome.result.outputs,
                        baseline[static_cast<std::size_t>(q)].outputs,
                        "ticket " + std::to_string(ticket));
  }
  EXPECT_EQ(service.pending(), 0u);
  service.stop();
}

// An aggregation whose first reduction blocks until the test opens the
// gate — used to hold one client's lane busy deterministically.
struct Gate {
  std::mutex mutex;
  std::condition_variable cv;
  bool open = false;
  /// Reductions that have reached the gate (held or passed).
  std::atomic<int> arrivals{0};
  void release() {
    std::lock_guard lock(mutex);
    open = true;
    cv.notify_all();
  }
  void pass() {
    ++arrivals;
    std::unique_lock lock(mutex);
    cv.wait(lock, [this]() { return open; });
  }
};

class GatedCountOp : public AggregationOp {
 public:
  explicit GatedCountOp(std::shared_ptr<Gate> gate) : gate_(std::move(gate)) {}
  std::string name() const override { return "gated-count"; }
  AccumulatorLayout layout() const override { return {1.0}; }
  std::vector<std::byte> initialize(const ChunkMeta&, const Chunk*) const override {
    return std::vector<std::byte>(sizeof(std::uint64_t), std::byte{0});
  }
  void aggregate(const Chunk& input, const ChunkMeta&,
                 std::vector<std::byte>& accum) const override {
    gate_->pass();
    std::uint64_t n = 0;
    std::memcpy(&n, accum.data(), sizeof(n));
    n += input.payload().size() / sizeof(std::uint64_t);
    std::memcpy(accum.data(), &n, sizeof(n));
  }
  void combine(std::vector<std::byte>& dst,
               const std::vector<std::byte>& src) const override {
    std::uint64_t a = 0, b = 0;
    std::memcpy(&a, dst.data(), sizeof(a));
    std::memcpy(&b, src.data(), sizeof(b));
    a += b;
    std::memcpy(dst.data(), &a, sizeof(a));
  }
  std::vector<std::byte> output(const ChunkMeta&,
                                const std::vector<std::byte>& accum) const override {
    return accum;
  }

 private:
  std::shared_ptr<Gate> gate_;
};

TEST(SubmissionPool, FifoPerClientWhileOtherClientsProceed) {
  Repository repo(thread_config(2));
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0), grid_inputs(4, 2));
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0), grid_outputs(2));
  auto gate = std::make_shared<Gate>();
  repo.aggregations().register_op(std::make_shared<GatedCountOp>(gate));

  QuerySubmissionService service(repo);
  service.start(3);

  Query gated = variant_query(in, out, 3);
  gated.aggregation = "gated-count";
  const auto tx1 = service.enqueue(gated, {}, /*client=*/1);     // holds lane 1
  const auto tx2 = service.enqueue(variant_query(in, out, 3), {}, /*client=*/1);
  const auto ty = service.enqueue(variant_query(in, out, 3), {}, /*client=*/2);

  // Client 2 is independent: its query finishes while client 1's lane is
  // still blocked at the gate.
  ASSERT_TRUE(service.take(ty).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(service.try_take(tx1).has_value());  // still gated
  EXPECT_FALSE(service.try_take(tx2).has_value());  // must not overtake its lane
  EXPECT_EQ(service.pending(), 2u);

  gate->release();
  ASSERT_TRUE(service.take(tx1).ok());
  ASSERT_TRUE(service.take(tx2).ok());
  EXPECT_EQ(service.pending(), 0u);
  service.stop();
}

TEST(SubmissionPool, EnqueueAppliesBackPressure) {
  Repository repo(thread_config(2));
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0), grid_inputs(4, 1));
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0), grid_outputs(2));
  auto gate = std::make_shared<Gate>();
  repo.aggregations().register_op(std::make_shared<GatedCountOp>(gate));

  RuntimeConfig runtime;
  runtime.max_pending = 2;
  QuerySubmissionService service(repo, runtime);
  service.start(1);

  Query gated = variant_query(in, out, 0);
  gated.aggregation = "gated-count";
  service.enqueue(gated, {}, /*client=*/1);                      // in flight, gated
  service.enqueue(variant_query(in, out, 0), {}, /*client=*/2);  // queued: pool full

  std::atomic<bool> third_accepted{false};
  std::thread blocked([&]() {
    service.enqueue(variant_query(in, out, 0), {}, /*client=*/3);
    third_accepted = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_accepted.load());  // back-pressure holds the producer

  gate->release();
  blocked.join();  // a slot freed; the producer got through
  EXPECT_TRUE(third_accepted.load());
  service.drain();
  EXPECT_EQ(service.pending(), 0u);
  service.stop();
}

TEST(SubmissionPool, FailedQueryYieldsErrorNotResult) {
  Repository repo(thread_config(2));
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0), grid_inputs(2, 1));
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0), grid_outputs(2));
  QuerySubmissionService service(repo);
  service.start(2);
  Query bad = variant_query(in, out, 0);
  bad.aggregation = "no-such-op";
  const auto t_bad = service.enqueue(bad, {}, 1);
  const auto t_good = service.enqueue(variant_query(in, out, 0), {}, 1);
  const QuerySubmissionService::Outcome outcome = service.take(t_bad);
  EXPECT_FALSE(outcome.ok());
  // A malformed query gets the typed argument code, not a generic error.
  EXPECT_EQ(outcome.status.code, StatusCode::kInvalidArgument);
  EXPECT_NE(outcome.status.message.find("unknown aggregation"), std::string::npos);
  // The lane survives the failure.
  EXPECT_TRUE(service.take(t_good).ok());
  service.stop();
}

TEST(SubmissionPool, SerialProcessAllStillWorks) {
  // Seed behaviour: no workers, process_all drains on the caller.
  Repository repo(thread_config(2));
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0), grid_inputs(4, 2));
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0), grid_outputs(2));
  QuerySubmissionService service(repo);
  const auto t1 = service.enqueue(variant_query(in, out, 0));
  const auto t2 = service.enqueue(variant_query(in, out, 1));
  EXPECT_EQ(service.pending(), 2u);
  EXPECT_EQ(service.process_all(), 2u);
  EXPECT_EQ(service.pending(), 0u);
  EXPECT_TRUE(service.take(t1).ok());
  EXPECT_TRUE(service.take(t2).ok());
}

// ------------------------------------------------------- socket server

struct ServerFixture {
  Repository repo;
  std::uint32_t in = 0;
  std::uint32_t out = 0;
  net::AdrServer server;

  explicit ServerFixture(int max_connections = 64)
      : repo(thread_config(2)), server(repo, /*port=*/0, {}, [max_connections] {
          RuntimeConfig runtime;
          runtime.max_connections = static_cast<std::size_t>(max_connections);
          return runtime;
        }()) {
    in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0), grid_inputs(8, 3));
    out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0), grid_outputs(2));
    server.start();
  }
};

TEST(ConcurrentServer, EightClientsInterleavedMatchSerialBaseline) {
  ServerFixture fx;
  const int kVariants = 6;
  std::vector<QueryResult> baseline;
  for (int q = 0; q < kVariants; ++q) {
    baseline.push_back(fx.repo.submit(variant_query(fx.in, fx.out, q)));
  }

  const int kClients = 8;
  const int kQueriesEach = 4;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  std::atomic<int> mismatches{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      try {
        net::AdrClient client(fx.server.port());
        for (int i = 0; i < kQueriesEach; ++i) {
          const int q = (c + i) % kVariants;
          const net::WireResult result =
              client.submit(variant_query(fx.in, fx.out, q));
          if (!result.ok()) {
            ++failures;
            continue;
          }
          const auto& want = baseline[static_cast<std::size_t>(q)].outputs;
          if (result.outputs.size() != want.size()) {
            ++mismatches;
            continue;
          }
          for (std::size_t k = 0; k < want.size(); ++k) {
            if (result.outputs[k].payload() != want[k].payload() ||
                result.outputs[k].meta().id != want[k].meta().id) {
              ++mismatches;
            }
          }
        }
      } catch (const std::exception&) {
        ++failures;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(fx.server.queries_served(),
            static_cast<std::uint64_t>(kClients * kQueriesEach));
}

TEST(ConcurrentServer, ConnectionLimitRefusesExtraClient) {
  ServerFixture fx(/*max_connections=*/2);
  net::AdrClient a(fx.server.port());
  net::AdrClient b(fx.server.port());
  // Make sure both connections are registered with the server.
  ASSERT_TRUE(a.submit(variant_query(fx.in, fx.out, 0)).ok());
  ASSERT_TRUE(b.submit(variant_query(fx.in, fx.out, 1)).ok());

  // The third connection gets a protocol-level refusal: a
  // WireResult{ok=false, "server busy"} frame, then an orderly close.
  net::AdrClient c(fx.server.port());
  const net::WireResult refusal = c.submit(variant_query(fx.in, fx.out, 2));
  EXPECT_FALSE(refusal.ok());
  EXPECT_TRUE(refusal.server_busy()) << refusal.error();
  EXPECT_FALSE(c.connected());  // client surfaces the server-side close
  EXPECT_GE(fx.server.connections_refused(), 1u);

  // Existing clients are unaffected.
  EXPECT_TRUE(a.submit(variant_query(fx.in, fx.out, 2)).ok());
}

TEST(ConcurrentServer, SchedulerQueueFullRefusesQueryWithBusyFrame) {
  // One worker, one pending slot: a gated query occupies the only slot,
  // so a second client's submit is refused at the protocol level while
  // the connection cap is nowhere near reached.
  Repository repo(thread_config(2));
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0), grid_inputs(4, 2));
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0), grid_outputs(2));
  auto gate = std::make_shared<Gate>();
  repo.aggregations().register_op(std::make_shared<GatedCountOp>(gate));
  RuntimeConfig runtime;
  runtime.max_connections = 8;
  runtime.scheduler_workers = 1;
  runtime.max_pending = 1;
  net::AdrServer server(repo, /*port=*/0, {}, runtime);
  server.start();

  // The holder retries: a probe racing ahead of it can briefly own the
  // only slot, refusing the gated query — without retries the holder
  // would give up and nothing would ever occupy the slot.
  net::RetryPolicy holder_policy;
  holder_policy.max_attempts = 100;
  holder_policy.initial_backoff = std::chrono::milliseconds(2);
  holder_policy.max_backoff = std::chrono::milliseconds(10);
  holder_policy.honor_retry_after = false;
  net::AdrClient holder(server.port(), holder_policy);
  Query gated = variant_query(in, out, 3);
  gated.aggregation = "gated-count";
  std::thread held([&]() { holder.submit(gated); });

  // Wait until the gated query is actually in flight (occupying the slot).
  net::WireResult refusal;
  bool refused = false;
  for (int attempt = 0; attempt < 100 && !refused; ++attempt) {
    net::AdrClient probe(server.port());
    refusal = probe.submit(variant_query(in, out, 0));
    if (!refusal.ok() && refusal.server_busy()) {
      refused = true;
      EXPECT_FALSE(probe.connected());
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_TRUE(refused);
  EXPECT_GE(server.queries_refused(), 1u);

  gate->release();
  held.join();
  server.stop();
  // At least the gated query; probes racing ahead of it may add more.
  EXPECT_GE(server.queries_served(), 1u);

  // After the slot frees, new clients are served normally again.
  net::AdrServer server2(repo, /*port=*/0, {}, runtime);
  server2.start();
  net::AdrClient ok_client(server2.port());
  EXPECT_TRUE(ok_client.submit(variant_query(in, out, 0)).ok());
  server2.stop();
}

TEST(ConcurrentServer, SlotFreedAfterClientDisconnects) {
  ServerFixture fx(/*max_connections=*/1);
  {
    net::AdrClient a(fx.server.port());
    ASSERT_TRUE(a.submit(variant_query(fx.in, fx.out, 0)).ok());
  }
  // The slot frees once the server notices the close.  The retrying
  // client owns the backoff now: a too-early attempt is either refused
  // with a busy frame (kBusy, always retryable) or fails at the
  // transport (kUnavailable, retryable for idempotent queries) — one
  // submit() absorbs both, replacing the old hand-rolled poll loop.
  net::RetryPolicy policy;
  policy.max_attempts = 50;
  policy.initial_backoff = std::chrono::milliseconds(5);
  policy.max_backoff = std::chrono::milliseconds(100);
  policy.seed = 9;
  net::AdrClient b(fx.server.port(), policy);
  const net::WireResult result = b.submit(variant_query(fx.in, fx.out, 1));
  EXPECT_TRUE(result.ok()) << result.status.to_string();
  EXPECT_GE(result.attempts, 1u);
}

TEST(ConcurrentServer, StopDrainsActiveConnections) {
  auto fx = std::make_unique<ServerFixture>();
  const int kClients = 4;
  std::vector<std::thread> clients;
  std::atomic<int> ok{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      try {
        net::AdrClient client(fx->server.port());
        for (int i = 0; i < 8; ++i) {
          if (client.submit(variant_query(fx->in, fx->out, (c + i) % 6)).ok()) ++ok;
        }
      } catch (const std::exception&) {
        // Expected once stop() lands mid-stream: the half-close surfaces
        // as "connection closed before result" on the next submit.
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  fx->server.stop();  // must not hang and must not tear down mid-frame
  for (std::thread& t : clients) t.join();
  // Every query the server reports as served produced a delivered result.
  EXPECT_EQ(fx->server.queries_served(), static_cast<std::uint64_t>(ok.load()));
  EXPECT_EQ(fx->server.active_connections(), 0u);
}

// ------------------------------------------------------------ NodeRuntime
// Every run shares one NodeRuntime per repository: these pin the
// guarantees the per-query thread sets used to give for free.

std::uint64_t stall_rescues() {
  return obs::metrics().counter("runtime.stall_rescues").value();
}

std::size_t process_threads() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

TEST(NodeRuntime, StalledQueryDoesNotBlockOtherQueries) {
  Repository repo(thread_config(2));
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0), grid_inputs(4, 2));
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0), grid_outputs(2));
  auto gate = std::make_shared<Gate>();
  repo.aggregations().register_op(std::make_shared<GatedCountOp>(gate));
  const std::uint64_t rescues_before = stall_rescues();

  QuerySubmissionService service(repo);
  service.start(5);
  Query gated = variant_query(in, out, 3);
  gated.aggregation = "gated-count";
  const auto held = service.enqueue(gated, {}, /*client=*/1);
  // The gated query now holds a node thread inside a reduction.
  while (gate->arrivals.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::vector<std::uint64_t> others;
  for (int c = 0; c < 4; ++c) {
    others.push_back(service.enqueue(variant_query(in, out, c), {}, /*client=*/2 + c));
  }
  for (const std::uint64_t t : others) EXPECT_TRUE(service.take(t).ok());
  EXPECT_FALSE(service.try_take(held).has_value());  // still gated
  EXPECT_GT(stall_rescues(), rescues_before);

  gate->release();
  EXPECT_TRUE(service.take(held).ok());
  service.stop();
}

TEST(NodeRuntime, StrandPostedWhileRunnerWakesIsRescued) {
  // A blocking task and another run's task posted back to back to an
  // idle node: the second post lands before the node thread has woken,
  // so it sees the runner idle.  Once the runner takes the blocker, the
  // second strand must still be rescued by a helper.
  NodeRuntime runtime(1);
  runtime.attach();  // two runs: room for one helper
  runtime.attach();
  NodeRuntime::Account blocked_account;
  NodeRuntime::Account other_account;
  NodeRuntime::Strand blocked;
  blocked.account = &blocked_account;
  NodeRuntime::Strand other;
  other.account = &other_account;
  constexpr int kRounds = 20;
  const std::uint64_t rescues_before = stall_rescues();
  for (int round = 0; round < kRounds; ++round) {
    auto gate = std::make_shared<std::promise<void>>();
    std::shared_future<void> held = gate->get_future().share();
    std::promise<void> ran;
    runtime.post(blocked, [held]() { held.wait(); });
    runtime.post(other, [&ran]() { ran.set_value(); });
    const bool rescued =
        ran.get_future().wait_for(std::chrono::seconds(5)) == std::future_status::ready;
    gate->set_value();
    runtime.quiesce(blocked_account);
    runtime.quiesce(other_account);
    if (!rescued) {
      ADD_FAILURE() << "strand not rescued in round " << round;
      break;
    }
  }
  // Most rounds need a helper; one whose blocker lands on the previous
  // round's still-draining helper does not.
  EXPECT_GT(stall_rescues(), rescues_before);
  runtime.detach();
  runtime.detach();
}

TEST(NodeRuntime, ThreadCountStaysFlatUnderConcurrentQueries) {
  Repository repo(thread_config(4));
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0), grid_inputs(8, 16));
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0), grid_outputs(2));
  QuerySubmissionService service(repo);
  service.start(4);
  // The first run builds the node runtime; from then on no query spawns.
  ASSERT_TRUE(service.take(service.enqueue(variant_query(in, out, 0))).ok());

  const std::size_t before = process_threads();
  const std::uint64_t rescues_before = stall_rescues();
  std::vector<std::uint64_t> tickets;
  for (int q = 0; q < 16; ++q) {
    tickets.push_back(service.enqueue(variant_query(in, out, q), {}, /*client=*/q));
  }
  std::size_t lo = before;
  std::size_t hi = before;
  while (service.pending() > 0) {
    const std::size_t now = process_threads();
    lo = std::min(lo, now);
    hi = std::max(hi, now);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (const std::uint64_t t : tickets) EXPECT_TRUE(service.take(t).ok());
  // No query spawns a thread.  The only extra threads allowed are stall
  // helpers, which a long wait or a descheduled runner can set off:
  // at most one per rescue, and each exits once its node has caught up.
  const std::uint64_t rescues = stall_rescues() - rescues_before;
  EXPECT_EQ(lo, before);
  EXPECT_LE(hi - before, rescues);
  for (int i = 0; i < 1000 && process_threads() != before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(process_threads(), before);
  service.stop();
}

TEST(NodeRuntime, ContextDestroyedAsSoonAsRunReturns) {
  // Each node sends a message to its neighbour and finishes on receipt,
  // then keeps working in the same task: that tail runs after the last
  // finish() may have released run(), so the context must outlive it.
  // 200 contexts come and go across 4 concurrent callers, each freed the
  // moment run() returns (on the heap, so a late touch is a
  // heap-use-after-free under ASan).
  constexpr int kNodes = 4;
  NodeRuntime runtime(kNodes);
  std::atomic<int> tails{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&]() {
      for (int r = 0; r < 50; ++r) {
        auto exec = std::make_unique<ThreadExecutor>(runtime, 1, nullptr);
        exec->set_message_handler([&exec = *exec, &tails](const Message& msg) {
          exec.finish(msg.dst);
          exec.post(msg.dst, [&tails]() { ++tails; });
          ++tails;
        });
        exec->run([&exec = *exec](int node) {
          Message msg;
          msg.src = node;
          msg.dst = (node + 1) % kNodes;
          exec.send(std::move(msg));
        });
        exec.reset();
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(tails.load(), 200 * kNodes * 2);
}

TEST(NodeRuntime, ConcurrentRunsEachBillTheirOwnCpu) {
  RepositoryConfig cfg = thread_config(4);
  cfg.marginal_cache_bytes = 0;  // both queries must execute
  Repository repo(cfg);
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0), grid_inputs(8, 4096));
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0), grid_outputs(2));
  ASSERT_TRUE(repo.submit(variant_query(in, out, 0)).outputs.size() > 0);  // runtime up

  std::latch start(2);
  QueryResult results[2];
  const double cpu_before = process_cpu_seconds();
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i) {
    threads.emplace_back([&, i]() {
      Query q = variant_query(in, out, 3);  // the full domain
      q.strategy = i == 0 ? StrategyKind::kFRA : StrategyKind::kDA;
      start.arrive_and_wait();
      results[i] = repo.submit(q);
    });
  }
  for (std::thread& t : threads) t.join();
  const double cpu_delta = process_cpu_seconds() - cpu_before;

  EXPECT_GT(results[0].stats.thread_cpu_s, 0.0);
  EXPECT_GT(results[1].stats.thread_cpu_s, 0.0);
  EXPECT_LE(results[0].stats.thread_cpu_s + results[1].stats.thread_cpu_s, cpu_delta);
}

}  // namespace
}  // namespace adr
