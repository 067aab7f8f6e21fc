// Batch submission and gang execution (docs/batching.md): batch results
// must be byte-identical to serial submission, gangs of overlapping
// queries must pay strictly fewer cold chunk reads than serial, and the
// scheduler's gang formation must respect per-client FIFO lanes and
// never co-gang queries over different datasets.
#include "core/frontend.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <future>
#include <thread>

#include "common/fault.hpp"
#include "storage/shared_scan.hpp"
#include "test_helpers.hpp"

namespace adr {
namespace {

RepositoryConfig thread_config(int nodes) {
  RepositoryConfig cfg;
  cfg.backend = RepositoryConfig::Backend::kThreads;
  cfg.num_nodes = nodes;
  cfg.memory_per_node = 1 << 20;
  // The chunk cache would also dedup repeat reads; disable it so every
  // backing-store fetch in these tests is a true cold read and the
  // serial-vs-gang comparison isolates batch sharing.  The marginal
  // cache would go further and skip repeat members' execution entirely
  // (shrinking gangs) — same reasoning, its serving has its own suites.
  cfg.chunk_cache_bytes_per_node = 0;
  cfg.marginal_cache_bytes = 0;
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

Query window_query(std::uint32_t in, std::uint32_t out, int i) {
  // Sliding windows over x, full extent in y: neighbours overlap in most
  // of their input chunks.
  Query q;
  q.input_dataset = in;
  q.output_dataset = out;
  const double x0 = 0.08 * i;
  const double x1 = std::min(x0 + 0.35, 1.0 - 1e-9);
  q.range = Rect(Point{x0, 0.0}, Point{x1, 1.0 - 1e-9});
  q.aggregation = "sum-count-max";
  q.delivery = OutputDelivery::kReturnToClient;
  return q;
}

void expect_same_outputs(const QueryResult& a, const QueryResult& b) {
  ASSERT_EQ(a.outputs.size(), b.outputs.size());
  for (std::size_t i = 0; i < a.outputs.size(); ++i) {
    EXPECT_EQ(a.outputs[i].meta().id, b.outputs[i].meta().id);
    EXPECT_EQ(a.outputs[i].payload(), b.outputs[i].payload());
  }
}

TEST(Batch, MatchesSerialWithStrictlyFewerColdReads) {
  // Serial baseline and gang run on two identically-built repositories
  // (same deterministic dataset contents), cache disabled in both.
  Repository serial_repo(thread_config(2));
  Repository batch_repo(thread_config(2));
  const auto sin = serial_repo.create_dataset("in", Rect::cube(2, 0.0, 1.0),
                                              grid_inputs(8, 4));
  const auto sout = serial_repo.create_dataset("out", Rect::cube(2, 0.0, 1.0),
                                               grid_outputs(2));
  const auto bin = batch_repo.create_dataset("in", Rect::cube(2, 0.0, 1.0),
                                             grid_inputs(8, 4));
  const auto bout = batch_repo.create_dataset("out", Rect::cube(2, 0.0, 1.0),
                                              grid_outputs(2));

  std::vector<SubmitRequest> batch;
  std::vector<QueryResult> serial;
  std::uint64_t serial_cold_reads = 0;
  for (int i = 0; i < 8; ++i) {
    serial.push_back(serial_repo.submit(window_query(sin, sout, i)));
    serial_cold_reads += serial.back().chunk_reads;
    SubmitRequest req;
    req.query = window_query(bin, bout, i);
    batch.push_back(req);
  }

  const auto outcomes = batch_repo.submit_batch(batch);
  ASSERT_EQ(outcomes.size(), 8u);
  std::uint64_t gang_cold_reads = 0;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(outcomes[i].ok()) << outcomes[i].status.to_string();
    EXPECT_EQ(outcomes[i].result.gang_size, 8u);
    gang_cold_reads += outcomes[i].result.gang_cold_reads;
    // Per-query outputs are byte-identical to serial submission.
    expect_same_outputs(outcomes[i].result, serial[i]);
  }
  // The whole point of the gang: shared input chunks are fetched once.
  EXPECT_LT(gang_cold_reads, serial_cold_reads)
      << "gang paid " << gang_cold_reads << " cold reads vs serial "
      << serial_cold_reads;
  EXPECT_GT(gang_cold_reads, 0u);
}

TEST(Batch, SharingDisabledFallsBackToSerialExecution) {
  RepositoryConfig cfg = thread_config(2);
  cfg.batch_scan_bytes = 0;  // gate off: members execute like submits
  Repository repo(cfg);
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0),
                                      grid_inputs(4, 2));
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0),
                                       grid_outputs(2));

  std::vector<SubmitRequest> batch;
  for (int i = 0; i < 4; ++i) {
    SubmitRequest req;
    req.query = window_query(in, out, i);
    batch.push_back(req);
  }
  const auto outcomes = repo.submit_batch(batch);
  ASSERT_EQ(outcomes.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(outcomes[i].ok()) << outcomes[i].status.to_string();
    EXPECT_EQ(outcomes[i].result.gang_size, 1u);
    expect_same_outputs(outcomes[i].result, repo.submit(window_query(in, out, i)));
  }
}

TEST(Batch, MemberFailureDoesNotSinkTheGang) {
  Repository repo(thread_config(2));
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0),
                                      grid_inputs(4, 2));
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0),
                                       grid_outputs(2));

  std::vector<SubmitRequest> batch;
  for (int i = 0; i < 3; ++i) {
    SubmitRequest req;
    req.query = window_query(in, out, i);
    batch.push_back(req);
  }
  batch[1].query.aggregation = "no-such-op";

  const auto outcomes = repo.submit_batch(batch);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_TRUE(outcomes[0].ok()) << outcomes[0].status.to_string();
  EXPECT_TRUE(outcomes[2].ok()) << outcomes[2].status.to_string();
  EXPECT_FALSE(outcomes[1].ok());
  EXPECT_EQ(outcomes[1].status.code, StatusCode::kInvalidArgument);
  EXPECT_NE(outcomes[1].status.message.find("unknown aggregation"),
            std::string::npos);
}

TEST(Batch, SchedulerFormsGangsAcrossClients) {
  Repository repo(thread_config(2));
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0),
                                      grid_inputs(8, 4));
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0),
                                       grid_outputs(2));
  QuerySubmissionService service(repo);

  // Eight compatible queries from eight distinct clients, all queued
  // before the single worker starts: it must gang them all.  Windows are
  // wide enough that every query overlaps the gang leader (the scheduler
  // only gangs range-intersecting queries).
  std::vector<std::uint64_t> tickets;
  for (int i = 0; i < 8; ++i) {
    Query q = window_query(in, out, i);
    const double x0 = 0.05 * i;
    q.range = Rect(Point{x0, 0.0},
                   Point{std::min(x0 + 0.6, 1.0 - 1e-9), 1.0 - 1e-9});
    tickets.push_back(service.enqueue(q, {}, /*client_id=*/100 + i));
  }
  service.start(1);
  for (const auto t : tickets) {
    const auto outcome = service.take(t);
    ASSERT_TRUE(outcome.ok()) << outcome.status.to_string();
    EXPECT_EQ(outcome.result.gang_size, 8u);
  }
  service.stop();
}

TEST(Batch, GangFormationRespectsClientFifoLanes) {
  Repository repo(thread_config(2));
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0),
                                      grid_inputs(4, 2));
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0),
                                       grid_outputs(2));
  QuerySubmissionService service(repo);

  // Client 1 queues two compatible queries; client 2 queues one.  The
  // gang takes at most one query per client (a lane is serial), so the
  // leader gangs with client 2's query while client 1's second query
  // waits its turn and runs alone.
  const auto qa = service.enqueue(window_query(in, out, 0), {}, /*client_id=*/1);
  const auto qb = service.enqueue(window_query(in, out, 1), {}, /*client_id=*/1);
  const auto qc = service.enqueue(window_query(in, out, 2), {}, /*client_id=*/2);
  service.start(1);

  const auto oa = service.take(qa);
  const auto ob = service.take(qb);
  const auto oc = service.take(qc);
  service.stop();
  ASSERT_TRUE(oa.ok()) << oa.status.to_string();
  ASSERT_TRUE(ob.ok()) << ob.status.to_string();
  ASSERT_TRUE(oc.ok()) << oc.status.to_string();
  EXPECT_EQ(oa.result.gang_size, 2u);
  EXPECT_EQ(oc.result.gang_size, 2u);
  EXPECT_EQ(ob.result.gang_size, 1u);  // same lane as qa: never co-gangs
}

TEST(Batch, MixedDatasetQueriesNeverCoGang) {
  Repository repo(thread_config(2));
  const auto in_a = repo.create_dataset("a", Rect::cube(2, 0.0, 1.0),
                                        grid_inputs(4, 2));
  const auto in_b = repo.create_dataset("b", Rect::cube(2, 0.0, 1.0),
                                        grid_inputs(4, 2));
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0),
                                       grid_outputs(2));
  QuerySubmissionService service(repo);

  // Interleaved arrivals over two datasets from distinct clients: the
  // dataset-a queries gang together, the dataset-b query runs alone.
  const auto ta1 = service.enqueue(window_query(in_a, out, 0), {}, /*client_id=*/1);
  const auto tb = service.enqueue(window_query(in_b, out, 1), {}, /*client_id=*/2);
  const auto ta2 = service.enqueue(window_query(in_a, out, 2), {}, /*client_id=*/3);
  service.start(1);

  const auto oa1 = service.take(ta1);
  const auto ob = service.take(tb);
  const auto oa2 = service.take(ta2);
  service.stop();
  ASSERT_TRUE(oa1.ok()) << oa1.status.to_string();
  ASSERT_TRUE(ob.ok()) << ob.status.to_string();
  ASSERT_TRUE(oa2.ok()) << oa2.status.to_string();
  EXPECT_EQ(oa1.result.gang_size, 2u);
  EXPECT_EQ(oa2.result.gang_size, 2u);
  EXPECT_EQ(ob.result.gang_size, 1u);

  // submit_batch applies the same rule when handed a mixed batch.
  std::vector<SubmitRequest> mixed;
  for (int i = 0; i < 4; ++i) {
    SubmitRequest req;
    req.query = window_query(i % 2 == 0 ? in_a : in_b, out, i);
    mixed.push_back(req);
  }
  const auto outcomes = repo.submit_batch(mixed);
  ASSERT_EQ(outcomes.size(), 4u);
  for (const auto& o : outcomes) {
    ASSERT_TRUE(o.ok()) << o.status.to_string();
    EXPECT_EQ(o.result.gang_size, 2u);  // two per dataset, never four
  }
}

TEST(Batch, EmptyAndSingletonBatches) {
  Repository repo(thread_config(1));
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0),
                                      grid_inputs(4, 2));
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0),
                                       grid_outputs(2));
  EXPECT_TRUE(repo.submit_batch({}).empty());

  SubmitRequest solo;
  solo.query = window_query(in, out, 0);
  const auto outcomes = repo.submit_batch({solo});
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_TRUE(outcomes[0].ok()) << outcomes[0].status.to_string();
  EXPECT_EQ(outcomes[0].result.gang_size, 1u);
  expect_same_outputs(outcomes[0].result, repo.submit(solo.query));
}

// ------------------------------------------------- shared-scan store

Chunk test_chunk(std::uint32_t index, std::size_t bytes) {
  ChunkMeta meta;
  meta.id = {1, index};
  meta.disk = 0;
  meta.bytes = bytes;
  meta.mbr = Rect::cube(2, 0.0, 1.0);
  return Chunk(meta, std::vector<std::byte>(bytes, std::byte{0x5a}));
}

TEST(SharedScanStore, ColdFetchOnceThenSharedHitsUntilUsesDrain) {
  MemoryChunkStore backing(1);
  backing.put(test_chunk(0, 8));
  SharedScanStore scan(backing);
  scan.add_planned_uses({1, 0}, 3);

  for (int i = 0; i < 3; ++i) {
    const auto c = scan.get(0, {1, 0});
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->payload().size(), 8u);
  }
  const SharedScanStats stats = scan.stats();
  EXPECT_EQ(stats.cold_fetches, 1u);
  EXPECT_EQ(stats.shared_hits, 2u);
  // The last planned reader drops the retained copy immediately.
  EXPECT_EQ(stats.resident_bytes, 0u);
  EXPECT_GT(stats.peak_resident_bytes, 0u);

  // A fourth, unplanned read passes through to the backing store.
  EXPECT_TRUE(scan.get(0, {1, 0}).has_value());
  EXPECT_EQ(scan.stats().passthrough, 1u);
}

TEST(SharedScanStore, FailedColdFetchKeepsRemainingPlannedUses) {
  // Regression: a failed cold fetch consumes only the failed reader's
  // planned use.  The remaining readers must still be counted — the
  // whole refcount used to leak, downgrading every later gang member to
  // an unshared passthrough read.
  MemoryChunkStore backing(1);
  backing.put(test_chunk(0, 8));
  SharedScanStore scan(backing);
  scan.add_planned_uses({1, 0}, 3);

  fault::ScopedFaultPlan plan(/*seed=*/52);
  fault::FaultSpec spec;
  spec.trigger = fault::Trigger::kOneShot;
  plan.arm("storage.shared_fetch", spec);
  EXPECT_THROW(scan.get(0, {1, 0}), StatusError);

  // Two planned readers remain: one pays the (now clean) cold fetch,
  // the other shares its retained copy.
  ASSERT_TRUE(scan.get(0, {1, 0}).has_value());
  ASSERT_TRUE(scan.get(0, {1, 0}).has_value());
  const SharedScanStats stats = scan.stats();
  EXPECT_EQ(stats.cold_fetches, 2u);  // the failed one and the clean one
  EXPECT_EQ(stats.shared_hits, 1u);
  EXPECT_EQ(stats.passthrough, 0u);  // nobody degraded to unplanned reads
  EXPECT_EQ(stats.resident_bytes, 0u);  // last reader dropped the copy
}

TEST(SharedScanStore, ByteCapDegradesToPassthrough) {
  MemoryChunkStore backing(1);
  backing.put(test_chunk(0, 8));
  SharedScanStore scan(backing, /*max_bytes=*/4);  // too small to retain
  scan.add_planned_uses({1, 0}, 2);

  EXPECT_TRUE(scan.get(0, {1, 0}).has_value());
  EXPECT_TRUE(scan.get(0, {1, 0}).has_value());
  const SharedScanStats stats = scan.stats();
  // Nothing fit in the buffer: both planned reads paid a cold fetch.
  EXPECT_EQ(stats.cold_fetches, 2u);
  EXPECT_EQ(stats.shared_hits, 0u);
  EXPECT_GE(stats.cap_rejections, 1u);
  EXPECT_EQ(stats.resident_bytes, 0u);
}

TEST(SharedScanStore, PutInvalidatesRetainedCopy) {
  MemoryChunkStore backing(1);
  backing.put(test_chunk(0, 8));
  SharedScanStore scan(backing);
  scan.add_planned_uses({1, 0}, 3);

  ASSERT_TRUE(scan.get(0, {1, 0}).has_value());  // cold fetch, retained
  // A writer replaces the chunk mid-gang: later readers must observe the
  // new bytes, exactly as serial execution would.
  ChunkMeta meta;
  meta.id = {1, 0};
  meta.disk = 0;
  meta.bytes = 8;
  meta.mbr = Rect::cube(2, 0.0, 1.0);
  scan.put(Chunk(meta, std::vector<std::byte>(8, std::byte{0x77})));
  const auto c = scan.get(0, {1, 0});
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->payload()[0], std::byte{0x77});
}

TEST(SharedScanStore, ConcurrentPlannedReadersShareOneColdFetch) {
  // The cold fetch of a chunk is held in the backing store while the
  // gang's other planned readers of it arrive.  They share that one
  // fetch, and the store's lock is not held across it: a read of another
  // chunk completes meanwhile.
  constexpr int kReaders = 4;
  MemoryChunkStore backing(1);
  backing.put(test_chunk(0, 8));
  backing.put(test_chunk(1, 8));
  testing::GatedStore gate(backing, {1, 0});
  SharedScanStore scan(gate);
  scan.add_planned_uses({1, 0}, kReaders);

  std::vector<std::optional<Chunk>> got(kReaders);
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t]() { got[t] = scan.get(0, {1, 0}); });
  }
  const bool entered = gate.wait_entered(1);
  auto other = std::async(std::launch::async, [&] { return scan.get(0, {1, 1}); });
  const bool other_done =
      other.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  gate.open();
  for (auto& t : threads) t.join();

  ASSERT_TRUE(entered);
  EXPECT_TRUE(other_done) << "the store lock was held across the cold fetch";
  EXPECT_TRUE(other.get().has_value());
  EXPECT_EQ(gate.entered(), 1);
  for (int t = 0; t < kReaders; ++t) {
    ASSERT_TRUE(got[t].has_value()) << t;
    EXPECT_EQ(got[t]->shared_payload(), got[0]->shared_payload()) << t;
  }
  const SharedScanStats stats = scan.stats();
  EXPECT_EQ(stats.cold_fetches, 1u);
  EXPECT_EQ(stats.shared_hits, static_cast<std::uint64_t>(kReaders - 1));
  EXPECT_EQ(stats.resident_bytes, 0u);  // every planned use was spent
}

TEST(SharedScanStore, PutDuringColdFetchIsNotSupersededByItsBytes) {
  // A writer replaces the chunk while its cold fetch is in flight.  The
  // fetched bytes may predate the write, so they are not retained: the
  // gang's later readers fetch again and see the new bytes.
  MemoryChunkStore backing(1);
  backing.put(test_chunk(0, 8));
  testing::GatedStore gate(backing, {1, 0});
  SharedScanStore scan(gate);
  scan.add_planned_uses({1, 0}, 3);

  std::thread leader([&]() { scan.get(0, {1, 0}); });
  const bool entered = gate.wait_entered(1);
  ChunkMeta meta = test_chunk(0, 8).meta();
  scan.put(Chunk(meta, std::vector<std::byte>(8, std::byte{0x77})));
  gate.open();
  leader.join();

  ASSERT_TRUE(entered);
  EXPECT_EQ(scan.stats().resident_bytes, 0u);
  for (int k = 0; k < 2; ++k) {
    const auto c = scan.get(0, {1, 0});
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->payload()[0], std::byte{0x77}) << k;
  }
  EXPECT_EQ(scan.stats().cold_fetches, 2u);
  EXPECT_EQ(scan.stats().shared_hits, 1u);
}

}  // namespace
}  // namespace adr
