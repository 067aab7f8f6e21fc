// Thread-backed executor: one run's context on the shared NodeRuntime.
//
// The runtime owns one queue-draining thread per simulated back-end
// node; a ThreadExecutor owns this run's strand on each of them, so
// every task of the run on node n is serialized in FIFO order while
// other runs' strands interleave on the same threads (see
// runtime/node_runtime.hpp).  send() enqueues delivery on the
// destination node's strand, so the distributed-memory discipline (no
// shared state, message passing only) is preserved even though
// everything lives in one process.  Used to validate the engine and
// strategies with real payloads and real aggregation arithmetic.
//
// compute() runs its continuation inline on the calling runner: the
// engine calls it only from that node's strand, and a read's completion
// runs its aggregation in the same task that read the chunk instead of
// queueing a second one.  The engine never changes phase inline,
// because barrier() and window_sync() always post.
//
// Lifecycle: construction spawns nothing.  run() may be called
// repeatedly (a gang runs its members in turn); per-run state (finish
// count, barrier waiters, sliding-window epochs, message handler, error)
// is reset at the start of each run.  Runs on one context must not
// overlap.  run() returns only once none of the context's strands has a
// task queued or running (the destructor waits for the same), so the
// context may be reused or destroyed as soon as run() returns.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <vector>

#include "common/status.hpp"
#include "runtime/executor.hpp"
#include "runtime/node_runtime.hpp"
#include "storage/disk_store.hpp"

namespace adr {

class ThreadExecutor : public Executor {
 public:
  /// A run context over `runtime`'s node threads and a disk farm of
  /// `disks_per_node * runtime.num_nodes()` disks stored in `store`
  /// (must be thread-safe; may be null for metadata-only runs).
  ThreadExecutor(NodeRuntime& runtime, int disks_per_node, ChunkStore* store);
  ~ThreadExecutor() override;

  ThreadExecutor(const ThreadExecutor&) = delete;
  ThreadExecutor& operator=(const ThreadExecutor&) = delete;

  int num_nodes() const override { return static_cast<int>(strands_.size()); }
  void post(int node, Task task) override;
  void read(int node, int global_disk, ChunkId id, std::uint64_t bytes,
            ReadCallback done) override;
  void write(int node, int global_disk, Chunk chunk, Task done) override;
  void send(Message msg) override;
  void set_message_handler(MessageHandler handler) override;
  void compute(int node, double cost_seconds, Task done) override;
  void barrier(int node, Task done) override;
  void window_sync(int node, int epoch, int lag, Task done) override;
  void finish(int node) override;
  double run(std::function<void(int)> entry) override;
  double now_seconds() const override;
  /// CPU seconds the runners spent on this context's strands during the
  /// last run() (billed by the runtime; see obs/query_cost.hpp).
  double last_run_cpu_seconds() const override;

  int node_of_disk(int global_disk) const { return global_disk / disks_per_node_; }

  /// Completed run() calls on this context.
  std::uint64_t completed_runs() const;

  /// Records a failure observed by a node task this run (storage fetch
  /// fault, injected reduction error).  First error wins; the engine
  /// keeps running to completion on degraded inputs (a faulted read
  /// delivers nullopt, exactly like a missing chunk) so barriers and
  /// sliding windows never wedge, and run() rethrows the recorded error
  /// once every node has finished — the query fails cleanly instead of
  /// returning silently partial results.  Thread-safe (node threads).
  void record_run_error(Status status);

 private:
  NodeRuntime& runtime_;
  int disks_per_node_;
  ChunkStore* const store_;
  MessageHandler handler_;
  NodeRuntime::Account account_;
  std::vector<NodeRuntime::Strand> strands_;

  std::mutex barrier_mutex_;
  std::vector<std::pair<int, Task>> barrier_waiters_;

  struct WindowWaiter {
    int node;
    int epoch;
    int lag;
    Task task;
  };
  std::mutex window_mutex_;
  std::vector<int> epoch_completed_;
  std::vector<WindowWaiter> window_waiters_;

  mutable std::mutex done_mutex_;
  std::condition_variable done_cv_;
  int finished_ = 0;
  std::uint64_t completed_runs_ = 0;
  /// The last run's CPU seconds; written by run(), read after it returns.
  double last_run_cpu_s_ = 0.0;

  /// First error recorded this run (guarded by error_mutex_; reset at
  /// the start of each run, thrown from run() after completion).
  mutable std::mutex error_mutex_;
  Status run_error_;

  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace adr
