// The shared node runtime under every thread-backend run.
//
// One queue-draining thread per logical node, spawned once and shared by
// every run in flight (the paper's operation queues, section 2.4).  Work
// is scheduled per *strand*: one run's queue on one node.  A strand's
// tasks run one at a time in FIFO order; strands of different runs
// interleave on the node's thread, so a run parked at a barrier never
// holds a thread another run could use.  ThreadExecutor is the per-run
// context that owns one strand per node.
//
// Stall rescue.  A task that blocks (a gated aggregation, a stuck read)
// would otherwise hold every other run's strands on that node hostage.
// A monitor thread, asleep while no node has a backlog, samples each
// node's "tasks done" counter; when a node has ready strands waiting
// and its runners have completed nothing for kStallThreshold, it starts
// a helper thread that drains the node's other strands and exits when
// none are left (counted in runtime.stall_rescues).  A blocked runner
// holds one run's strand, so a node never has more runners than runs
// in flight: threads stay within num_nodes x (1 + in-flight runs).
//
// CPU attribution.  Each runner bills the CPU it spends on a strand to
// that strand's Account, reading CLOCK_THREAD_CPUTIME_ID only when it
// leaves a strand or starts one after idling — never around each task.
//
// Lifetime.  A strand is *active* from the post that queues its first
// task until a runner leaves it with no task left; the runner bills
// the strand before releasing it.  quiesce() blocks until none of an
// Account's strands is active, so its owner may then reuse or destroy
// them.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace adr {

class NodeRuntime {
 public:
  using Task = std::function<void()>;

  /// How long a node's runners may go without completing a task while
  /// other strands wait before a helper is started.  On the perfbench
  /// workloads (4-core host, Release) 99.5% of engine tasks finish in
  /// under 65 us and about 1 in 50,000 runs past 1 ms; the few past
  /// 10 ms mostly wait (on a lock or a read, or descheduled), and a
  /// helper is the right answer to those too.  Above the 2 ms injected runtime.compute
  /// latency the router bench uses, and low enough that a strand
  /// queued behind a blocked task waits about 15 ms at most.
  static constexpr std::chrono::milliseconds kStallThreshold{10};

  /// Per-run tallies the runtime keeps on the owner's behalf.
  struct Account {
    /// CPU nanoseconds runners spent on this run's strands.
    std::atomic<std::int64_t> cpu_ns{0};
    /// Strands with queued or running tasks (see quiesce()).
    std::atomic<int> active_strands{0};
  };

  /// One run's queue on one node.  `tasks` and `active` are guarded by
  /// the node's mutex.
  struct Strand {
    Account* account = nullptr;
    int node = 0;
    std::deque<Task> tasks;
    bool active = false;
  };

  explicit NodeRuntime(int num_nodes);
  /// Joins every thread.  No account may still be attached.
  ~NodeRuntime();

  NodeRuntime(const NodeRuntime&) = delete;
  NodeRuntime& operator=(const NodeRuntime&) = delete;

  int num_nodes() const { return static_cast<int>(nodes_.size()); }

  /// Registers / deregisters a run context (bounds the helper count).
  void attach();
  void detach();

  /// Blocks until none of `account`'s strands is active: every task
  /// posted to them has run and been billed.
  void quiesce(Account& account);

  /// Queues `task` on `strand`; it runs on the strand's node after the
  /// strand's earlier tasks.
  void post(Strand& strand, Task task);

  /// True when the caller is a runner currently executing `strand`.
  static bool on_strand(const Strand& strand);

 private:
  struct Node {
    std::mutex mutex;
    std::condition_variable cv;
    /// Active strands waiting for a runner.
    std::deque<Strand*> ready;
    int idle_runners = 0;
    /// The node's own thread plus live helpers.
    int runners = 1;
    bool stop = false;
    /// Tasks completed by the node's runners (relaxed; the monitor's
    /// progress signal).
    std::atomic<std::uint64_t> tasks_done{0};
    std::thread thread;
    // Monitor-only: the tasks_done value last seen with a backlog, and
    // since when it has not moved.
    bool watching = false;
    std::uint64_t seen_done = 0;
    std::chrono::steady_clock::time_point seen_at;
  };

  struct Helper {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void drain(Node& node, bool helper);
  void run_strand(Node& node, Strand& strand);
  void release(Account& account);
  void arm_monitor();
  void monitor_loop();
  /// One monitor pass: rescues stalled nodes, joins exited helpers;
  /// true while any node has strands waiting on busy runners.
  bool scan();

  std::vector<std::unique_ptr<Node>> nodes_;

  std::atomic<int> attached_{0};
  /// quiesce() callers waiting for their strands to drain.
  std::atomic<int> quiescing_{0};
  std::mutex drain_mutex_;
  std::condition_variable drain_cv_;

  std::mutex monitor_mutex_;
  std::condition_variable monitor_cv_;
  /// True while the monitor sleeps until a post finds a busy node.
  std::atomic<bool> monitor_idle_{true};
  bool monitor_stop_ = false;  // guarded by monitor_mutex_
  std::list<Helper> helpers_;  // monitor thread only (and the destructor)
  std::thread monitor_;
};

}  // namespace adr
