#include "runtime/node_runtime.hpp"

#include <time.h>

#include <cassert>

#include "obs/metrics.hpp"

namespace adr {
namespace {

/// What the calling thread is running, when it is one of the runtime's
/// runners (a node thread or a helper).
struct RunnerState {
  const NodeRuntime::Strand* current = nullptr;
  /// Thread CPU clock at the last read; valid unless the runner has
  /// idled since (clock_fresh).
  std::int64_t last_cpu_ns = 0;
  bool clock_fresh = false;
  /// The batch being run; swapped with a strand's queue so a visit
  /// allocates nothing.
  std::deque<NodeRuntime::Task> batch;
};

thread_local RunnerState runner;

std::int64_t thread_cpu_ns() {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

obs::Counter& stall_rescues() {
  static obs::Counter& c = obs::metrics().counter("runtime.stall_rescues");
  return c;
}

}  // namespace

NodeRuntime::NodeRuntime(int num_nodes) {
  assert(num_nodes >= 1);
  stall_rescues();  // registered from the start, so the series reads 0
  nodes_.reserve(static_cast<std::size_t>(num_nodes));
  for (int n = 0; n < num_nodes; ++n) nodes_.push_back(std::make_unique<Node>());
  for (auto& node : nodes_) {
    node->thread = std::thread([this, &n = *node]() { drain(n, /*helper=*/false); });
  }
  monitor_ = std::thread([this]() { monitor_loop(); });
}

NodeRuntime::~NodeRuntime() {
  assert(attached_.load() == 0);
  {
    std::lock_guard<std::mutex> lock(monitor_mutex_);
    monitor_stop_ = true;
  }
  monitor_cv_.notify_all();
  monitor_.join();
  for (Helper& h : helpers_) h.thread.join();
  for (auto& node : nodes_) {
    {
      std::lock_guard<std::mutex> lock(node->mutex);
      node->stop = true;
    }
    node->cv.notify_all();
    node->thread.join();
  }
}

void NodeRuntime::attach() { attached_.fetch_add(1); }

void NodeRuntime::detach() { attached_.fetch_sub(1); }

void NodeRuntime::quiesce(Account& account) {
  if (account.active_strands.load() == 0) return;
  quiescing_.fetch_add(1);
  {
    std::unique_lock<std::mutex> lock(drain_mutex_);
    drain_cv_.wait(lock, [&account]() { return account.active_strands.load() == 0; });
  }
  quiescing_.fetch_sub(1);
}

void NodeRuntime::post(Strand& strand, Task task) {
  Node& node = *nodes_[static_cast<std::size_t>(strand.node)];
  bool wake = false;
  bool queued = false;
  {
    std::lock_guard<std::mutex> lock(node.mutex);
    strand.tasks.push_back(std::move(task));
    if (!strand.active) {
      strand.active = true;
      strand.account->active_strands.fetch_add(1);
      node.ready.push_back(&strand);
      queued = true;
      wake = node.idle_runners > 0;
    }
  }
  if (wake) {
    node.cv.notify_one();
  } else if (queued) {
    arm_monitor();  // the strand waits behind a busy runner
  }
}

bool NodeRuntime::on_strand(const Strand& strand) { return runner.current == &strand; }

void NodeRuntime::drain(Node& node, bool helper) {
  std::unique_lock<std::mutex> lock(node.mutex);
  for (;;) {
    if (node.ready.empty()) {
      if (helper || node.stop) break;
      ++node.idle_runners;
      runner.clock_fresh = false;
      node.cv.wait(lock, [&node]() { return node.stop || !node.ready.empty(); });
      --node.idle_runners;
      continue;
    }
    Strand& strand = *node.ready.front();
    node.ready.pop_front();
    const bool others_wait = !node.ready.empty();
    lock.unlock();
    // A strand posted while this runner was waking saw it idle and did
    // not arm the monitor; from here on it waits behind a busy runner.
    if (others_wait) arm_monitor();
    run_strand(node, strand);
    lock.lock();
  }
  if (helper) --node.runners;
}

void NodeRuntime::run_strand(Node& node, Strand& strand) {
  RunnerState& me = runner;
  me.current = &strand;
  if (!me.clock_fresh) me.last_cpu_ns = thread_cpu_ns();
  std::unique_lock<std::mutex> lock(node.mutex);
  // Keep running this strand while no other strand waits for the node.
  do {
    me.batch.swap(strand.tasks);
    lock.unlock();
    for (Task& task : me.batch) {
      task();
      node.tasks_done.fetch_add(1, std::memory_order_relaxed);
    }
    me.batch.clear();
    lock.lock();
  } while (!strand.tasks.empty() && node.ready.empty());
  lock.unlock();

  // Bill the run before publishing the strand: once it is requeued or
  // released, its context may be destroyed.
  Account& account = *strand.account;
  const std::int64_t now = thread_cpu_ns();
  account.cpu_ns.fetch_add(now - me.last_cpu_ns, std::memory_order_relaxed);
  me.last_cpu_ns = now;
  me.clock_fresh = true;
  me.current = nullptr;

  lock.lock();
  if (!strand.tasks.empty()) {
    node.ready.push_back(&strand);  // rotate: other strands go first
    lock.unlock();
    arm_monitor();
    return;
  }
  strand.active = false;
  lock.unlock();
  release(account);
}

void NodeRuntime::release(Account& account) {
  // Nothing may touch `account` after the decrement: quiesce() may
  // return on it.  The sequentially consistent pair (decrement, then
  // read quiescing_) against quiesce()'s (raise quiescing_, then read
  // the count) guarantees a waiting quiesce() is notified.
  if (account.active_strands.fetch_sub(1) == 1 && quiescing_.load() > 0) {
    std::lock_guard<std::mutex> lock(drain_mutex_);
    drain_cv_.notify_all();
  }
}

void NodeRuntime::arm_monitor() {
  // The monitor re-scans after publishing idleness, and every push to a
  // ready queue happens under its node's mutex, so either that scan
  // sees this strand or this load sees the monitor idle.
  if (monitor_idle_.load() && monitor_idle_.exchange(false)) {
    std::lock_guard<std::mutex> lock(monitor_mutex_);
    monitor_cv_.notify_one();
  }
}

void NodeRuntime::monitor_loop() {
  std::unique_lock<std::mutex> lock(monitor_mutex_);
  while (!monitor_stop_) {
    if (monitor_idle_.load()) {
      monitor_cv_.wait(lock, [this]() { return monitor_stop_ || !monitor_idle_.load(); });
      continue;
    }
    lock.unlock();
    bool backlog = scan();
    if (!backlog) {
      monitor_idle_.store(true);
      if (scan()) {
        monitor_idle_.store(false);
        backlog = true;
      }
    }
    lock.lock();
    if (backlog) {
      monitor_cv_.wait_for(lock, kStallThreshold / 2, [this]() { return monitor_stop_; });
    }
  }
}

bool NodeRuntime::scan() {
  const auto now = std::chrono::steady_clock::now();
  bool backlog = false;
  for (auto& node_ptr : nodes_) {
    Node& node = *node_ptr;
    {
      std::lock_guard<std::mutex> lock(node.mutex);
      if (node.ready.empty() || node.idle_runners > 0) {
        node.watching = false;
        continue;
      }
      backlog = true;
      const std::uint64_t done = node.tasks_done.load(std::memory_order_relaxed);
      if (!node.watching || done != node.seen_done) {
        node.watching = true;
        node.seen_done = done;
        node.seen_at = now;
        continue;
      }
      // A blocked runner holds one run's strand: a node never needs
      // more runners than there are runs.
      if (now - node.seen_at < kStallThreshold || node.runners >= attached_.load()) {
        continue;
      }
      ++node.runners;
      node.seen_at = now;
    }
    stall_rescues().add();
    Helper& helper = helpers_.emplace_back();
    helper.thread = std::thread([this, &node, &helper]() {
      drain(node, /*helper=*/true);
      helper.done.store(true, std::memory_order_release);
    });
  }
  helpers_.remove_if([](Helper& h) {
    if (!h.done.load(std::memory_order_acquire)) return false;
    h.thread.join();
    return true;
  });
  return backlog;
}

}  // namespace adr
