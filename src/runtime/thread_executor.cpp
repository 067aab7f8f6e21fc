#include "runtime/thread_executor.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <stdexcept>

#include "common/fault.hpp"

namespace adr {

ThreadExecutor::ThreadExecutor(NodeRuntime& runtime, int disks_per_node, ChunkStore* store)
    : runtime_(runtime),
      disks_per_node_(disks_per_node),
      store_(store),
      strands_(static_cast<std::size_t>(runtime.num_nodes())) {
  assert(disks_per_node >= 1);
  if (store_ != nullptr && store_->num_disks() != num_nodes() * disks_per_node) {
    throw std::invalid_argument("ThreadExecutor: store disk count mismatch");
  }
  for (int n = 0; n < num_nodes(); ++n) {
    strands_[static_cast<std::size_t>(n)].account = &account_;
    strands_[static_cast<std::size_t>(n)].node = n;
  }
  epoch_ = std::chrono::steady_clock::now();
  runtime_.attach();
}

ThreadExecutor::~ThreadExecutor() {
  runtime_.quiesce(account_);
  runtime_.detach();
}

double ThreadExecutor::last_run_cpu_seconds() const { return last_run_cpu_s_; }

void ThreadExecutor::post(int node, Task task) {
  assert(node >= 0 && node < num_nodes());
  runtime_.post(strands_[static_cast<std::size_t>(node)], std::move(task));
}

void ThreadExecutor::read(int node, int global_disk, ChunkId id, std::uint64_t bytes,
                          ReadCallback done) {
  (void)bytes;
  assert(node_of_disk(global_disk) == node);
  // A throwing fetch (disk fault, injected error) must not unwind the
  // node thread — that would terminate the process.  Record the error
  // and deliver nullopt: the engine degrades exactly as for a missing
  // chunk, the run completes, and run() rethrows the recorded status.
  post(node, [this, global_disk, id, done = std::move(done)]() {
    std::optional<Chunk> chunk;
    if (store_ != nullptr) {
      try {
        chunk = store_->get(global_disk, id);
      } catch (const StatusError& e) {
        record_run_error(e.to_status());
      } catch (const std::exception& e) {
        record_run_error(status_from_exception(e));
      }
    }
    done(std::move(chunk));
  });
}

void ThreadExecutor::write(int node, int global_disk, Chunk chunk, Task done) {
  assert(node_of_disk(global_disk) == node);
  (void)global_disk;
  post(node, [this, chunk = std::move(chunk), done = std::move(done)]() mutable {
    if (store_ != nullptr) {
      try {
        store_->put(std::move(chunk));
      } catch (const StatusError& e) {
        record_run_error(e.to_status());
      } catch (const std::exception& e) {
        record_run_error(status_from_exception(e));
      }
    }
    done();  // the phase state machine must still advance past the write
  });
}

void ThreadExecutor::send(Message msg) {
  assert(handler_ != nullptr);
  const int dst = msg.dst;
  // Capture the handler by reference to the member: it is set once before
  // execution starts and never mutated afterwards.
  post(dst, [this, msg = std::move(msg)]() { handler_(msg); });
}

void ThreadExecutor::set_message_handler(MessageHandler handler) {
  handler_ = std::move(handler);
}

void ThreadExecutor::compute(int node, double cost_seconds, Task done) {
  (void)cost_seconds;  // real work costs real time on this executor
  // Already in node's context (the contract): run the work now instead
  // of queueing it behind the node's other tasks.
  assert(NodeRuntime::on_strand(strands_[static_cast<size_t>(node)]));
  (void)node;
  // Injected per-tile reduction failure: record it (failing the run
  // after completion) but still run the continuation so the engine's
  // phase accounting stays balanced.
  const Status injected = fault::faults().evaluate("runtime.compute");
  if (!injected.ok()) record_run_error(injected);
  done();
}

void ThreadExecutor::barrier(int node, Task done) {
  std::vector<std::pair<int, Task>> release;
  {
    std::lock_guard<std::mutex> lock(barrier_mutex_);
    barrier_waiters_.emplace_back(node, std::move(done));
    if (static_cast<int>(barrier_waiters_.size()) == num_nodes()) {
      release = std::move(barrier_waiters_);
      barrier_waiters_.clear();
    }
  }
  for (auto& [n, task] : release) post(n, std::move(task));
}

void ThreadExecutor::window_sync(int node, int epoch, int lag, Task done) {
  std::vector<WindowWaiter> ready;
  {
    std::lock_guard<std::mutex> lock(window_mutex_);
    if (epoch_completed_.empty()) {
      epoch_completed_.assign(static_cast<size_t>(num_nodes()), -1);
    }
    epoch_completed_[static_cast<size_t>(node)] =
        std::max(epoch_completed_[static_cast<size_t>(node)], epoch);
    window_waiters_.push_back(WindowWaiter{node, epoch, lag, std::move(done)});
    const int min_done =
        *std::min_element(epoch_completed_.begin(), epoch_completed_.end());
    std::erase_if(window_waiters_, [min_done, &ready](WindowWaiter& w) {
      if (w.epoch - w.lag <= min_done) {
        ready.push_back(std::move(w));
        return true;
      }
      return false;
    });
  }
  for (WindowWaiter& w : ready) post(w.node, std::move(w.task));
}

void ThreadExecutor::finish(int node) {
  (void)node;
  {
    std::lock_guard<std::mutex> lock(done_mutex_);
    ++finished_;
  }
  done_cv_.notify_all();
}

double ThreadExecutor::run(std::function<void(int)> entry) {
  // Reset per-run state so one context serves several runs.  A
  // correctly finished run leaves the waiter lists empty (every barrier
  // releases, every window waiter fires before finish); the clears keep
  // a stale entry from a buggy engine from leaking into the next run.
  {
    std::lock_guard<std::mutex> lock(done_mutex_);
    finished_ = 0;
  }
  {
    std::lock_guard<std::mutex> lock(error_mutex_);
    run_error_ = Status::make_ok();
  }
  {
    std::lock_guard<std::mutex> lock(barrier_mutex_);
    assert(barrier_waiters_.empty());
    barrier_waiters_.clear();
  }
  {
    std::lock_guard<std::mutex> lock(window_mutex_);
    assert(window_waiters_.empty());
    window_waiters_.clear();
    epoch_completed_.clear();
  }
  const std::int64_t cpu_before = account_.cpu_ns.load(std::memory_order_relaxed);
  const auto start = std::chrono::steady_clock::now();
  for (int n = 0; n < num_nodes(); ++n) {
    post(n, [entry, n]() { entry(n); });
  }
  {
    std::unique_lock<std::mutex> lock(done_mutex_);
    done_cv_.wait(lock, [this]() { return finished_ == num_nodes(); });
    ++completed_runs_;
  }
  const auto end = std::chrono::steady_clock::now();
  // The tasks that called finish() may still be returning; wait them
  // out so the next run (or the destructor) never races this one's
  // tails, and so their CPU is billed to this run.
  runtime_.quiesce(account_);
  last_run_cpu_s_ = std::max<double>(
      0.0, static_cast<double>(account_.cpu_ns.load(std::memory_order_relaxed) - cpu_before) *
               1e-9);
  // Surface the first node-task failure only after every node finished,
  // so a failed run leaves no barrier or window waiter behind.
  {
    std::lock_guard<std::mutex> lock(error_mutex_);
    if (!run_error_.ok()) {
      throw StatusError(run_error_.code, run_error_.message);
    }
  }
  return std::chrono::duration<double>(end - start).count();
}

void ThreadExecutor::record_run_error(Status status) {
  if (status.ok()) return;
  std::lock_guard<std::mutex> lock(error_mutex_);
  if (run_error_.ok()) run_error_ = std::move(status);
}

std::uint64_t ThreadExecutor::completed_runs() const {
  std::lock_guard<std::mutex> lock(done_mutex_);
  return completed_runs_;
}

double ThreadExecutor::now_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
}

}  // namespace adr
