#include "runtime/adaptive/controller.hpp"

#include "obs/exposition.hpp"
#include "obs/metrics.hpp"

namespace adr {

namespace {

/// adaptive.* instruments, resolved once (registry lookups are mutexed).
struct AdaptiveMetrics {
  obs::Counter& ticks;
  obs::Counter& window_opens;
  obs::Counter& window_closes;
  obs::Gauge& gang_window_us;
};

AdaptiveMetrics& adaptive_metrics() {
  static AdaptiveMetrics m{obs::metrics().counter("adaptive.ticks"),
                           obs::metrics().counter("adaptive.window_opens"),
                           obs::metrics().counter("adaptive.window_closes"),
                           obs::metrics().gauge("adaptive.gang_window_us")};
  return m;
}

double counter_rate_for(const obs::TelemetrySample& prev,
                        const obs::TelemetrySample& cur,
                        const std::string& name, double dt_s) {
  const std::uint64_t* p = prev.snapshot.counter(name);
  const std::uint64_t* c = cur.snapshot.counter(name);
  if (p == nullptr || c == nullptr) return 0.0;
  return obs::counter_rate(*p, *c, dt_s);
}

}  // namespace

AdaptiveController::AdaptiveController(const AdaptiveOptions& options,
                                       Actuators actuators)
    : options_(options), actuators_(std::move(actuators)) {}

AdaptiveController::~AdaptiveController() { stop(); }

void AdaptiveController::start() {
  {
    std::lock_guard<std::mutex> lk(thread_mutex_);
    if (thread_running_) return;
    thread_running_ = true;
  }
  // Establish the starting point before any load arrives: window closed.
  AdaptiveDecision d;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    d.gang_window = window_open_ ? options_.gang_window
                                 : std::chrono::microseconds{0};
  }
  apply(d);
  thread_ = std::thread([this] { thread_main(); });
}

void AdaptiveController::stop() {
  {
    std::lock_guard<std::mutex> lk(thread_mutex_);
    if (!thread_running_) return;
    thread_running_ = false;
  }
  thread_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

AdaptiveDecision AdaptiveController::step(const AdaptiveSignals& signals) {
  std::lock_guard<std::mutex> lk(mutex_);
  AdaptiveDecision d;
  const double mean_gang = signals.gangs_per_s > 0.0
                               ? signals.gang_members_per_s / signals.gangs_per_s
                               : 0.0;
  if (!window_open_) {
    if (signals.arrival_qps >= options_.gang_open_qps) {
      ++open_streak_;
    } else {
      open_streak_ = 0;
    }
    if (open_streak_ >= options_.scale_up_ticks) {
      window_open_ = true;
      open_streak_ = 0;
      d.window_opened = true;
    }
  } else {
    const bool quiet = signals.arrival_qps <= options_.gang_close_qps;
    // Gangs forming but averaging ~1 member: the window is pure latency
    // tax.  Only meaningful while gangs are actually being formed.
    const bool unproductive =
        signals.gangs_per_s > 0.0 && mean_gang < options_.min_mean_gang;
    if (quiet || unproductive) {
      ++close_streak_;
    } else {
      close_streak_ = 0;
    }
    if (close_streak_ >= options_.scale_down_ticks) {
      window_open_ = false;
      close_streak_ = 0;
      d.window_closed = true;
    }
  }

  d.gang_window =
      window_open_ ? options_.gang_window : std::chrono::microseconds{0};
  return d;
}

bool AdaptiveController::tick_now() {
  auto history = obs::sampler().history(2);
  if (history.size() < 2) return false;
  const obs::TelemetrySample& prev = history[history.size() - 2];
  const obs::TelemetrySample& cur = history.back();
  {
    std::lock_guard<std::mutex> lk(mutex_);
    if (cur.mono_ms <= last_sample_mono_ms_) return false;
    last_sample_mono_ms_ = cur.mono_ms;
  }
  const AdaptiveDecision d = step(signals_from(prev, cur));
  apply(d);
  return true;
}

AdaptiveSignals AdaptiveController::signals_from(
    const obs::TelemetrySample& prev, const obs::TelemetrySample& cur) {
  AdaptiveSignals s;
  s.interval_s =
      static_cast<double>(cur.mono_ms - prev.mono_ms) / 1000.0;
  if (s.interval_s <= 0.0) return s;

  s.arrival_qps =
      counter_rate_for(prev, cur, "scheduler.enqueued", s.interval_s);
  s.gangs_per_s = counter_rate_for(prev, cur, "batch.gangs", s.interval_s);
  s.gang_members_per_s =
      counter_rate_for(prev, cur, "batch.members", s.interval_s);
  return s;
}

std::chrono::microseconds AdaptiveController::gang_window() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return window_open_ ? options_.gang_window : std::chrono::microseconds{0};
}

void AdaptiveController::thread_main() {
  std::unique_lock<std::mutex> lk(thread_mutex_);
  while (thread_running_) {
    thread_cv_.wait_for(lk, options_.tick, [this] { return !thread_running_; });
    if (!thread_running_) break;
    lk.unlock();
    tick_now();
    lk.lock();
  }
}

void AdaptiveController::apply(const AdaptiveDecision& d) {
  AdaptiveMetrics& m = adaptive_metrics();
  m.ticks.add();
  if (d.window_opened) m.window_opens.add();
  if (d.window_closed) m.window_closes.add();
  m.gang_window_us.set(static_cast<std::int64_t>(d.gang_window.count()));
  if (actuators_.set_gang_window) actuators_.set_gang_window(d.gang_window);
}

}  // namespace adr
