// Adaptive runtime controller: closes the loop from the telemetry
// sampler's time series back onto the runtime's dynamic knobs.
//
// The submission service's gang-formation window was static at
// construction.  Batching wins only when near-simultaneous overlapping
// queries are likely, which depends on offered load, so the right value
// changes minute to minute.  AdaptiveController is a small feedback
// controller that reads the sampler ring (obs/sampler.hpp) each tick and
// actuates the gang-formation window: opened only when the arrival rate
// says overlapping queries are likely, closed again under light load —
// and closed early when the batch.* series show gangs are forming but
// not actually sharing (mean gang size ~ 1) — so idle-period latency is
// never taxed by the wait.  Streak counters (scale_up_ticks /
// scale_down_ticks consecutive observations) provide hysteresis so a
// noisy signal cannot flap the window.
//
// Decisions are a pure function of (signals, internal streak state):
// step() takes an explicit AdaptiveSignals and returns the decision, so
// tests drive the controller over synthetic time series without a
// sampler, a clock, or a running server.  The background thread is a
// thin shell: extract signals from the two newest ring samples, step,
// apply through the injected actuator.
//
// Metrics: adaptive.ticks/window_opens/window_closes counters and the
// adaptive.gang_window_us gauge (catalog: docs/observability.md).
// Policy walkthrough: docs/scheduling.md.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>

#include "obs/sampler.hpp"

namespace adr {

/// Controller tuning.  Defaults are deliberately conservative: a burst
/// must persist for scale_up_ticks sampler intervals before the window
/// opens, and closing takes scale_down_ticks quiet intervals.
struct AdaptiveOptions {
  /// Master switch (RuntimeConfig carries this struct; a disabled
  /// controller is never constructed).
  bool enabled = false;

  /// Hysteresis: consecutive busy / quiet ticks required before the
  /// gang window opens / closes.
  int scale_up_ticks = 2;
  int scale_down_ticks = 5;

  /// Gang window control: open at sustained arrival >= gang_open_qps,
  /// close at arrival <= gang_close_qps (close <= open for hysteresis).
  double gang_open_qps = 32.0;
  double gang_close_qps = 8.0;
  /// With the window open, a mean formed-gang size below this means
  /// batching is not paying for the wait — counts toward closing.
  double min_mean_gang = 1.2;
  /// The window handed to the submission service while open.
  std::chrono::microseconds gang_window{2000};

  /// Background thread poll period (decisions still advance at the
  /// sampler's cadence — a tick without a new ring sample is a no-op).
  std::chrono::milliseconds tick{200};
};

/// One tick's input, extracted from two adjacent sampler ring samples
/// (or synthesized directly in tests).
struct AdaptiveSignals {
  /// Interval between the two samples; <= 0 invalidates the rates.
  double interval_s = 1.0;
  /// scheduler.enqueued rate over the interval (accepted arrivals/s).
  double arrival_qps = 0.0;
  /// batch.gangs / batch.members rates (the overlap signal).
  double gangs_per_s = 0.0;
  double gang_members_per_s = 0.0;
};

/// What one step decided.  gang_window is the *current* target
/// (post-decision); the booleans flag this step's transitions.
struct AdaptiveDecision {
  std::chrono::microseconds gang_window{0};
  bool window_opened = false;
  bool window_closed = false;
};

class AdaptiveController {
 public:
  /// How decisions reach the runtime.  Injected so the controller never
  /// holds scheduler locks itself (and so tests can record calls).
  struct Actuators {
    /// Apply a new gang-formation window (0 = closed).
    std::function<void(std::chrono::microseconds)> set_gang_window;
  };

  AdaptiveController(const AdaptiveOptions& options, Actuators actuators);
  ~AdaptiveController();

  AdaptiveController(const AdaptiveController&) = delete;
  AdaptiveController& operator=(const AdaptiveController&) = delete;

  /// Applies the initial target (window closed) and spawns the tick
  /// thread.  No-op when already started.
  void start();
  /// Joins the tick thread.  Safe to call repeatedly / without start().
  void stop();

  /// One pure control step over explicit signals: updates streak state,
  /// moves the targets, returns the decision.  Does NOT actuate — the
  /// tick loop (or a test) applies the result.  Thread-safe.
  AdaptiveDecision step(const AdaptiveSignals& signals);

  /// One poll of the sampler ring: if a new sample landed since the
  /// last poll, extract signals, step, and actuate.  Returns true when
  /// a step ran.  Called by the tick thread; exposed for deterministic
  /// tests and benches driving obs::sampler().sample_now() themselves.
  bool tick_now();

  /// Extracts one tick's signals from two adjacent ring samples
  /// (reset-aware rates; see obs/exposition.hpp).
  static AdaptiveSignals signals_from(const obs::TelemetrySample& prev,
                                      const obs::TelemetrySample& cur);

  /// Current target (what the last step decided).
  std::chrono::microseconds gang_window() const;

  const AdaptiveOptions& options() const { return options_; }

 private:
  void thread_main();
  void apply(const AdaptiveDecision& d);

  const AdaptiveOptions options_;
  const Actuators actuators_;

  mutable std::mutex mutex_;
  bool window_open_ = false;
  int open_streak_ = 0;
  int close_streak_ = 0;
  /// mono_ms of the newest ring sample already consumed by tick_now().
  std::uint64_t last_sample_mono_ms_ = 0;

  std::mutex thread_mutex_;
  std::condition_variable thread_cv_;
  bool thread_running_ = false;
  std::thread thread_;
};

}  // namespace adr
