#include "runtime/adaptive/controller.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "obs/sampler.hpp"

namespace adr {
namespace {

using std::chrono::microseconds;

/// Fast hysteresis: decisions land within a handful of steps so each test
/// reads as a golden trace.
AdaptiveOptions test_options() {
  AdaptiveOptions o;
  o.enabled = true;
  o.scale_up_ticks = 2;
  o.scale_down_ticks = 3;
  o.gang_open_qps = 32.0;
  o.gang_close_qps = 8.0;
  o.min_mean_gang = 1.2;
  o.gang_window = microseconds{1500};
  return o;
}

TEST(Adaptive, GangWindowOpensOnArrivalRateAndClosesWhenQuiet) {
  AdaptiveOptions o = test_options();
  AdaptiveController c(o, {});
  EXPECT_EQ(c.gang_window(), microseconds{0});

  AdaptiveSignals busy;
  busy.arrival_qps = 64.0;
  busy.gangs_per_s = 4.0;
  busy.gang_members_per_s = 12.0;  // mean gang 3: batching is paying
  c.step(busy);
  AdaptiveDecision d = c.step(busy);
  EXPECT_TRUE(d.window_opened);
  EXPECT_EQ(d.gang_window, o.gang_window);
  EXPECT_EQ(c.gang_window(), o.gang_window);

  // Productive high-rate ticks keep it open indefinitely.
  for (int i = 0; i < 10; ++i) {
    d = c.step(busy);
    EXPECT_FALSE(d.window_closed);
  }

  // Arrivals fall below gang_close_qps: closes after scale_down_ticks.
  AdaptiveSignals quiet;
  quiet.arrival_qps = 2.0;
  int closed_at = -1;
  for (int i = 0; i < 5; ++i) {
    if (c.step(quiet).window_closed) {
      closed_at = i;
      break;
    }
  }
  EXPECT_EQ(closed_at, 2);  // third consecutive quiet tick
  EXPECT_EQ(c.gang_window(), microseconds{0});
}

TEST(Adaptive, UnproductiveGangsCloseTheWindow) {
  AdaptiveOptions o = test_options();
  AdaptiveController c(o, {});

  AdaptiveSignals productive;
  productive.arrival_qps = 64.0;
  productive.gangs_per_s = 4.0;
  productive.gang_members_per_s = 12.0;
  c.step(productive);
  ASSERT_TRUE(c.step(productive).window_opened);

  // Arrival rate stays hot, but gangs average ~1 member: the window is
  // pure latency tax and must close even under load.
  AdaptiveSignals lonely;
  lonely.arrival_qps = 64.0;
  lonely.gangs_per_s = 10.0;
  lonely.gang_members_per_s = 10.5;  // mean 1.05 < min_mean_gang
  bool closed = false;
  for (int i = 0; i < o.scale_down_ticks; ++i) closed = c.step(lonely).window_closed;
  EXPECT_TRUE(closed);
  EXPECT_EQ(c.gang_window(), microseconds{0});
}

TEST(Adaptive, StartAppliesInitialTargetsThroughActuators) {
  AdaptiveOptions o = test_options();
  o.tick = std::chrono::milliseconds{50};

  std::vector<microseconds> windows;
  AdaptiveController::Actuators act;
  act.set_gang_window = [&](microseconds w) { windows.push_back(w); };
  AdaptiveController c(o, std::move(act));

  c.start();
  c.stop();
  // start() closes the window before the tick thread sees any samples.
  ASSERT_FALSE(windows.empty());
  EXPECT_EQ(windows.front(), microseconds{0});
}

TEST(Adaptive, SignalsFromRingSamplesComputesRates) {
  obs::TelemetrySample prev;
  prev.mono_ms = 1000;
  prev.snapshot.counters = {{"batch.gangs", 10},
                            {"batch.members", 30},
                            {"scheduler.enqueued", 120}};

  obs::TelemetrySample cur = prev;
  cur.mono_ms = 3000;  // 2 s window
  cur.snapshot.counters = {{"batch.gangs", 14},
                           {"batch.members", 42},
                           {"scheduler.enqueued", 200}};

  const AdaptiveSignals s = AdaptiveController::signals_from(prev, cur);
  EXPECT_DOUBLE_EQ(s.interval_s, 2.0);
  EXPECT_DOUBLE_EQ(s.arrival_qps, 40.0);  // (200 - 120) / 2
  EXPECT_DOUBLE_EQ(s.gangs_per_s, 2.0);   // (14 - 10) / 2
  EXPECT_DOUBLE_EQ(s.gang_members_per_s, 6.0);

  // Zero-length interval invalidates every rate.
  const AdaptiveSignals degenerate = AdaptiveController::signals_from(cur, cur);
  EXPECT_DOUBLE_EQ(degenerate.interval_s, 0.0);
  EXPECT_DOUBLE_EQ(degenerate.arrival_qps, 0.0);
}

}  // namespace
}  // namespace adr
