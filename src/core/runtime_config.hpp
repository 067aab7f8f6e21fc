// One validated configuration for the serving runtime.
//
// Every dynamic knob of the serving tier lives here: the scheduler's
// worker count, max_pending and gang policy, the connection cap,
// telemetry, and the adaptive controller's gang-window policy.  The
// node threads are not a knob: each Repository runs one per node (see
// runtime/node_runtime.hpp).  Repository, QuerySubmissionService and
// AdrServer each have one constructor and take this struct, with
// validate() catching inconsistent settings (inverted thresholds, zero
// caps) once, up front, instead of as scattered surprises at runtime.
//
//   adr::RuntimeConfig rt;
//   rt.scheduler_workers = 4;
//   rt.adaptive.enabled = true;
//   rt.check();                       // throws kInvalidArgument on nonsense
//   adr::Repository repo(cfg, rt);
//   adr::net::AdrServer server(repo, port, costs, rt);
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>

#include "common/status.hpp"
#include "runtime/adaptive/controller.hpp"

namespace adr {

/// Gang formation policy for QuerySubmissionService (see
/// docs/batching.md).  window == 0 still gangs queries that are already
/// queued together; a positive window also waits for near-simultaneous
/// arrivals.  Under the adaptive controller the window field is a
/// starting point — the controller opens/closes it from arrival rates.
struct GangPolicy {
  bool enabled = true;
  std::size_t max_gang = 8;
  std::chrono::microseconds window{0};
};

/// Background telemetry sampling for a serving process (the sampler
/// ring behind /history, adr_top, and the adaptive controller).
struct TelemetryOptions {
  /// Run the process-wide TelemetrySampler while the server runs.
  bool sampler = true;
  std::chrono::milliseconds sample_period{1000};
  std::size_t sample_capacity = 300;
  /// Port for the plaintext metrics endpoint (-1 = disabled, 0 = any).
  int http_port = -1;
};

/// Every dynamic-runtime knob in one place.
struct RuntimeConfig {
  /// Scheduler worker threads run by QuerySubmissionService/AdrServer.
  std::size_t scheduler_workers = 4;
  /// Accepted-but-unfinished query cap before enqueue blocks (or
  /// try_enqueue refuses with kBusy at the server boundary).
  std::size_t max_pending = 256;
  /// Concurrent connection cap for AdrServer.
  std::size_t max_connections = 64;

  GangPolicy gang;
  TelemetryOptions telemetry;
  AdaptiveOptions adaptive;

  /// Checks internal consistency; kInvalidArgument with a message
  /// naming the offending field on failure.
  Status validate() const;
  /// validate(), throwing StatusError{kInvalidArgument} on failure.
  void check() const;
};

}  // namespace adr
