// One validated configuration for the serving runtime.
//
// The serving tier grew its knobs one PR at a time: the executor pool
// cap on RepositoryConfig, GangPolicy on QuerySubmissionService,
// max_pending / worker counts as constructor arguments, TelemetryOptions
// on AdrServer, and now the adaptive controller's band.  RuntimeConfig
// consolidates them into a single struct that Repository,
// QuerySubmissionService and AdrServer all accept, with validate()
// catching inconsistent settings (empty bands, inverted thresholds)
// once, up front, instead of as scattered surprises at runtime.
//
//   adr::RuntimeConfig rt;
//   rt.executor_pool_size = 4;
//   rt.adaptive.enabled = true;
//   rt.adaptive.max_resident = 8;
//   rt.check();                       // throws kInvalidArgument on nonsense
//   adr::net::AdrServer server(repo, port, costs, rt);
//
// AdrServer takes only this form.  Repository and
// QuerySubmissionService keep their older constructors alongside the
// RuntimeConfig overloads.
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

/// Every dynamic-runtime knob in one place.  Field defaults reproduce
/// the historical constructor defaults of the components they feed.
struct RuntimeConfig {
  /// Warm executors kept resident between submits (the adaptive
  /// controller moves the cap inside [adaptive.min_resident,
  /// adaptive.max_resident] when enabled; this is the starting value).
  std::size_t executor_pool_size = 2;
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
