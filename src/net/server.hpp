// ADR front-end socket server.
//
// "The front-end interacts with client applications and relays the range
// queries to the back-end... The socket interface is used for sequential
// clients." (paper sections 1-2)
//
// AdrServer listens on a loopback TCP port and serves every client from
// one net::FrameLoop thread (net/frame_loop.hpp).  Each complete query
// frame goes to the server's QuerySubmissionService worker pool (the
// paper's query submission service), so execution concurrency is bounded
// by scheduler slots, not by a thread per connection.  A worker that
// finishes a query encodes the result frame and posts it back to the
// loop, which alone writes sockets.  docs/serving.md walks through the
// loop, back-pressure and fd life cycle.
//
// Back-pressure is protocol-level: past `max_connections`, or when the
// scheduler's pending queue is full, the server replies with a
// WireResult{kBusy, "server busy"} frame carrying a retry-after hint
// (live queue depth times measured submit latency), then closes.
//
// Observability: server.* series in obs::metrics() (catalog in
// docs/observability.md); a stats-request frame on any connection
// answers with the registry snapshot as JSON plus, optionally, the
// query-lifecycle trace and the sampler history (AdrClient::stats(),
// adr_stats).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/frontend.hpp"
#include "core/planner/cost_model.hpp"
#include "net/frame_loop.hpp"

namespace adr::net {

struct WireResult;
class HttpExpositionServer;

class AdrServer {
 public:
  /// Binds to 127.0.0.1:`port` (0 = pick an ephemeral port).  `costs`
  /// are the compute charges applied to every submitted query.
  /// `runtime` is validated here (throws StatusError{kInvalidArgument})
  /// and carries the connection cap, scheduler shape, gang policy,
  /// telemetry knobs and the adaptive controller's policy
  /// (core/runtime_config.hpp).  With runtime.adaptive.enabled the
  /// server owns an AdaptiveController that moves the scheduler's gang
  /// window from live sampler signals for the server's lifetime.
  AdrServer(Repository& repository, std::uint16_t port, const ComputeCosts& costs = {},
            const RuntimeConfig& runtime = {});
  ~AdrServer();

  AdrServer(const AdrServer&) = delete;
  AdrServer& operator=(const AdrServer&) = delete;

  /// Starts the event loop on a background thread.
  void start();

  /// Graceful drain: stops accepting, lets in-flight queries finish and
  /// flushes their result frames (bounded per-connection drain
  /// deadlines, so a peer that never reads cannot hold stop() hostage),
  /// then joins the loop thread and the scheduler workers.
  void stop();

  /// The bound port (valid after construction).
  std::uint16_t port() const { return loop_.port(); }

  /// The HTTP exposition port, or 0 when TelemetryOptions::http_port
  /// disabled it (valid after construction).
  std::uint16_t http_port() const;

  std::uint64_t queries_served() const { return served_.load(); }

  /// Connections currently being served.  Lock-free: never waits on
  /// connection I/O.
  std::size_t active_connections() const { return loop_.active_connections(); }

  /// Connections refused because max_connections was reached (each got a
  /// "server busy" frame before the close).
  std::uint64_t connections_refused() const { return loop_.connections_refused(); }

  /// Queries refused because the scheduler's pending queue was full.
  std::uint64_t queries_refused() const { return queries_refused_.load(); }

  /// Queries refused at admission because their Qos deadline had already
  /// expired, or a saturated-path retry hint overshot it (each got a
  /// typed kDeadlineExceeded frame).
  std::uint64_t deadline_refusals() const { return deadline_refusals_.load(); }

  /// The adaptive controller, or nullptr when runtime.adaptive.enabled
  /// was off.
  const AdaptiveController* adaptive() const { return adaptive_.get(); }

 private:
  /// FrameLoop handler (loop thread): answers stats requests and
  /// refusals at once; admitted queries answer later from
  /// on_ticket_done().
  std::optional<FrameLoop::Reply> handle_frame(std::uint64_t conn,
                                               std::vector<std::byte> payload);
  /// Scheduler completion hook (worker thread): takes the outcome,
  /// encodes the result frame and posts it to the loop.
  void on_ticket_done(std::uint64_t ticket);
  /// A result reply, passed through the `net.reply_drop` fault point.
  FrameLoop::Reply reply(const WireResult& result, bool close_after = false);

  /// Retry-after estimate for busy refusals: the queue the caller would
  /// sit behind (live scheduler depth gauges) times the measured mean
  /// submit latency, per worker.
  std::uint32_t retry_after_hint_ms() const;
  std::vector<std::byte> busy_frame() const;

  Repository* repository_;
  ComputeCosts costs_;
  TelemetryOptions telemetry_;
  const int scheduler_workers_;
  /// Constructed eagerly (the bind can throw; callers learn at
  /// construction, not at start()); serving begins in start().
  std::unique_ptr<HttpExpositionServer> http_;
  /// Routes every query; bounded by scheduler slots, shared by all
  /// connections.
  QuerySubmissionService scheduler_;
  /// Feedback controller over the gang window; non-null
  /// only with runtime.adaptive.enabled.
  std::unique_ptr<AdaptiveController> adaptive_;
  FrameLoop loop_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> queries_refused_{0};
  std::atomic<std::uint64_t> deadline_refusals_{0};

  /// In-flight ticket -> loop connection id.  Filled on the loop thread
  /// in the same critical section as try_enqueue, so a worker that
  /// finishes the ticket first still finds it.
  std::mutex tickets_mutex_;
  std::unordered_map<std::uint64_t, std::uint64_t> ticket_conn_;
};

}  // namespace adr::net
