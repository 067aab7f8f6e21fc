// Plain-HTTP telemetry exposition listener.
//
// A deliberately tiny HTTP/1.0 GET server on its own loopback port so
// stock scrapers (Prometheus, curl, adr_top's fallback path) can read
// the process's telemetry without speaking the ADR wire protocol.  It
// serves exactly three read-only paths:
//
//   /metrics      the live obs::metrics() registry in Prometheus text
//                 exposition format 0.0.4 (see obs/exposition.hpp)
//   /history      the telemetry sampler's time-series ring as JSON;
//                 ?n=<k> caps the reply to the k most recent samples
//   /healthz      liveness probe ("ok")
//
// It runs on the same pieces as the frame-serving loop
// (net/frame_loop.hpp): a Listener with accept backoff, a Wakeup and
// the Poller.  It never blocks on a peer: one background thread owns
// every fd, sockets are non-blocking, request heads are capped at a few
// KiB and each connection carries a hard deadline, so a scraper that
// stalls mid-request is cut off instead of wedging the listener.  Responses
// declare Content-Length and the connection closes after each exchange
// (HTTP/1.0 semantics) — no keep-alive state to manage.
//
// Serving is read-only and lock-light: a request snapshots the metrics
// registry / sampler ring and renders; nothing on the query hot path is
// touched.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

#include "net/frame_loop.hpp"

namespace adr::net {

class HttpExpositionServer {
 public:
  /// Binds 127.0.0.1:`port` (0 = pick an ephemeral port).  The socket
  /// exists after construction; serving starts with start().
  explicit HttpExpositionServer(std::uint16_t port);
  ~HttpExpositionServer();

  HttpExpositionServer(const HttpExpositionServer&) = delete;
  HttpExpositionServer& operator=(const HttpExpositionServer&) = delete;

  /// Starts the serving thread.  Idempotent.
  void start();
  /// Stops accepting, closes every connection, joins the thread.
  void stop();

  /// The bound port (valid after construction).
  std::uint16_t port() const { return listener_.port(); }

  /// Requests answered (any status) since construction.
  std::uint64_t requests_served() const { return served_.load(); }

 private:
  void loop();

  Listener listener_;
  /// stop() pokes the loop out of its wait.
  Wakeup wakeup_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> served_{0};
  std::thread thread_;
};

}  // namespace adr::net
