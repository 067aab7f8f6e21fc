#include "net/server.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/fault.hpp"
#include "common/logging.hpp"
#include "net/http_exposition.hpp"
#include "net/wire.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"

namespace adr::net {
namespace {

// Cumulative process-wide series (metric catalog: docs/observability.md).
// The connection series (server.connections_*, .active_connections,
// .accept_errors, .epoll_wakeups, .frames_partial) belong to the
// FrameLoop named "server".
struct ServerMetrics {
  obs::Counter& queries_served;
  obs::Counter& queries_refused;
  obs::Counter& deadline_refusals;
  obs::Counter& stats_requests;
};

ServerMetrics& server_metrics() {
  static ServerMetrics m{obs::metrics().counter("server.queries_served"),
                         obs::metrics().counter("server.queries_refused"),
                         obs::metrics().counter("server.deadline_refusals"),
                         obs::metrics().counter("server.stats_requests")};
  return m;
}

/// Queries one connection may have in the scheduler at once before the
/// loop stops reading its socket (TCP back-pressure reaches the peer).
constexpr std::size_t kMaxPipelinedPerConn = 8;

}  // namespace

AdrServer::AdrServer(Repository& repository, std::uint16_t port,
                     const ComputeCosts& costs, const RuntimeConfig& runtime)
    : repository_((runtime.check(), &repository)),
      costs_(costs),
      telemetry_(runtime.telemetry),
      scheduler_workers_(static_cast<int>(runtime.scheduler_workers)),
      http_(runtime.telemetry.http_port >= 0
                ? std::make_unique<HttpExpositionServer>(
                      static_cast<std::uint16_t>(runtime.telemetry.http_port))
                : nullptr),
      scheduler_(repository, runtime.max_pending),
      loop_(port,
            FrameLoop::Options{.name = "server",
                               .max_connections = runtime.max_connections,
                               .max_outstanding = kMaxPipelinedPerConn,
                               .stop = FrameLoop::StopPolicy::kAwaitReplies},
            [this](std::uint64_t conn, std::vector<std::byte> payload) {
              return handle_frame(conn, std::move(payload));
            },
            [this]() { return busy_frame(); }) {
  scheduler_.set_gang_policy(runtime.gang);
  if (runtime.adaptive.enabled) {
    // Seed the pool at the band floor; the controller moves it from there.
    repository_->set_executor_pool_limit(runtime.adaptive.min_resident,
                                         runtime.adaptive.prewarm);
    AdaptiveController::Actuators act;
    const bool warm = runtime.adaptive.prewarm;
    act.set_resident = [this, warm](std::size_t n) {
      repository_->set_executor_pool_limit(n, warm);
    };
    act.set_gang_window = [this](std::chrono::microseconds w) {
      scheduler_.set_gang_window(w);
    };
    adaptive_ =
        std::make_unique<AdaptiveController>(runtime.adaptive, std::move(act));
  }
}

AdrServer::~AdrServer() { stop(); }

std::uint16_t AdrServer::http_port() const { return http_ ? http_->port() : 0; }

void AdrServer::start() {
  if (running_.exchange(true)) return;
  // Continuous telemetry for the server's lifetime: the sampler feeds
  // the /history endpoints (wire and HTTP); both are refcounted /
  // idempotent, so stacked servers in one process compose.
  if (telemetry_.sampler) {
    obs::TelemetrySampler::Options opts;
    opts.period = telemetry_.sample_period;
    opts.capacity = telemetry_.sample_capacity;
    obs::sampler().start(opts);
  }
  if (http_) http_->start();
  // Completion routing: workers encode the result and post it; the loop
  // alone writes to sockets.
  scheduler_.set_completion_callback(
      [this](std::uint64_t ticket) { on_ticket_done(ticket); });
  scheduler_.start(scheduler_workers_);
  // The controller needs the sampler ring the lines above started; its
  // tick thread no-ops until two samples exist.
  if (adaptive_) adaptive_->start();
  loop_.start();
}

void AdrServer::stop() {
  const bool was_running = running_.exchange(false);
  // The loop waits for in-flight replies (the scheduler is still
  // running), flushes them under the drain deadlines and closes every
  // connection.
  loop_.stop();
  if (http_) http_->stop();
  // Release the sampler ref taken in start() exactly once (stop() runs
  // again from the destructor).
  if (was_running && telemetry_.sampler) obs::sampler().stop();
  // The controller must not actuate a scheduler that is tearing down.
  if (adaptive_) adaptive_->stop();
  scheduler_.stop();
}

void AdrServer::on_ticket_done(std::uint64_t ticket) {
  std::uint64_t conn = 0;
  {
    std::lock_guard lock(tickets_mutex_);
    const auto it = ticket_conn_.find(ticket);
    if (it == ticket_conn_.end()) return;
    conn = it->second;
    ticket_conn_.erase(it);
  }
  auto outcome = scheduler_.try_take(ticket);
  if (!outcome.has_value()) return;
  WireResult result;
  if (outcome->ok()) {
    result = to_wire_result(outcome->result);
  } else {
    result.status = std::move(outcome->status);
    ADR_WARN("server: query failed: " << result.status.to_string());
  }
  const bool tracing = obs::tracer().enabled();
  const std::uint64_t reply_ts = tracing ? obs::tracer().now_us() : 0;
  FrameLoop::Reply r = reply(result);
  if (tracing) {
    // Last span of the query lifecycle: serializing the result frame.
    obs::TraceEvent ev;
    ev.name = "reply";
    ev.query = ticket;
    ev.ts_us = reply_ts;
    ev.dur_us = obs::tracer().now_us() - reply_ts;
    ev.tid = static_cast<std::uint32_t>(ticket);
    obs::tracer().record(ev);
  }
  loop_.post(conn, std::move(r));
}

FrameLoop::Reply AdrServer::reply(const WireResult& result, bool close_after) {
  FrameLoop::Reply r;
  // Injected reply drop: the query executed, but the result frame never
  // leaves the server — the client sees the connection close mid-query
  // (kUnavailable) and must decide whether to retry.
  if (fault::faults().fires("net.reply_drop")) {
    r.drop = true;
    return r;
  }
  r.frame = encode_result(result);
  r.close_after = close_after;
  if (result.ok()) {
    r.on_queued = [this]() {
      ++served_;
      server_metrics().queries_served.add();
    };
  }
  return r;
}

std::vector<std::byte> AdrServer::busy_frame() const {
  WireResult busy;
  busy.status = Status::make(StatusCode::kBusy, kServerBusyError);
  busy.retry_after_ms = retry_after_hint_ms();
  return encode_result(busy);
}

std::uint32_t AdrServer::retry_after_hint_ms() const {
  // First consumer of the live metrics: the refused client should come
  // back roughly when the backlog it would sit behind has drained.
  const std::int64_t depth =
      obs::metrics().gauge("scheduler.queue_depth").value() +
      obs::metrics().gauge("scheduler.in_flight").value();
  // Prefer the *windowed* submit-latency mean (last few sampler ring
  // samples): the cumulative mean never forgets a morning burst, so
  // hints computed from it keep overestimating long after the burst
  // subsides.  Fall back to cumulative when the ring is too short.
  double mean_s =
      obs::windowed_histogram_mean(obs::sampler().history(8), "submit.latency_s")
          .value_or(0.0);
  if (mean_s <= 0.0) {
    mean_s = obs::metrics().histogram("submit.latency_s").snapshot().mean();
  }
  if (mean_s <= 0.0) mean_s = 0.05;  // nothing measured yet: polite default
  const double eta_s =
      (static_cast<double>(std::max<std::int64_t>(depth, 0)) /
           static_cast<double>(std::max(1, scheduler_workers_)) +
       1.0) *
      mean_s;
  return static_cast<std::uint32_t>(std::clamp(eta_s * 1000.0, 25.0, 10000.0));
}

std::optional<FrameLoop::Reply> AdrServer::handle_frame(std::uint64_t conn,
                                                        std::vector<std::byte> payload) {
  if (is_stats_request(payload)) {
    // Stats endpoint: answer in-band and keep the connection open, so a
    // monitoring client can poll the same socket it queries on.
    WireStatsReply stats;
    try {
      const WireStatsRequest req = decode_stats_request(payload);
      stats.metrics_json = obs::metrics().snapshot().to_json();
      if (req.include_trace && obs::tracer().enabled()) {
        stats.trace_json = obs::tracer().chrome_json();
      }
      if (req.include_history) {
        // Empty ring (sampler idle) still renders valid JSON with zero
        // samples — clients need no special case.
        stats.history_json = obs::sampler().history_json(req.history_samples);
      }
    } catch (const std::exception& e) {
      ADR_WARN("server: stats request failed: " << e.what());
      FrameLoop::Reply drop;
      drop.drop = true;
      return drop;
    }
    server_metrics().stats_requests.add();
    return FrameLoop::Reply(encode_stats_reply(stats));
  }
  WireResult result;
  try {
    // The exec options decoded from the frame travel with the query
    // through the scheduler to execution.
    const WireQuery wq = decode_query_frame(payload);
    const Qos& qos = wq.options.qos;
    // Deadline-aware admission: a drop-on-expiry query whose deadline
    // already passed gets the typed refusal immediately — queueing it
    // only to shed it later wastes a scheduler slot.  The connection
    // survives: the client is behaving, its clock just ran out.
    if (qos.drop_on_expiry && qos.expired()) {
      ++deadline_refusals_;
      server_metrics().deadline_refusals.add();
      result.status = Status::make(StatusCode::kDeadlineExceeded,
                                   "deadline expired before admission");
      return reply(result);
    }
    {
      // The connection id doubles as the scheduler client id: one FIFO
      // lane per connection, so replies leave in request order.
      std::lock_guard lock(tickets_mutex_);
      const std::uint64_t ticket = scheduler_.try_enqueue(wq.query, costs_, conn, wq.options);
      if (ticket != 0) {
        ticket_conn_.emplace(ticket, conn);
        return std::nullopt;  // on_ticket_done() posts the result
      }
    }
    // Scheduler saturated: protocol-level refusal, then close.
    ++queries_refused_;
    server_metrics().queries_refused.add();
    ADR_WARN("server: scheduler full, refusing query on connection " << conn);
    const std::uint32_t hint_ms = retry_after_hint_ms();
    // A busy + retry-after answer is a lie when the hint overshoots the
    // query's remaining deadline budget: the retry would only arrive to
    // be refused again.  Tell the client the truth — kDeadlineExceeded,
    // which its RetryPolicy never retries.
    if (qos.drop_on_expiry && qos.has_deadline() &&
        std::chrono::milliseconds(hint_ms) >= qos.remaining()) {
      ++deadline_refusals_;
      server_metrics().deadline_refusals.add();
      result.status = Status::make(StatusCode::kDeadlineExceeded,
                                   "saturated: a retry would miss the deadline");
    } else {
      result.status = Status::make(StatusCode::kBusy, kServerBusyError);
      result.retry_after_ms = hint_ms;
    }
    return reply(result, /*close_after=*/true);
  } catch (const std::exception& e) {
    result.status = status_from_exception(e);
    ADR_WARN("server: query failed: " << e.what());
  }
  // Malformed frame: an error result, and the connection survives.
  return reply(result);
}

}  // namespace adr::net
