#include "net/client.hpp"

#include <unistd.h>

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/logging.hpp"
#include "net/socket_io.hpp"
#include "obs/metrics.hpp"

namespace adr::net {
namespace {

// Cumulative process-wide series (metric catalog: docs/observability.md).
struct ClientMetrics {
  obs::Counter& retries;
  obs::Counter& gave_up;
  obs::Gauge& pending;
};

ClientMetrics& client_metrics() {
  static ClientMetrics m{obs::metrics().counter("client.retries"),
                         obs::metrics().counter("client.gave_up"),
                         obs::metrics().gauge("client.pending")};
  return m;
}

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Uniform in [0, 1).
double next_unit(std::uint64_t& state) {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

Status transport_lost_status() {
  return Status::make(StatusCode::kUnavailable,
                      "connection lost before result");
}

Status connect_failed_status() {
  return Status::make(StatusCode::kUnavailable,
                      "connect failed before send");
}

}  // namespace

AdrClient::AdrClient(std::uint16_t port) : AdrClient(port, RetryPolicy{}) {}

AdrClient::AdrClient(std::uint16_t port, RetryPolicy policy)
    : port_(port),
      policy_(policy),
      // Mix the port in so two same-seed clients on different servers
      // still draw distinct jitter streams.
      jitter_state_(policy.seed * 0x9e3779b97f4a7c15ull + port + 1) {
  std::lock_guard lock(io_mutex_);
  if (!connect_locked() && policy_.max_attempts <= 1) {
    // Legacy single-shot contract: construction either yields a live
    // connection or throws.  A retrying client defers to submit() —
    // the server may simply not be listening *yet*.
    throw std::runtime_error("AdrClient: connect() failed");
  }
}

AdrClient::~AdrClient() {
  {
    std::lock_guard lock(queue_mutex_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  if (sender_.joinable()) sender_.join();
  // Fail whatever the sender never reached; futures must not dangle.
  std::deque<Pending> orphaned;
  {
    std::lock_guard lock(queue_mutex_);
    orphaned.swap(queue_);
  }
  client_metrics().pending.add(-static_cast<std::int64_t>(orphaned.size()));
  for (Pending& p : orphaned) {
    WireResult r;
    r.status = Status::make(StatusCode::kUnavailable, "client shut down");
    p.promise.set_value(std::move(r));
  }
  std::lock_guard lock(io_mutex_);
  if (fd_ >= 0) ::close(fd_);
}

bool AdrClient::connected() const {
  std::lock_guard lock(io_mutex_);
  return fd_ >= 0;
}

bool AdrClient::connect_locked() {
  if (fd_ < 0) fd_ = connect_loopback(port_);
  return fd_ >= 0;
}

std::optional<WireResult> AdrClient::attempt_locked(const Query& query,
                                                    const ExecOptions& options,
                                                    bool& sent) {
  sent = false;
  if (!connect_locked()) return std::nullopt;
  // From here on bytes may reach the server even if the write reports
  // failure (partial send), so the query must be presumed executed.
  sent = true;
  if (!write_frame(fd_, encode_query(query, options))) {
    ::close(fd_);
    fd_ = -1;
    return std::nullopt;
  }
  std::vector<std::byte> payload;
  if (!read_frame(fd_, payload)) {
    ::close(fd_);
    fd_ = -1;
    return std::nullopt;
  }
  WireResult result = decode_result(payload);
  if (result.server_busy()) {
    // Protocol-level refusal (connection cap or scheduler queue full):
    // the server closes this connection after the busy frame, so drop
    // our side too — connected() turns false and the caller (or the
    // retry loop) knows to reconnect rather than treat this as a crash.
    ::close(fd_);
    fd_ = -1;
  }
  return result;
}

std::chrono::milliseconds RetryPolicy::backoff(int retry, std::uint32_t hint_ms,
                                               std::uint64_t& jitter_state) const {
  double ms = static_cast<double>(initial_backoff.count());
  for (int i = 1; i < retry; ++i) ms *= backoff_multiplier;
  ms = std::min(ms, static_cast<double>(max_backoff.count()));
  if (jitter > 0.0) {
    const double u = next_unit(jitter_state);  // [0,1)
    ms *= 1.0 - jitter + 2.0 * jitter * u;
  }
  if (honor_retry_after && hint_ms > 0) {
    // The server told us when the backlog should have drained; retrying
    // earlier than that just gets refused again.
    ms = std::max(ms, static_cast<double>(hint_ms));
  }
  return std::chrono::milliseconds(
      std::max<std::int64_t>(0, static_cast<std::int64_t>(ms)));
}

WireResult AdrClient::submit_locked(const Query& query,
                                    const ExecOptions& options) {
  const int max_attempts = std::max(1, policy_.max_attempts);
  WireResult last;
  for (int attempt = 1;; ++attempt) {
    bool sent = false;
    std::optional<WireResult> result = attempt_locked(query, options, sent);
    if (result.has_value()) {
      last = std::move(*result);
    } else if (sent) {
      // Transport loss after bytes went out: send failed mid-frame or
      // the connection closed before the result frame (e.g. a dropped
      // reply).  The server may have executed the query.
      last = WireResult{};
      last.status = transport_lost_status();
    } else {
      // Connect-stage failure: no bytes ever reached a server, so the
      // query provably never executed and a retry can never
      // double-apply it — retryable even for non-idempotent policies
      // (the server may simply not be listening yet).
      last = WireResult{};
      last.status = connect_failed_status();
    }
    last.attempts = static_cast<std::uint32_t>(attempt);
    if (last.ok()) return last;
    if (attempt >= max_attempts) break;
    if (sent && !is_retryable(last.status.code, policy_.idempotent)) return last;
    if (!sent && !is_retryable(last.status.code, /*idempotent=*/true)) return last;
    const auto delay = policy_.backoff(attempt, last.retry_after_ms, jitter_state_);
    // Deadline cap: a retry that cannot start (let alone finish) before
    // the query's Qos deadline would only burn a server slot to learn
    // kDeadlineExceeded — stop here and return the last real failure.
    if (options.qos.has_deadline() &&
        std::chrono::steady_clock::now() + delay >= options.qos.deadline) {
      ADR_DEBUG("client: deadline reached, not retrying ("
                << last.status.to_string() << ")");
      break;
    }
    ADR_DEBUG("client: retrying (" << last.status.to_string() << ") in "
                                   << delay.count() << "ms, attempt "
                                   << attempt + 1 << "/" << max_attempts);
    client_metrics().retries.add();
    if (delay.count() > 0) std::this_thread::sleep_for(delay);
  }
  if (!last.ok()) client_metrics().gave_up.add();
  return last;
}

WireResult AdrClient::submit(const Query& query, const ExecOptions& options) {
  std::lock_guard lock(io_mutex_);
  if (policy_.max_attempts <= 1) {
    // Legacy single-shot path, preserved exactly: no reconnects, every
    // transport failure is an exception with the historical message.
    if (fd_ < 0) throw std::runtime_error("AdrClient: not connected");
    if (!write_frame(fd_, encode_query(query, options))) {
      throw std::runtime_error("AdrClient: send failed");
    }
    std::vector<std::byte> payload;
    if (!read_frame(fd_, payload)) {
      throw std::runtime_error("AdrClient: connection closed before result");
    }
    WireResult result = decode_result(payload);
    if (result.server_busy()) {
      ::close(fd_);
      fd_ = -1;
    }
    return result;
  }
  return submit_locked(query, options);
}

WireResult AdrClient::submit(const Query& query, const Qos& qos,
                             const ExecOptions& options) {
  ExecOptions with_qos = options;
  with_qos.qos = qos;
  return submit(query, with_qos);
}

void AdrClient::start_sender_locked() {
  if (sender_started_) return;
  sender_started_ = true;
  sender_ = std::thread([this]() { sender_loop(); });
}

void AdrClient::sender_loop() {
  for (;;) {
    Pending item;
    {
      std::unique_lock lock(queue_mutex_);
      queue_cv_.wait(lock, [this]() { return stopping_ || !queue_.empty(); });
      // On shutdown, stop immediately even with work queued: the
      // destructor fails the leftover promises with kUnavailable
      // instead of holding teardown hostage to retry backoffs.
      if (stopping_ || queue_.empty()) return;
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    client_metrics().pending.add(-1);
    queue_cv_.notify_all();  // a blocked submit_async can take the slot
    WireResult result;
    try {
      std::lock_guard lock(io_mutex_);
      result = submit_locked(item.query, item.options);
    } catch (...) {
      item.promise.set_exception(std::current_exception());
      continue;
    }
    item.promise.set_value(std::move(result));
  }
}

std::future<WireResult> AdrClient::submit_async(const Query& query,
                                                const ExecOptions& options) {
  Pending item;
  item.query = query;
  item.options = options;
  std::future<WireResult> future = item.promise.get_future();
  {
    std::unique_lock lock(queue_mutex_);
    queue_cv_.wait(lock, [this]() {
      return stopping_ || queue_.size() < policy_.max_pending;
    });
    if (stopping_) {
      WireResult r;
      r.status = Status::make(StatusCode::kUnavailable, "client shut down");
      item.promise.set_value(std::move(r));
      return future;
    }
    queue_.push_back(std::move(item));
    start_sender_locked();
  }
  client_metrics().pending.add(1);
  queue_cv_.notify_all();
  return future;
}

std::future<WireResult> AdrClient::submit_async(const Query& query, const Qos& qos,
                                                const ExecOptions& options) {
  ExecOptions with_qos = options;
  with_qos.qos = qos;
  return submit_async(query, with_qos);
}

std::optional<std::future<WireResult>> AdrClient::try_submit_async(
    const Query& query, const ExecOptions& options) {
  Pending item;
  item.query = query;
  item.options = options;
  std::future<WireResult> future = item.promise.get_future();
  {
    std::lock_guard lock(queue_mutex_);
    if (stopping_ || queue_.size() >= policy_.max_pending) return std::nullopt;
    queue_.push_back(std::move(item));
    start_sender_locked();
  }
  client_metrics().pending.add(1);
  queue_cv_.notify_all();
  return future;
}

std::optional<std::future<WireResult>> AdrClient::try_submit_async(
    const Query& query, const Qos& qos, const ExecOptions& options) {
  ExecOptions with_qos = options;
  with_qos.qos = qos;
  return try_submit_async(query, with_qos);
}

std::size_t AdrClient::pending() const {
  std::lock_guard lock(queue_mutex_);
  return queue_.size();
}

WireStatsReply AdrClient::stats(bool include_trace, bool include_history,
                                std::uint32_t history_samples) {
  std::lock_guard lock(io_mutex_);
  if (fd_ < 0 && !connect_locked()) {
    throw std::runtime_error("AdrClient: not connected");
  }
  WireStatsRequest req;
  req.include_trace = include_trace;
  req.include_history = include_history;
  req.history_samples = history_samples;
  if (!write_frame(fd_, encode_stats_request(req))) {
    throw std::runtime_error("AdrClient: send failed");
  }
  std::vector<std::byte> payload;
  if (!read_frame(fd_, payload)) {
    throw std::runtime_error("AdrClient: connection closed before stats reply");
  }
  if (is_result_frame(payload)) {
    // A server at its connection cap answers every new connection with a
    // busy result frame and closes — surface the typed status (and its
    // retry-after hint) instead of a "not a stats reply" decode error.
    const WireResult result = decode_result(payload);
    ::close(fd_);
    fd_ = -1;
    std::string msg = result.status.message.empty() ? std::string(kServerBusyError)
                                                    : result.status.message;
    if (result.retry_after_ms > 0) {
      msg += " (retry after " + std::to_string(result.retry_after_ms) + "ms)";
    }
    throw StatusError(result.status.code == StatusCode::kOk ? StatusCode::kUnavailable
                                                            : result.status.code,
                      msg);
  }
  return decode_stats_reply(payload);
}

}  // namespace adr::net
