// Per-query quality-of-service contract.
//
// A Qos rides with a query end-to-end: into ExecOptions, across the
// socket (query frames carry it as deadline-remaining
// milliseconds plus priority and drop flags), through the submission
// service's queue, and into the client's retry loop.  Three knobs:
//
//   deadline       - absolute steady-clock point after which the result
//                    is worthless to the caller.  The scheduler sheds
//                    queued work that can no longer meet it (typed
//                    kDeadlineExceeded instead of silent queueing), the
//                    server refuses saturated submits whose retry hint
//                    already overshoots it, and AdrClient stops retrying
//                    past it.  Default: none.
//   priority       - coarse class used by the scheduler when picking the
//                    next runnable query; lanes stay FIFO per client.
//   drop_on_expiry - when false the deadline is advisory: the scheduler
//                    still runs the query late (only the client-side
//                    retry cut-off applies).  Default true.
//
// Deadlines are steady-clock on each host; the wire carries *remaining*
// time, so client and server clocks never need to agree.
// Semantics and shed policy: docs/scheduling.md.
#pragma once

#include <chrono>
#include <cstdint>

namespace adr {

/// Coarse scheduling class.  Higher value = dispatched first when
/// several clients' lanes are runnable; within one client, FIFO order
/// always wins (lanes never reorder).
enum class QosPriority : std::uint8_t {
  kBackground = 0,
  kNormal = 1,
  kInteractive = 2,
};

struct Qos {
  /// Absolute deadline; the default-constructed (epoch) time_point means
  /// "no deadline".
  std::chrono::steady_clock::time_point deadline{};
  QosPriority priority = QosPriority::kNormal;
  /// Shed the query once the deadline passes (vs. advisory deadline:
  /// run late, but stop client-side retries).
  bool drop_on_expiry = true;

  bool has_deadline() const {
    return deadline != std::chrono::steady_clock::time_point{};
  }

  bool expired(std::chrono::steady_clock::time_point now =
                   std::chrono::steady_clock::now()) const {
    return has_deadline() && now >= deadline;
  }

  /// Time left until the deadline, clamped to >= 0.  Queries without a
  /// deadline report milliseconds::max().
  std::chrono::milliseconds remaining(std::chrono::steady_clock::time_point now =
                                          std::chrono::steady_clock::now()) const {
    if (!has_deadline()) return std::chrono::milliseconds::max();
    if (now >= deadline) return std::chrono::milliseconds(0);
    return std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
  }

  /// Convenience: a deadline `budget` from now.
  static Qos within(std::chrono::milliseconds budget,
                    QosPriority priority = QosPriority::kNormal,
                    bool drop_on_expiry = true) {
    Qos q;
    q.deadline = std::chrono::steady_clock::now() + budget;
    q.priority = priority;
    q.drop_on_expiry = drop_on_expiry;
    return q;
  }
};

}  // namespace adr
