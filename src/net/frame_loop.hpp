// The one readiness loop under every socket front end.
//
// AdrServer, AdrRouter and HttpExpositionServer all serve loopback TCP
// from one thread that owns every socket.  This header holds the pieces
// they share, so the connection-lifecycle policy lives in one place:
//
//  - Listener: the bound, listening, non-blocking, close-on-exec
//    socket, plus accept-until-EAGAIN with an exponential backoff
//    (1 ms doubling to 200 ms) when accept fails — the EMFILE/ENFILE
//    storm must not busy-spin a level-triggered loop.  It evaluates the
//    `net.accept` fault point on every accept.
//  - Wakeup: eventfd on Linux, self-pipe elsewhere; other threads poke
//    the loop out of Poller::wait().
//  - FrameLoop: a whole `u32 length | payload` frame server built on
//    the two above and the Poller.  It owns the connection map, the
//    connection cap with its busy refusal, FrameReader/FrameWriter
//    pumping, read pauses at the outstanding-frame and queued-byte caps,
//    a lazy deadline heap, the SHUT_WR linger, the stop drain, and a
//    thread-safe queue that worker threads post replies to.
//
// A FrameLoop service supplies only a frame handler, its busy frame,
// the outstanding frames it allows per connection and a stop policy.
// The handler answers a frame at once, or returns nullopt and later
// post()s the reply from any thread.  docs/serving.md walks through the
// life cycle.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/poller.hpp"

namespace adr::obs {
class Counter;
class Gauge;
}  // namespace adr::obs

namespace adr::net {

/// Poller tags of the fixed slots in every loop; connection tags start
/// at kFirstConnTag.
inline constexpr std::uint64_t kListenTag = 0;
inline constexpr std::uint64_t kWakeTag = 1;
inline constexpr std::uint64_t kFirstConnTag = 2;

/// A loopback TCP listener with accept backoff.  Loop-thread only,
/// except port(), which is fixed at construction.
class Listener {
 public:
  using Clock = std::chrono::steady_clock;

  /// Binds and listens on 127.0.0.1:`port` (0 = ephemeral).  Throws
  /// std::runtime_error prefixed with `who` on failure.
  Listener(std::uint16_t port, int backlog, const std::string& who);
  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  std::uint16_t port() const { return port_; }

  /// Starts watching for connections under `tag`.  A failed
  /// registration is retried through the backoff path.
  void watch(Poller& poller, std::uint64_t tag);

  /// Re-registers once a backoff has run out; call every iteration.
  void resume(Poller& poller);

  /// When the loop must wake to resume accepting (epoch: not paused).
  Clock::time_point resume_at() const { return paused_ ? resume_at_ : Clock::time_point{}; }

  /// Accepts every queued connection and hands each fd, non-blocking
  /// and close-on-exec, to `on_fd`.  A failure counts into `errors`,
  /// unregisters the listener and backs off.
  void accept_all(Poller& poller, obs::Counter& errors,
                  const std::function<void(int)>& on_fd);

  /// Unregisters and closes the socket: new connects are refused.
  void close(Poller& poller);

 private:
  void back_off(Poller& poller, obs::Counter& errors);

  std::string who_;
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::uint64_t tag_ = 0;
  bool registered_ = false;
  bool paused_ = false;
  Clock::time_point resume_at_{};
  int error_streak_ = 0;
};

/// Cross-thread wakeup for one Poller: eventfd on Linux (one fd), a
/// non-blocking self-pipe elsewhere.
class Wakeup {
 public:
  Wakeup();
  ~Wakeup();

  Wakeup(const Wakeup&) = delete;
  Wakeup& operator=(const Wakeup&) = delete;

  /// The fd to register for readability.
  int fd() const { return rd_; }
  /// Makes fd() readable.  Safe from any thread.
  void notify();
  /// Consumes pending notifications (loop thread).
  void drain();

 private:
  int rd_ = -1;
  int wr_ = -1;
};

class FrameLoop {
 public:
  using Clock = std::chrono::steady_clock;

  /// One answer to one frame.
  struct Reply {
    Reply() = default;
    explicit Reply(std::vector<std::byte> f) : frame(std::move(f)) {}

    std::vector<std::byte> frame;
    /// The last frame on the connection (a busy refusal): flush it,
    /// then close.
    bool close_after = false;
    /// Close without answering (an injected reply drop); `frame` is
    /// ignored.
    bool drop = false;
    /// Runs on the loop thread once `frame` is queued on a live
    /// connection.
    std::function<void()> on_queued;
  };

  /// Called on the loop thread for each frame lifted off connection
  /// `conn`.  Returns the reply, or nullopt when the reply will arrive
  /// later through post(conn, ...).
  using Handler =
      std::function<std::optional<Reply>(std::uint64_t conn, std::vector<std::byte> frame)>;

  /// How stop() treats frames still waiting for a reply.
  enum class StopPolicy {
    /// Wait for every outstanding reply; then each connection gets
    /// 500 ms to flush.
    kAwaitReplies,
    /// Every connection gets 1 s from stop(), replies or not.
    kCutAtBudget,
  };

  struct Options {
    /// Log label and metric prefix: `<name>.connections_accepted`,
    /// `.connections_refused`, `.accept_errors`, `.epoll_wakeups`,
    /// `.frames_partial` and the `.active_connections` gauge.
    std::string name;
    /// Connections served at once; later connects get the busy frame.
    std::size_t max_connections = 64;
    /// Frames one connection may have waiting for a reply before the
    /// loop stops reading it (TCP back-pressure reaches the peer).
    /// 1 keeps replies in request order with no reordering state.
    std::size_t max_outstanding = 1;
    StopPolicy stop = StopPolicy::kAwaitReplies;
  };

  /// Binds 127.0.0.1:`port` now (throws on failure); serving starts in
  /// start().  `busy` builds the refusal frame sent past the cap.
  FrameLoop(std::uint16_t port, Options options, Handler handler,
            std::function<std::vector<std::byte>()> busy);
  ~FrameLoop();

  FrameLoop(const FrameLoop&) = delete;
  FrameLoop& operator=(const FrameLoop&) = delete;

  /// Starts the loop thread.  Idempotent.
  void start();
  /// Stops accepting, drains by the stop policy, closes every
  /// connection and joins the loop thread.  Idempotent.
  void stop();

  /// Answers one outstanding frame of `conn`.  Safe from any thread;
  /// dropped if the connection is gone.
  void post(std::uint64_t conn, Reply reply);

  std::uint16_t port() const { return listener_.port(); }

  /// Connections being served.  Lock-free: never waits on socket I/O.
  std::size_t active_connections() const {
    const std::int64_t n = active_.load();
    return n > 0 ? static_cast<std::size_t>(n) : 0;
  }

  /// Connections refused at the cap (each got the busy frame).
  std::uint64_t connections_refused() const { return refused_.load(); }

 private:
  struct Conn;
  struct Metrics {
    obs::Counter& connections_accepted;
    obs::Counter& connections_refused;
    obs::Counter& accept_errors;
    obs::Counter& epoll_wakeups;
    obs::Counter& frames_partial;
    obs::Gauge& active_connections;
  };

  // Loop thread only.
  void run();
  /// Registers an accepted fd: served, or refused with the busy frame
  /// past the cap.
  void accept_conn(int fd);
  void readable(Conn& conn);
  void process_frames(Conn& conn);
  void answer(Conn& conn, Reply reply);
  void flush(Conn& conn);
  void update_interest(Conn& conn);
  void finish_close(Conn& conn);
  void close(Conn& conn);
  void arm_deadline(Conn& conn, Clock::time_point when);
  void begin_stop();
  void drain_posted();
  void expire_deadlines();
  int timeout_ms() const;
  bool alive(std::uint64_t id) const { return conns_.count(id) != 0; }

  const Options options_;
  const Handler handler_;
  const std::function<std::vector<std::byte>()> busy_;
  Metrics metrics_;
  Listener listener_;
  Wakeup wakeup_;

  std::atomic<bool> running_{false};
  std::atomic<std::int64_t> active_{0};
  std::atomic<std::uint64_t> refused_{0};

  /// Replies posted by other threads, awaiting the loop.
  std::mutex posted_mutex_;
  std::vector<std::pair<std::uint64_t, Reply>> posted_;

  // Owned by the loop thread.
  Poller poller_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  /// Min-heap of (deadline, conn id), validated lazily against
  /// Conn::deadline so re-arming never needs heap surgery.
  std::vector<std::pair<Clock::time_point, std::uint64_t>> deadlines_;
  std::uint64_t next_conn_id_ = kFirstConnTag;
  /// False when the wakeup fd could not be registered: waits are then
  /// bounded so posted replies and stop() still make progress.
  bool wake_registered_ = true;
  bool stopping_ = false;

  std::thread thread_;  // last: it uses every member above
};

}  // namespace adr::net
