#include "net/frame_loop.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#ifdef ADR_HAVE_EPOLL
#include <sys/eventfd.h>
#endif

#include <algorithm>
#include <cerrno>
#include <stdexcept>

#include "common/fault.hpp"
#include "common/logging.hpp"
#include "net/socket_io.hpp"
#include "obs/metrics.hpp"

namespace adr::net {
namespace {

using Clock = std::chrono::steady_clock;

/// Accept-error backoff: doubles per consecutive failure up to the cap.
constexpr auto kAcceptBackoffBase = std::chrono::milliseconds(1);
constexpr auto kAcceptBackoffMax = std::chrono::milliseconds(200);
/// Unflushed outbound bytes beyond which a connection's reads pause.
constexpr std::size_t kMaxQueuedWriteBytes = 16u << 20;
/// Flush + linger budget for a connection being closed: a peer that
/// never reads its last frame is cut off after this.
constexpr auto kCloseDrainBudget = std::chrono::milliseconds(200);
/// Per-connection flush budget of the two stop policies.
constexpr auto kAwaitFlushBudget = std::chrono::milliseconds(500);
constexpr auto kCutBudget = std::chrono::milliseconds(1000);

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

bool deadline_heap_greater(const std::pair<Clock::time_point, std::uint64_t>& a,
                           const std::pair<Clock::time_point, std::uint64_t>& b) {
  return a.first > b.first;
}

}  // namespace

// ------------------------------------------------------- listener

Listener::Listener(std::uint16_t port, int backlog, const std::string& who) : who_(who) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw std::runtime_error(who_ + ": socket() failed");
  const int reuse = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  const char* failed = nullptr;
  socklen_t len = sizeof(addr);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    failed = "bind";
  } else if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    failed = "getsockname";
  } else if (::listen(fd_, backlog) != 0) {
    failed = "listen";
  }
  if (failed != nullptr) {
    ::close(fd_);
    throw std::runtime_error(who_ + ": " + failed + "() failed");
  }
  port_ = ntohs(addr.sin_port);
  set_nonblocking(fd_);
}

Listener::~Listener() {
  if (fd_ >= 0) ::close(fd_);
}

void Listener::watch(Poller& poller, std::uint64_t tag) {
  tag_ = tag;
  paused_ = fd_ >= 0;  // resume() registers it now
  resume_at_ = Clock::time_point{};
  resume(poller);
}

void Listener::resume(Poller& poller) {
  if (!paused_ || Clock::now() < resume_at_) return;
  registered_ = poller.add(fd_, tag_, /*rd=*/true, /*wr=*/false);
  paused_ = !registered_;
  if (paused_) resume_at_ = Clock::now() + kAcceptBackoffMax;  // retry later
}

void Listener::back_off(Poller& poller, obs::Counter& errors) {
  errors.add();
  ++error_streak_;
  auto backoff = kAcceptBackoffBase * (1 << std::min(error_streak_ - 1, 8));
  if (backoff > kAcceptBackoffMax) backoff = kAcceptBackoffMax;
  ADR_WARN(who_ << ": accept failed (streak " << error_streak_ << "), backing off "
                << backoff.count() << "ms");
  if (registered_) {
    poller.del(fd_);
    registered_ = false;
  }
  paused_ = true;
  resume_at_ = Clock::now() + backoff;
}

void Listener::accept_all(Poller& poller, obs::Counter& errors,
                          const std::function<void(int)>& on_fd) {
  while (fd_ >= 0 && !paused_) {
    // Injected accept failure (EMFILE-style storm): the pending
    // connection stays in the backlog; the loop must back off, not spin.
    if (fault::faults().fires("net.accept")) {
      back_off(poller, errors);
      return;
    }
#ifdef ADR_HAVE_EPOLL
    const int fd = ::accept4(fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
#else
    const int fd = ::accept(fd_, nullptr, nullptr);
#endif
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        error_streak_ = 0;
        return;
      }
      if (errno == EINTR || errno == ECONNABORTED) continue;
      back_off(poller, errors);
      return;
    }
#ifndef ADR_HAVE_EPOLL
    set_nonblocking(fd);
    ::fcntl(fd, F_SETFD, FD_CLOEXEC);  // forked children must not inherit it
#endif
    error_streak_ = 0;
    on_fd(fd);
  }
}

void Listener::close(Poller& poller) {
  if (registered_) poller.del(fd_);
  registered_ = false;
  paused_ = false;
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

// ------------------------------------------------------- wakeup

Wakeup::Wakeup() {
#ifdef ADR_HAVE_EPOLL
  rd_ = wr_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (rd_ < 0) throw std::runtime_error("Wakeup: eventfd() failed");
#else
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("Wakeup: pipe() failed");
  rd_ = fds[0];
  wr_ = fds[1];
  for (const int fd : fds) {
    set_nonblocking(fd);
    ::fcntl(fd, F_SETFD, FD_CLOEXEC);
  }
#endif
}

Wakeup::~Wakeup() {
  ::close(rd_);
  if (wr_ != rd_) ::close(wr_);
}

void Wakeup::notify() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t r = ::write(wr_, &one, sizeof(one));
}

void Wakeup::drain() {
  std::uint64_t buf;
  while (::read(rd_, &buf, sizeof(buf)) > 0) {
  }
}

// ------------------------------------------------------- frame loop

// Per-connection state, owned exclusively by the loop thread.
//
// Life cycle: serving -> closing (no more inbound frames; outstanding
// replies still flush) -> lingering (SHUT_WR sent, inbound bytes
// discarded so the kernel cannot RST the final frame away) -> closed.
// A closing connection carries a deadline, so a peer that neither reads
// nor closes is cut off in bounded time.
struct FrameLoop::Conn {
  std::uint64_t id = 0;
  int fd = -1;
  FrameReader reader;
  FrameWriter writer;
  std::size_t outstanding = 0;  // frames handed to the handler, unanswered
  bool refused = false;         // busy refusal: never counted or served
  bool closing = false;
  bool lingering = false;
  bool reading = true;   // poller read interest
  bool writing = false;  // poller write interest
  Clock::time_point deadline{};  // epoch() = none
};

FrameLoop::FrameLoop(std::uint16_t port, Options options, Handler handler,
                     std::function<std::vector<std::byte>()> busy)
    : options_(std::move(options)),
      handler_(std::move(handler)),
      busy_(std::move(busy)),
      metrics_{obs::metrics().counter(options_.name + ".connections_accepted"),
               obs::metrics().counter(options_.name + ".connections_refused"),
               obs::metrics().counter(options_.name + ".accept_errors"),
               obs::metrics().counter(options_.name + ".epoll_wakeups"),
               obs::metrics().counter(options_.name + ".frames_partial"),
               obs::metrics().gauge(options_.name + ".active_connections")},
      listener_(port, 1024, options_.name) {
  if (options_.max_connections < 1 || options_.max_outstanding < 1) {
    throw std::invalid_argument(options_.name +
                                ": max_connections and max_outstanding must be >= 1");
  }
}

FrameLoop::~FrameLoop() { stop(); }

void FrameLoop::start() {
  if (running_.exchange(true)) return;
  thread_ = std::thread([this]() { run(); });
}

void FrameLoop::stop() {
  running_.store(false);
  if (thread_.joinable()) {
    wakeup_.notify();
    thread_.join();
  }
  listener_.close(poller_);  // the port is free even if start() never ran
}

void FrameLoop::post(std::uint64_t conn, Reply reply) {
  {
    std::lock_guard lock(posted_mutex_);
    posted_.emplace_back(conn, std::move(reply));
  }
  wakeup_.notify();
}

void FrameLoop::run() {
  listener_.watch(poller_, kListenTag);
  wake_registered_ = poller_.add(wakeup_.fd(), kWakeTag, /*rd=*/true, /*wr=*/false);

  std::vector<Poller::Ready> events;
  for (;;) {
    if (!stopping_ && !running_.load()) begin_stop();
    if (stopping_ && conns_.empty()) break;
    listener_.resume(poller_);

    poller_.wait(events, timeout_ms());
    metrics_.epoll_wakeups.add();

    for (const Poller::Ready& ev : events) {
      if (ev.tag == kWakeTag) {
        wakeup_.drain();
        continue;
      }
      if (ev.tag == kListenTag) {
        listener_.accept_all(poller_, metrics_.accept_errors,
                             [this](int fd) { accept_conn(fd); });
        continue;
      }
      // The connection may have been closed by an earlier event in this
      // batch; look it up fresh per half.
      if (ev.readable) {
        auto it = conns_.find(ev.tag);
        if (it != conns_.end()) readable(*it->second);
      }
      if (ev.writable) {
        auto it = conns_.find(ev.tag);
        if (it != conns_.end()) flush(*it->second);
      }
    }

    drain_posted();
    expire_deadlines();
  }
  // Replies posted after the last connection closed have nowhere to go.
  std::lock_guard lock(posted_mutex_);
  posted_.clear();
}

void FrameLoop::begin_stop() {
  stopping_ = true;
  // Close the listener now so new connects are refused during the drain.
  listener_.close(poller_);
  const bool cut = options_.stop == StopPolicy::kCutAtBudget;
  const auto budget = Clock::now() + (cut ? kCutBudget : kAwaitFlushBudget);
  std::vector<std::uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) ids.push_back(id);
  for (const std::uint64_t id : ids) {
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    Conn& conn = *it->second;
    conn.closing = true;
    // Under kAwaitReplies, a connection with replies still coming arms
    // its deadline when the last one lands (answer()).
    if (cut || conn.outstanding == 0) arm_deadline(conn, budget);
    flush(conn);  // may close and erase conn
  }
}

int FrameLoop::timeout_ms() const {
  Clock::time_point next = listener_.resume_at();
  if (!deadlines_.empty()) {
    const auto top = deadlines_.front().first;
    if (next == Clock::time_point{} || top < next) next = top;
  }
  // Without a working wake fd, bound every wait so posted replies and
  // stop() are still noticed promptly.
  const int cap = wake_registered_ ? 60'000 : 10;
  if (next == Clock::time_point{}) return wake_registered_ ? -1 : cap;
  const auto delta = std::chrono::duration_cast<std::chrono::milliseconds>(next - Clock::now());
  return static_cast<int>(std::clamp<long long>(delta.count() + 1, 0, cap));
}

void FrameLoop::arm_deadline(Conn& conn, Clock::time_point when) {
  if (conn.deadline != Clock::time_point{} && conn.deadline <= when) return;
  conn.deadline = when;
  deadlines_.emplace_back(when, conn.id);
  std::push_heap(deadlines_.begin(), deadlines_.end(), deadline_heap_greater);
}

void FrameLoop::expire_deadlines() {
  const auto now = Clock::now();
  while (!deadlines_.empty() && deadlines_.front().first <= now) {
    std::pop_heap(deadlines_.begin(), deadlines_.end(), deadline_heap_greater);
    const auto [when, id] = deadlines_.back();
    deadlines_.pop_back();
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;                // already closed
    if (it->second->deadline != when) continue;     // re-armed since
    ADR_DEBUG(options_.name << ": drain deadline hit, closing fd=" << it->second->fd);
    close(*it->second);
  }
}

void FrameLoop::accept_conn(int fd) {
  set_tcp_nodelay(fd);
  const bool refused = active_connections() >= options_.max_connections;
  if (refused) {
    // Count before the frame goes out: the busy frame is the client-
    // visible refusal signal, so the counter must already reflect it.
    ++refused_;
    metrics_.connections_refused.add();
    ADR_WARN(options_.name << ": refused connection, " << active_connections() << " active");
  }
  auto conn = std::make_unique<Conn>();
  conn->id = next_conn_id_++;
  conn->fd = fd;
  conn->refused = conn->closing = refused;
  if (!poller_.add(fd, conn->id, /*rd=*/true, /*wr=*/false)) {
    // Unregistered fds never receive events; dropping here is the only
    // alternative to a silent leak.
    ::close(fd);
    return;
  }
  Conn& raw = *conn;
  conns_.emplace(raw.id, std::move(conn));
  if (!refused) {
    active_.fetch_add(1);
    metrics_.connections_accepted.add();
    metrics_.active_connections.add(1);
    return;
  }
  raw.writer.enqueue(busy_());
  arm_deadline(raw, Clock::now() + kCloseDrainBudget);
  flush(raw);
}

void FrameLoop::readable(Conn& conn) {
  if (conn.closing || conn.lingering) {
    // No more frames will be served; discard inbound bytes (so the
    // kernel cannot answer them with an RST that destroys our final
    // frame) and watch for the peer's close.
    char sink[4096];
    for (;;) {
      const ssize_t r = ::recv(conn.fd, sink, sizeof(sink), 0);
      if (r > 0) continue;
      if (r < 0 && errno == EINTR) continue;
      if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      close(conn);
      return;
    }
  }
  if (conn.reader.pump(conn.fd) != FrameReader::IoStatus::kOpen) {
    // Orderly close or transport error: either way the connection is
    // done; replies still in flight are dropped when they arrive.
    close(conn);
    return;
  }
  if (conn.reader.mid_frame()) metrics_.frames_partial.add();
  process_frames(conn);
}

void FrameLoop::process_frames(Conn& conn) {
  const std::uint64_t id = conn.id;
  std::vector<std::byte> payload;
  while (!conn.closing && conn.outstanding < options_.max_outstanding &&
         conn.writer.queued_bytes() < kMaxQueuedWriteBytes && conn.reader.next(payload)) {
    // A transport failure at the moment a frame is lifted off the
    // connection (the event-loop twin of the blocking read_frame()).
    if (fault::faults().fires("net.read_frame")) {
      close(conn);
      return;
    }
    ++conn.outstanding;
    std::optional<Reply> reply = handler_(id, std::move(payload));
    if (reply) {
      answer(conn, std::move(*reply));
      if (!alive(id)) return;
    }
  }
  update_interest(conn);
}

void FrameLoop::answer(Conn& conn, Reply reply) {
  if (conn.outstanding > 0) --conn.outstanding;
  if (reply.drop) {
    ADR_WARN(options_.name << ": dropping reply on fd=" << conn.fd);
    close(conn);
    return;
  }
  const bool queued = conn.writer.enqueue(reply.frame);
  if (queued && reply.on_queued) reply.on_queued();
  if (!queued || reply.close_after) {
    // Injected write fault (flush what was buffered, then die) or a
    // refusal (the busy frame is the last thing we say).
    conn.closing = true;
    arm_deadline(conn, Clock::now() + kCloseDrainBudget);
  }
  if (stopping_ && conn.outstanding == 0) {
    arm_deadline(conn, Clock::now() + kAwaitFlushBudget);
  }
  flush(conn);
}

void FrameLoop::flush(Conn& conn) {
  if (!conn.writer.idle() && conn.writer.flush(conn.fd) == FrameWriter::IoStatus::kError) {
    close(conn);
    return;
  }
  update_interest(conn);
  if (conn.closing && conn.outstanding == 0 && conn.writer.idle()) finish_close(conn);
}

void FrameLoop::update_interest(Conn& conn) {
  // Closing/lingering connections keep reading to observe the peer's
  // close; serving connections pause reads while their replies or the
  // outbound buffer are saturated.
  const bool want_read = conn.closing || conn.lingering ||
                         (conn.outstanding < options_.max_outstanding &&
                          conn.writer.queued_bytes() < kMaxQueuedWriteBytes);
  const bool want_write = !conn.writer.idle();
  if (want_read == conn.reading && want_write == conn.writing) return;
  conn.reading = want_read;
  conn.writing = want_write;
  poller_.mod(conn.fd, conn.id, want_read, want_write);
}

void FrameLoop::finish_close(Conn& conn) {
  if (conn.lingering) return;  // already draining; the deadline closes it
  if (conn.refused || conn.reader.mid_frame() || conn.reader.frames_ready() > 0) {
    // The peer has bytes in flight we never consumed (a refused client's
    // query, a half-delivered frame).  Half-close and discard its input
    // until it closes or the deadline lands — closing outright would let
    // the kernel RST our final frame away before the peer reads it.
    ::shutdown(conn.fd, SHUT_WR);
    conn.lingering = true;
    arm_deadline(conn, Clock::now() + kCloseDrainBudget);
    update_interest(conn);
    return;
  }
  close(conn);
}

void FrameLoop::close(Conn& conn) {
  poller_.del(conn.fd);
  ::close(conn.fd);
  if (!conn.refused) {
    active_.fetch_sub(1);
    metrics_.active_connections.add(-1);
  }
  conns_.erase(conn.id);  // destroys conn — nothing after this line
}

void FrameLoop::drain_posted() {
  std::vector<std::pair<std::uint64_t, Reply>> done;
  {
    std::lock_guard lock(posted_mutex_);
    done.swap(posted_);
  }
  for (auto& [id, reply] : done) {
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;  // peer died before its reply
    Conn& conn = *it->second;
    answer(conn, std::move(reply));
    // Capacity freed: frames the reader buffered meanwhile dispatch now.
    if (alive(id) && !conn.closing) process_frames(conn);
  }
}

}  // namespace adr::net
