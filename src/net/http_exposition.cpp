#include "net/http_exposition.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <iterator>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"

namespace adr::net {
namespace {

using Clock = std::chrono::steady_clock;

/// Request heads larger than this are refused (telemetry GETs are tiny;
/// anything bigger is a confused or hostile peer).
constexpr std::size_t kMaxRequestBytes = 4096;
/// A connection that has not completed its exchange within this budget
/// is closed — a stalled scraper must not accumulate fds.
constexpr auto kConnDeadline = std::chrono::seconds(5);
/// Connections served concurrently; beyond it, accepts are refused by
/// immediate close (scrapers retry on their next interval).
constexpr std::size_t kMaxConns = 32;

struct HttpMetrics {
  obs::Counter& requests;
  obs::Counter& errors;
};

HttpMetrics& http_metrics() {
  static HttpMetrics m{obs::metrics().counter("server.http_requests"),
                       obs::metrics().counter("server.http_errors")};
  return m;
}

struct HttpConn {
  int fd = -1;
  std::string in;
  std::string out;
  std::size_t out_pos = 0;
  bool responding = false;
  Clock::time_point deadline;
};

std::string http_response(int code, const char* reason, const char* content_type,
                          std::string body) {
  std::string head = "HTTP/1.0 " + std::to_string(code) + " " + reason +
                     "\r\nContent-Type: " + content_type +
                     "\r\nContent-Length: " + std::to_string(body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  head += body;
  return head;
}

/// Parses "GET <path> HTTP/1.x" out of a complete request head.  Only
/// the request line matters; headers are ignored.
bool parse_request_line(const std::string& head, std::string& method,
                        std::string& target) {
  const std::size_t eol = head.find("\r\n");
  const std::string line = head.substr(0, eol);  // npos -> whole string
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string::npos) return false;
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string::npos) return false;
  method = line.substr(0, sp1);
  target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  return !method.empty() && !target.empty();
}

/// Routes a parsed request to a full serialized response.
std::string respond(const std::string& method, const std::string& target) {
  if (method != "GET") {
    http_metrics().errors.add();
    return http_response(405, "Method Not Allowed", "text/plain",
                         "only GET is served\n");
  }
  std::string path = target;
  std::string query;
  const std::size_t qpos = target.find('?');
  if (qpos != std::string::npos) {
    path = target.substr(0, qpos);
    query = target.substr(qpos + 1);
  }
  if (path == "/metrics") {
    return http_response(200, "OK",
                         "text/plain; version=0.0.4; charset=utf-8",
                         obs::to_prometheus(obs::metrics().snapshot()));
  }
  if (path == "/history") {
    // Optional ?n=<k>: only the k most recent samples.
    std::size_t last_n = 0;
    if (query.rfind("n=", 0) == 0) {
      last_n = static_cast<std::size_t>(std::strtoul(query.c_str() + 2, nullptr, 10));
    }
    return http_response(200, "OK", "application/json",
                         obs::sampler().history_json(last_n));
  }
  if (path == "/healthz") {
    return http_response(200, "OK", "text/plain", "ok\n");
  }
  http_metrics().errors.add();
  return http_response(404, "Not Found", "text/plain",
                       "serves /metrics, /history and /healthz\n");
}

/// Advances one exchange on a ready connection: reads the request head,
/// renders the response, writes it.  Returns false when the connection
/// is done (answered, refused, or the peer vanished).
bool serve(HttpConn& c, std::atomic<std::uint64_t>& served) {
  if (!c.responding) {
    char buf[1024];
    for (;;) {
      const ssize_t r = ::read(c.fd, buf, sizeof(buf));
      if (r == 0) return false;  // EOF before a full head
      if (r < 0) {
        if (errno == EINTR) continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) return false;
        break;
      }
      c.in.append(buf, static_cast<std::size_t>(r));
      if (c.in.size() > kMaxRequestBytes) {
        http_metrics().errors.add();
        return false;
      }
    }
    if (c.in.find("\r\n\r\n") == std::string::npos) return true;  // head incomplete
    std::string method;
    std::string target;
    if (parse_request_line(c.in, method, target)) {
      c.out = respond(method, target);
    } else {
      http_metrics().errors.add();
      c.out = http_response(400, "Bad Request", "text/plain", "bad request\n");
    }
    http_metrics().requests.add();
    served.fetch_add(1);
    c.responding = true;
  }
  while (c.out_pos < c.out.size()) {
    const ssize_t w = ::send(c.fd, c.out.data() + c.out_pos, c.out.size() - c.out_pos,
                             MSG_NOSIGNAL);
    if (w > 0) {
      c.out_pos += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    return w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);  // else peer vanished
  }
  return false;  // exchange complete
}

}  // namespace

HttpExpositionServer::HttpExpositionServer(std::uint16_t port)
    : listener_(port, 64, "HttpExpositionServer") {}

HttpExpositionServer::~HttpExpositionServer() { stop(); }

void HttpExpositionServer::start() {
  if (running_.exchange(true)) return;
  thread_ = std::thread([this]() { loop(); });
}

void HttpExpositionServer::stop() {
  if (!running_.exchange(false)) return;
  wakeup_.notify();
  if (thread_.joinable()) thread_.join();
}

void HttpExpositionServer::loop() {
  Poller poller;
  std::unordered_map<std::uint64_t, HttpConn> conns;
  std::uint64_t next_tag = kFirstConnTag;
  listener_.watch(poller, kListenTag);
  // Without the wakeup registered, waits are bounded so stop() is seen.
  const bool wake_registered = poller.add(wakeup_.fd(), kWakeTag, /*rd=*/true, /*wr=*/false);

  const auto drop = [&](std::unordered_map<std::uint64_t, HttpConn>::iterator it) {
    poller.del(it->second.fd);
    ::close(it->second.fd);
    return conns.erase(it);
  };

  std::vector<Poller::Ready> events;
  while (running_.load()) {
    listener_.resume(poller);
    // Connection deadlines are seconds-scale and accept backoffs at most
    // 200 ms, so a 100 ms bound on the wait catches both.
    const bool idle = conns.empty() && listener_.resume_at() == Clock::time_point{};
    poller.wait(events, idle && wake_registered ? -1 : 100);

    for (const Poller::Ready& ev : events) {
      if (ev.tag == kWakeTag) {
        wakeup_.drain();
      } else if (ev.tag == kListenTag) {
        listener_.accept_all(poller, http_metrics().errors, [&](int fd) {
          // Beyond the cap, refuse by immediate close (scrapers retry on
          // their next interval).
          if (conns.size() >= kMaxConns || !poller.add(fd, next_tag, true, false)) {
            http_metrics().errors.add();
            ::close(fd);
            return;
          }
          HttpConn c;
          c.fd = fd;
          c.deadline = Clock::now() + kConnDeadline;
          conns.emplace(next_tag++, std::move(c));
        });
      } else if (auto it = conns.find(ev.tag); it != conns.end()) {
        HttpConn& c = it->second;
        const bool was_responding = c.responding;
        if (!serve(c, served_)) {
          drop(it);
        } else if (c.responding != was_responding) {
          poller.mod(c.fd, ev.tag, /*rd=*/false, /*wr=*/true);
        }
      }
    }

    const auto now = Clock::now();
    for (auto it = conns.begin(); it != conns.end();) {
      it = now >= it->second.deadline ? drop(it) : std::next(it);
    }
  }
  for (auto it = conns.begin(); it != conns.end();) it = drop(it);
  listener_.close(poller);
}

}  // namespace adr::net
