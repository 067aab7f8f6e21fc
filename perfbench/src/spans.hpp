// In-memory span log for the benchmark's traced run.
//
// Spans are recorded only from the benchmark's own code, around its
// calls into the program's public functions: the client round trip,
// the planner, the front end, the index and the chunk store.  Each span
// keeps its name, start, end, parent span and query id; a thread's open
// span is the parent of the next one it opens.  Nothing is written
// until the run ends, when the log is exported as Chrome trace_event
// JSON (complete "X" events), which Perfetto opens directly.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

class SpanLog {
 public:
  struct Span {
    const char* name = "";  // static storage (a literal)
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0 = root
    std::uint64_t query = 0;   // 0 = not tied to one query
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint32_t tid = 0;
  };

  /// Spans kept at most (bounds memory and the span file); later ones
  /// are counted in dropped().
  static constexpr std::size_t kCapacity = 1 << 17;

  SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Nanoseconds since the log was created.
  std::int64_t now_ns() const;

  /// RAII span: opens on construction when the log is enabled (and,
  /// with `only_nested`, when the thread already has an open span),
  /// closes and records on destruction.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name, std::uint64_t query = 0,
          bool only_nested = false);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_ = nullptr;  // null when not recording
    Span span_;
    std::uint64_t saved_parent_ = 0;
  };

  std::vector<Span> spans() const;
  std::uint64_t dropped() const { return dropped_.load(); }

  /// Writes the spans (pid 1) and, optionally, the program's own tracer
  /// events (pid 2) shifted by `tracer_offset_us` onto this log's clock.
  void write_chrome_json(std::ostream& os, const std::vector<adr::obs::TraceEvent>& program,
                         std::int64_t tracer_offset_us) const;

 private:
  void record(const Span& span);

  std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> dropped_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// The process-wide span log.
SpanLog& spans();

}  // namespace perfbench
