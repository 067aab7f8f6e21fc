#include "spans.hpp"

#include <functional>
#include <ostream>
#include <thread>

namespace perfbench {
namespace {

thread_local std::uint64_t t_open_span = 0;

std::uint32_t thread_tag() {
  return static_cast<std::uint32_t>(std::hash<std::thread::id>{}(std::this_thread::get_id()) &
                                    0xffffff);
}

void write_us(std::ostream& os, std::int64_t ns) {
  os << ns / 1000 << '.' << static_cast<char>('0' + (ns / 100) % 10)
     << static_cast<char>('0' + (ns / 10) % 10) << static_cast<char>('0' + ns % 10);
}

}  // namespace

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

SpanLog::Scope::Scope(SpanLog& log, const char* name, std::uint64_t query, bool only_nested) {
  if (!log.enabled() || (only_nested && t_open_span == 0)) return;
  log_ = &log;
  span_.name = name;
  span_.id = log.next_id_.fetch_add(1, std::memory_order_relaxed);
  span_.parent = t_open_span;
  span_.query = query;
  span_.tid = thread_tag();
  saved_parent_ = t_open_span;
  t_open_span = span_.id;
  span_.start_ns = log.now_ns();
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  span_.end_ns = log_->now_ns();
  t_open_span = saved_parent_;
  log_->record(span_);
}

void SpanLog::record(const Span& span) {
  std::lock_guard lock(mutex_);
  if (spans_.size() >= kCapacity) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  spans_.push_back(span);
}

std::vector<SpanLog::Span> SpanLog::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

void SpanLog::write_chrome_json(std::ostream& os,
                                const std::vector<adr::obs::TraceEvent>& program,
                                std::int64_t tracer_offset_us) const {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"perfbench "
        "spans\"}},\n";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"args\":{\"name\":\"program "
        "tracer\"}}";
  for (const Span& s : spans()) {
    os << ",\n{\"name\":\"" << s.name << "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":";
    write_us(os, s.start_ns);
    os << ",\"dur\":";
    write_us(os, s.end_ns - s.start_ns);
    os << ",\"pid\":1,\"tid\":" << s.tid << ",\"args\":{\"span\":" << s.id
       << ",\"parent\":" << s.parent << ",\"query\":" << s.query << "}}";
  }
  for (const adr::obs::TraceEvent& e : program) {
    os << ",\n{\"name\":\"" << e.name << "\",\"cat\":\"" << e.cat
       << "\",\"ph\":\"X\",\"ts\":" << static_cast<std::int64_t>(e.ts_us) + tracer_offset_us
       << ",\"dur\":" << e.dur_us << ",\"pid\":2,\"tid\":" << e.tid
       << ",\"args\":{\"query\":" << e.query << ",\"tile\":" << e.tile << "}}";
  }
  os << "\n]}\n";
}

SpanLog& spans() {
  static SpanLog log;
  return log;
}

}  // namespace perfbench
