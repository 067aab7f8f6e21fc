#include "core/runtime_config.hpp"

#include <string>

namespace adr {

namespace {
Status invalid(const std::string& what) {
  return Status::make(StatusCode::kInvalidArgument, "RuntimeConfig: " + what);
}
}  // namespace

Status RuntimeConfig::validate() const {
  if (scheduler_workers == 0) return invalid("scheduler_workers must be >= 1");
  if (max_pending == 0) return invalid("max_pending must be >= 1");
  if (max_connections == 0) return invalid("max_connections must be >= 1");
  if (gang.enabled && gang.max_gang < 2) {
    return invalid("gang.max_gang must be >= 2 when gang formation is enabled");
  }
  if (gang.window.count() < 0) return invalid("gang.window must be >= 0");
  if (telemetry.sample_capacity == 0) {
    return invalid("telemetry.sample_capacity must be >= 1");
  }
  if (telemetry.sample_period.count() <= 0) {
    return invalid("telemetry.sample_period must be positive");
  }

  const AdaptiveOptions& a = adaptive;
  if (a.scale_up_ticks < 1 || a.scale_down_ticks < 1) {
    return invalid("adaptive hysteresis tick counts must be >= 1");
  }
  if (a.gang_close_qps < 0.0 || a.gang_open_qps < a.gang_close_qps) {
    return invalid("adaptive gang qps thresholds must satisfy 0 <= close <= open");
  }
  if (a.gang_window.count() < 0) return invalid("adaptive.gang_window must be >= 0");
  if (a.tick.count() <= 0) return invalid("adaptive.tick must be positive");
  return Status::make_ok();
}

void RuntimeConfig::check() const {
  const Status s = validate();
  if (!s.ok()) throw StatusError(s.code, s.message);
}

}  // namespace adr
