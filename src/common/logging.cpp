#include "common/logging.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "common/telemetry.h"

namespace fedcl {
namespace {

LogLevel level_from_env() {
  const char* v = std::getenv("FEDCL_LOG");
  if (v == nullptr) return LogLevel::kInfo;
  if (std::strcmp(v, "debug") == 0) return LogLevel::kDebug;
  if (std::strcmp(v, "info") == 0) return LogLevel::kInfo;
  if (std::strcmp(v, "warn") == 0) return LogLevel::kWarn;
  if (std::strcmp(v, "error") == 0) return LogLevel::kError;
  return LogLevel::kInfo;
}

std::mutex g_mutex;

}  // namespace

LogLevel log_level() {
  static const LogLevel level = level_from_env();
  return level;
}

const char* log_level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

namespace detail {

void emit_log_line(LogLevel level, const std::string& msg) {
  if (static_cast<int>(level) < static_cast<int>(log_level())) return;
  // Route through the telemetry sinks first (a no-op without sinks):
  // the registry serializes all event kinds under one lock, so log
  // lines land in the JSONL stream in order with metric events.
  telemetry::global_registry().log_line(log_level_name(level), msg);
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point start = Clock::now();
  double secs =
      std::chrono::duration<double>(Clock::now() - start).count();
  std::lock_guard<std::mutex> lock(g_mutex);
  std::fprintf(stderr, "[%8.3f %-5s] %s\n", secs, log_level_name(level),
               msg.c_str());
}

}  // namespace detail
}  // namespace fedcl
