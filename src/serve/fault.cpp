#include "serve/fault.hpp"

#include <stdexcept>
#include <string_view>

#include "common/text.hpp"

namespace dsf {

namespace {

std::uint64_t ParseCount(std::string_view key, std::string_view value) {
  const auto n = ParseNumber<std::uint64_t>(value);
  if (!n) {
    throw std::runtime_error("fault spec: bad value for '" + std::string(key) +
                             "': '" + std::string(value) + "'");
  }
  return *n;
}

}  // namespace

void FaultInjector::Configure(const std::string& spec) {
  std::uint64_t exit_after = 0;
  std::uint64_t drop_every = 0;
  std::uint64_t truncate_every = 0;
  std::uint64_t delay_every = 0;
  std::uint64_t delay_ms = 0;

  for (const std::string_view field : SplitOn(spec, ',')) {
    if (field.empty()) continue;
    const std::size_t eq = field.find('=');
    if (eq == std::string_view::npos) {
      throw std::runtime_error("fault spec: expected key=value, got '" +
                               std::string(field) + "'");
    }
    const std::string_view key = Trim(field.substr(0, eq));
    const std::string_view value = Trim(field.substr(eq + 1));
    if (key == "exit_after") {
      exit_after = ParseCount(key, value);
    } else if (key == "drop_every") {
      drop_every = ParseCount(key, value);
    } else if (key == "truncate_every") {
      truncate_every = ParseCount(key, value);
    } else if (key == "delay_every") {
      delay_every = ParseCount(key, value);
    } else if (key == "delay_ms") {
      delay_ms = ParseCount(key, value);
      if (delay_ms > 600000) {
        throw std::runtime_error("fault spec: delay_ms must be <= 600000");
      }
    } else {
      throw std::runtime_error("fault spec: unknown key '" + std::string(key) +
                               "'");
    }
  }
  if (delay_ms > 0 && delay_every == 0) delay_every = 1;

  std::lock_guard<std::mutex> lock(mutex_);
  requests_ = 0;
  exit_after_ = exit_after;
  drop_every_ = drop_every;
  truncate_every_ = truncate_every;
  delay_every_ = delay_every;
  delay_ms_ = static_cast<int>(delay_ms);
  enabled_.store(exit_after_ != 0 || drop_every_ != 0 ||
                     truncate_every_ != 0 || delay_every_ != 0,
                 std::memory_order_release);
}

FaultAction FaultInjector::OnRequest() {
  FaultAction action;
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t n = ++requests_;
  if (exit_after_ != 0 && n >= exit_after_) {
    action.kind = FaultAction::Kind::kExit;
  } else if (drop_every_ != 0 && n % drop_every_ == 0) {
    action.kind = FaultAction::Kind::kDrop;
  } else if (truncate_every_ != 0 && n % truncate_every_ == 0) {
    action.kind = FaultAction::Kind::kTruncate;
  } else if (delay_every_ != 0 && n % delay_every_ == 0) {
    action.kind = FaultAction::Kind::kDelay;
    action.delay_ms = delay_ms_;
  }
  return action;
}

std::uint64_t FaultInjector::Requests() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return requests_;
}

}  // namespace dsf
