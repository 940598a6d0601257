// Benchmark-owned request streams.
//
// The engine only ever pulls pre-built input through these: generation
// happens before timing starts, so the timed path holds no generator.
//
//   PrebuiltStream  closed loop — hands the next events out as fast as
//                   the engine asks for them.
//   PacedStream     open loop — event i is due at start + i / rate on a
//                   fixed schedule that does not slow when the engine
//                   slows. An event is never released before it is due,
//                   and every released event records its lag: release
//                   time minus due time. The lag is the open-loop
//                   backlog signal: the engine's latency is measured
//                   from the release (its arrival stamp), so a request's
//                   true sojourn is about latency + lag.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "hbn/serve/request_stream.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using hbn::workload::RequestEvent;

class PrebuiltStream final : public hbn::serve::RequestStream {
 public:
  /// `events` must outlive the stream.
  explicit PrebuiltStream(std::span<const RequestEvent> events)
      : events_(events) {}

  [[nodiscard]] std::size_t fill(std::span<RequestEvent> out) override;

  /// Events handed out so far.
  [[nodiscard]] std::uint64_t handedOut() const noexcept { return cursor_; }

  /// Called once, from whichever thread makes the first fill that finds
  /// the input exhausted (the engine is still live at that point).
  void onExhausted(std::function<void()> hook) {
    onExhausted_ = std::move(hook);
  }

 private:
  std::span<const RequestEvent> events_;
  std::size_t cursor_ = 0;
  std::function<void()> onExhausted_;
};

class PacedStream final : public hbn::serve::RequestStream {
 public:
  /// `events` must outlive the stream. The schedule starts at the first
  /// fill call.
  PacedStream(std::span<const RequestEvent> events, double ratePerSec);

  [[nodiscard]] std::size_t fill(std::span<RequestEvent> out) override;

  [[nodiscard]] std::uint64_t handedOut() const noexcept { return cursor_; }
  /// Due time of event `index`; only meaningful after the first fill.
  [[nodiscard]] Clock::time_point dueTime(std::uint64_t index) const;
  /// Lag of every released event, in release order (milliseconds).
  [[nodiscard]] std::span<const float> lagMs() const noexcept {
    return {lagMs_.data(), static_cast<std::size_t>(cursor_)};
  }

 private:
  std::span<const RequestEvent> events_;
  double nsPerEvent_ = 0.0;
  bool started_ = false;
  Clock::time_point start_{};
  std::size_t cursor_ = 0;
  std::vector<float> lagMs_;
};

}  // namespace perfbench
