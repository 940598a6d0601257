#include "streams.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <thread>

namespace perfbench {

std::size_t PrebuiltStream::fill(std::span<RequestEvent> out) {
  const std::size_t n = std::min(out.size(), events_.size() - cursor_);
  std::copy_n(events_.begin() + static_cast<std::ptrdiff_t>(cursor_), n,
              out.begin());
  cursor_ += n;
  if (n == 0 && onExhausted_) {
    onExhausted_();
    onExhausted_ = nullptr;
  }
  return n;
}

PacedStream::PacedStream(std::span<const RequestEvent> events,
                         double ratePerSec)
    : events_(events), lagMs_(events.size()) {
  if (!(ratePerSec > 0.0)) {
    throw std::invalid_argument("PacedStream: rate must be positive");
  }
  nsPerEvent_ = 1e9 / ratePerSec;
}

Clock::time_point PacedStream::dueTime(std::uint64_t index) const {
  return start_ + std::chrono::nanoseconds(static_cast<std::int64_t>(
                      std::llround(static_cast<double>(index) * nsPerEvent_)));
}

std::size_t PacedStream::fill(std::span<RequestEvent> out) {
  if (cursor_ == events_.size() || out.empty()) return 0;
  if (!started_) {
    started_ = true;
    start_ = Clock::now();
  }
  Clock::time_point now = Clock::now();
  const Clock::time_point firstDue = dueTime(cursor_);
  if (now < firstDue) {
    std::this_thread::sleep_until(firstDue);
    now = Clock::now();
  }
  // Every event whose due time has passed by `now` is released, so the
  // engine never waits on the schedule for work that is already due.
  const double elapsedNs =
      std::chrono::duration<double, std::nano>(now - start_).count();
  auto dueCount = static_cast<std::size_t>(elapsedNs / nsPerEvent_) + 1;
  // Event `cursor_` is due by construction (slept until firstDue); the
  // clamp absorbs rounding in the division above.
  dueCount = std::clamp(dueCount, cursor_ + 1, events_.size());
  while (dueCount > cursor_ + 1 && dueTime(dueCount - 1) > now) --dueCount;
  const std::size_t n = std::min(out.size(), dueCount - cursor_);
  std::copy_n(events_.begin() + static_cast<std::ptrdiff_t>(cursor_), n,
              out.begin());
  for (std::size_t i = 0; i < n; ++i) {
    lagMs_[cursor_ + i] = static_cast<float>(
        std::chrono::duration<double, std::milli>(now - dueTime(cursor_ + i))
            .count());
  }
  cursor_ += n;
  return n;
}

}  // namespace perfbench
