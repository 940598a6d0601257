// Small descriptive-statistics helpers used by the benchmark harnesses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "hbn/util/rng.h"

namespace hbn::util {

/// Linear-interpolated percentile of an ascending-sorted sample,
/// q in [0, 100] (clamped): rank = q/100 · (n−1), lerp between the two
/// bracketing order statistics. The single percentile definition of the
/// library — Accumulator (BenchReporter's wall-clock summaries) and
/// ReservoirSampler (the serve-layer latency sampler) both delegate
/// here, so every reported p50/p99/p999 means the same thing.
/// Throws std::logic_error on an empty sample.
[[nodiscard]] double percentileSorted(std::span<const double> sorted,
                                      double q);

/// Accumulates a stream of doubles and exposes summary statistics.
/// Designed for experiment loops: push every trial's measurement, then
/// report mean / percentiles in the result table.
class Accumulator {
 public:
  void add(double value);
  void clear() noexcept { values_.clear(); }

  [[nodiscard]] std::size_t count() const noexcept { return values_.size(); }
  [[nodiscard]] bool empty() const noexcept { return values_.empty(); }

  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double sum() const;
  [[nodiscard]] double mean() const;
  /// Sample standard deviation (n-1 denominator); 0 for fewer than 2 values.
  [[nodiscard]] double stddev() const;
  /// Linear-interpolated percentile, q in [0, 100].
  [[nodiscard]] double percentile(double q) const;
  [[nodiscard]] double median() const { return percentile(50.0); }

  [[nodiscard]] std::span<const double> values() const noexcept {
    return values_;
  }

 private:
  std::vector<double> values_;
  mutable std::vector<double> sorted_;  // lazily maintained cache
  mutable bool sortedValid_ = false;
};

/// Fixed-capacity uniform sample of an unbounded stream (Vitter's
/// algorithm R): every value ever add()ed has probability
/// capacity/seen of being in the reservoir, so percentiles over the
/// reservoir estimate the stream's percentiles without storing it.
/// Deterministic given the seed and the add() sequence. Used by the
/// epoch server to keep request-latency p50/p99/p999 over
/// millions-of-requests runs in O(min(capacity, seen)) memory: the
/// reservoir grows with the traffic up to its capacity and is never
/// reserved up front, so a huge capacity costs nothing until filled.
class ReservoirSampler {
 public:
  /// `capacity` = 0 disables sampling (add() becomes a counter only).
  explicit ReservoirSampler(std::size_t capacity,
                            std::uint64_t seed = 0x1a7e9c55ULL);

  void add(double value);

  /// Total values offered, including those not retained.
  [[nodiscard]] std::uint64_t seen() const noexcept { return seen_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }
  [[nodiscard]] std::span<const double> samples() const noexcept {
    return samples_;
  }

  /// percentileSorted over the current reservoir, q in [0, 100].
  /// Throws std::logic_error when empty.
  [[nodiscard]] double percentile(double q) const;

 private:
  std::size_t capacity_;
  std::uint64_t seen_ = 0;
  std::vector<double> samples_;
  Rng rng_;
  mutable std::vector<double> sorted_;  // lazily maintained cache
  mutable bool sortedValid_ = false;
};

/// Pearson correlation coefficient of two equally sized series.
/// Returns 0 when either series has zero variance or sizes mismatch.
[[nodiscard]] double pearson(std::span<const double> xs,
                             std::span<const double> ys);

/// Least-squares slope of ys against xs (0 when degenerate). Used by the
/// runtime-scaling benchmarks to report empirical growth rates.
[[nodiscard]] double linearSlope(std::span<const double> xs,
                                 std::span<const double> ys);

/// Formats `value` with `digits` significant fraction digits.
[[nodiscard]] std::string formatDouble(double value, int digits = 3);

}  // namespace hbn::util
