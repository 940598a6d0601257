#include "hbn/util/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace hbn::util {

void Accumulator::add(double value) {
  values_.push_back(value);
  sortedValid_ = false;
}

double Accumulator::min() const {
  if (values_.empty()) throw std::logic_error("Accumulator::min on empty");
  return *std::min_element(values_.begin(), values_.end());
}

double Accumulator::max() const {
  if (values_.empty()) throw std::logic_error("Accumulator::max on empty");
  return *std::max_element(values_.begin(), values_.end());
}

double Accumulator::sum() const {
  double total = 0.0;
  for (double v : values_) total += v;
  return total;
}

double Accumulator::mean() const {
  if (values_.empty()) throw std::logic_error("Accumulator::mean on empty");
  return sum() / static_cast<double>(values_.size());
}

double Accumulator::stddev() const {
  if (values_.size() < 2) return 0.0;
  const double m = mean();
  double acc = 0.0;
  for (double v : values_) acc += (v - m) * (v - m);
  return std::sqrt(acc / static_cast<double>(values_.size() - 1));
}

double Accumulator::percentile(double q) const {
  if (values_.empty()) {
    throw std::logic_error("Accumulator::percentile on empty");
  }
  if (!sortedValid_) {
    sorted_ = values_;
    std::sort(sorted_.begin(), sorted_.end());
    sortedValid_ = true;
  }
  return percentileSorted(sorted_, q);
}

double percentileSorted(std::span<const double> sorted, double q) {
  if (sorted.empty()) {
    throw std::logic_error("percentileSorted on empty sample");
  }
  q = std::clamp(q, 0.0, 100.0);
  const double rank = q / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

ReservoirSampler::ReservoirSampler(std::size_t capacity, std::uint64_t seed)
    : capacity_(capacity), rng_(seed) {}

void ReservoirSampler::add(double value) {
  ++seen_;
  if (capacity_ == 0) return;
  if (samples_.size() < capacity_) {
    samples_.push_back(value);
    sortedValid_ = false;
    return;
  }
  // Algorithm R: the new value replaces a uniformly random reservoir
  // slot with probability capacity/seen.
  const std::uint64_t j = rng_.nextBelow(seen_);
  if (j < capacity_) {
    samples_[static_cast<std::size_t>(j)] = value;
    sortedValid_ = false;
  }
}

double ReservoirSampler::percentile(double q) const {
  if (samples_.empty()) {
    throw std::logic_error("ReservoirSampler::percentile on empty");
  }
  if (!sortedValid_) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sortedValid_ = true;
  }
  return percentileSorted(sorted_, q);
}

double pearson(std::span<const double> xs, std::span<const double> ys) {
  if (xs.size() != ys.size() || xs.size() < 2) return 0.0;
  const auto n = static_cast<double>(xs.size());
  double sx = 0, sy = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
  }
  const double mx = sx / n;
  const double my = sy / n;
  double sxy = 0, sxx = 0, syy = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double linearSlope(std::span<const double> xs, std::span<const double> ys) {
  if (xs.size() != ys.size() || xs.size() < 2) return 0.0;
  const auto n = static_cast<double>(xs.size());
  double sx = 0, sy = 0, sxy = 0, sxx = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
    sxy += xs[i] * ys[i];
    sxx += xs[i] * xs[i];
  }
  const double denom = n * sxx - sx * sx;
  if (denom == 0.0) return 0.0;
  return (n * sxy - sx * sy) / denom;
}

std::string formatDouble(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

}  // namespace hbn::util
