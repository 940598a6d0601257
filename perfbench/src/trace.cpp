#include "trace.h"

#include <algorithm>
#include <atomic>
#include <iomanip>
#include <ostream>
#include <utility>

namespace perfbench {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

double Tracer::nowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int Tracer::threadId() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1);
  return id;
}

int Tracer::begin(const char* name, int parent) {
  const double start = nowUs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, start, start, parent, threadId()});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int id) {
  const double end = nowUs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].endUs = end;
}

int Tracer::add(const char* name, double startUs, double endUs, int parent) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, startUs, endUs, parent, threadId()});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

double Tracer::totalMs(const std::string& name) const {
  double us = 0.0;
  for (const Span& s : spans()) {
    if (name == s.name) us += s.endUs - s.startUs;
  }
  return us / 1e3;
}

std::uint64_t Tracer::count(const std::string& name) const {
  std::uint64_t n = 0;
  for (const Span& s : spans()) n += name == s.name ? 1 : 0;
  return n;
}

std::map<std::string, double> Tracer::selfTimeMs() const {
  const std::vector<Span> all = spans();
  std::vector<std::vector<std::pair<double, double>>> children(all.size());
  for (const Span& s : all) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.startUs,
                                                               s.endUs);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent.
    double covered = 0.0;
    double reach = s.startUs;
    for (const auto& [from, to] : kids) {
      const double lo = std::max(from, reach);
      const double hi = std::min(to, s.endUs);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, std::min(to, s.endUs));
    }
    self[s.name] += (s.endUs - s.startUs - covered) / 1e3;
  }
  return self;
}

void Tracer::writeChromeJson(std::ostream& os) const {
  const std::vector<Span> all = spans();
  os << std::fixed << std::setprecision(3);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    if (i > 0) os << ",";
    os << "\n{\"name\":\"" << s.name << "\",\"cat\":\""
       << std::string(s.name).substr(0, std::string(s.name).find('.'))
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
       << ",\"ts\":" << s.startUs << ",\"dur\":" << (s.endUs - s.startUs)
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  os << "\n]}\n";
}

}  // namespace perfbench
