// In-memory span recorder for the traced run.
//
// Spans are recorded only by the benchmark's own code, around its calls
// into the engine's public functions: name, start, end, the span that
// caused it, and the recording thread. They stay in memory and are
// written out once at the end as Chrome trace-event JSON (load the file
// in chrome://tracing or https://ui.perfetto.dev).
//
// A span's self time is its duration minus the part of its interval
// that its child spans cover (children may overlap each other, e.g.
// ingest fills on another thread, so coverage is an interval union).
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name;  ///< static string: layer.stage
  double startUs;    ///< since the tracer's origin
  double endUs;
  int parent;        ///< index of the causing span, -1 for a root
  int tid;           ///< small per-thread id
};

class Tracer {
 public:
  Tracer();

  /// Opens a span now; returns its index for end() and as a parent.
  int begin(const char* name, int parent = -1);
  void end(int id);
  /// Records a finished span with explicit times (tests, imports).
  int add(const char* name, double startUs, double endUs, int parent);

  /// RAII helper: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, int parent = -1)
        : tracer_(tracer), id_(tracer.begin(name, parent)) {}
    ~Scope() { tracer_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] int id() const noexcept { return id_; }

   private:
    Tracer& tracer_;
    int id_;
  };

  [[nodiscard]] std::vector<Span> spans() const;
  /// Summed duration (ms) and count of spans called `name`.
  [[nodiscard]] double totalMs(const std::string& name) const;
  [[nodiscard]] std::uint64_t count(const std::string& name) const;
  /// Self time (ms) of every span name, summed over its spans.
  [[nodiscard]] std::map<std::string, double> selfTimeMs() const;
  /// Chrome trace-event JSON ("X" complete events, microseconds).
  void writeChromeJson(std::ostream& os) const;

 private:
  [[nodiscard]] double nowUs() const;
  static int threadId();

  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mutex_;  ///< guards spans_
  std::vector<Span> spans_;
};

}  // namespace perfbench
