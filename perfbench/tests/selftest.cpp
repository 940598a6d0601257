// Self-test of the benchmark's own parts: the streams, the span
// recorder, and the metric names against BENCHMARK.json.
//
//   perfbench_selftest PATH/TO/BENCHMARK.json
//
// Exits 0 when every check passes; prints each failure otherwise.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "runner.h"
#include "streams.h"
#include "trace.h"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

std::vector<perfbench::RequestEvent> events(std::size_t n) {
  std::vector<perfbench::RequestEvent> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i].object = static_cast<int>(i % 7);
    out[i].origin = 1;
  }
  return out;
}

void prebuiltYieldsExactlyTheOfferedCount() {
  const auto input = events(10007);
  perfbench::PrebuiltStream stream(input);
  std::vector<perfbench::RequestEvent> buffer(64);
  std::size_t total = 0;
  bool exhausted = false;
  stream.onExhausted([&] { exhausted = true; });
  for (;;) {
    const std::size_t got = stream.fill(buffer);
    for (std::size_t i = 0; i < got; ++i) {
      check(buffer[i].object == input[total + i].object, "prebuilt order");
    }
    if (got == 0) break;
    total += got;
  }
  check(total == input.size(), "prebuilt stream yields every event once");
  check(stream.handedOut() == input.size(), "prebuilt handedOut count");
  check(exhausted, "prebuilt exhaustion hook fires");
  check(stream.fill(buffer) == 0, "prebuilt stays exhausted");
}

void pacedNeverReleasesEarly() {
  const auto input = events(20000);
  perfbench::PacedStream stream(input, 2.0e6);  // 0.5 us per event
  std::vector<perfbench::RequestEvent> buffer(256);
  std::size_t total = 0;
  for (;;) {
    const std::size_t got = stream.fill(buffer);
    const auto returned = perfbench::Clock::now();
    if (got == 0) break;
    total += got;
    check(stream.dueTime(total - 1) <= returned,
          "paced stream released an event before its due time");
  }
  check(total == input.size(), "paced stream yields every event once");
  for (const float lag : stream.lagMs()) {
    check(lag >= 0.0f, "paced lag is never negative");
  }
}

void pacedReportsLagAcrossAStall() {
  const auto input = events(4000);
  const double rate = 1.0e5;  // 10 us per event
  perfbench::PacedStream stream(input, rate);
  std::vector<perfbench::RequestEvent> buffer(16);
  std::size_t total = stream.fill(buffer);
  const auto stallStart = perfbench::Clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const double stallMs = std::chrono::duration<double, std::milli>(
                             perfbench::Clock::now() - stallStart)
                             .count();
  // The first event after the stall was due right after the previous
  // batch, so it comes out late by about the stall.
  const std::size_t got = stream.fill(buffer);
  check(got == buffer.size(), "a stalled consumer gets a full batch");
  const float lagAfterStall = stream.lagMs()[total];
  check(lagAfterStall >= stallMs - 1.0,
        "lag after a 30 ms stall is at least the stall (got " +
            std::to_string(lagAfterStall) + " ms)");
  check(lagAfterStall <= stallMs + 20.0, "lag after the stall is bounded");
  total += got;
  // Consumed promptly afterwards, the backlog drains and lag falls back.
  while (stream.fill(buffer) > 0) {
  }
  const std::span<const float> lag = stream.lagMs();
  check(lag.size() == input.size(), "paced stream lag covers every event");
  // Timer wake-ups on a loaded host can be late, so judge recovery by
  // the least-late event of the last quarter rather than the last one.
  const float recovered =
      *std::min_element(lag.end() - static_cast<std::ptrdiff_t>(lag.size() / 4),
                        lag.end());
  check(recovered < 5.0f, "lag recovers once the consumer catches up (got " +
                              std::to_string(recovered) + " ms)");
}

void selfTimeSubtractsChildUnion() {
  perfbench::Tracer tracer;
  const int parent = tracer.add("serve.serve", 0.0, 10000.0, -1);
  tracer.add("serve.fill", 1000.0, 3000.0, parent);
  tracer.add("serve.fill", 2000.0, 4000.0, parent);  // overlaps the first
  tracer.add("serve.fill", 9000.0, 12000.0, parent);  // runs past the parent
  const auto self = tracer.selfTimeMs();
  check(std::abs(self.at("serve.serve") - 6.0) < 1e-9,
        "self time = 10 ms - union(1..4, 9..10) = 6 ms");
  check(std::abs(tracer.totalMs("serve.fill") - 7.0) < 1e-9,
        "fill total is the plain sum of span durations");
  check(tracer.count("serve.fill") == 3, "span count");
  std::ostringstream json;
  tracer.writeChromeJson(json);
  check(json.str().find("\"ph\":\"X\"") != std::string::npos,
        "chrome trace has complete events");
}

void metricNamesMatchBenchmarkJson(const std::string& path) {
  const std::regex valid("[A-Za-z0-9_.-]+");
  std::set<std::string> emitted;
  for (const auto* list : {&perfbench::endToEndMetricNames(),
                           &perfbench::perLayerMetricNames()}) {
    for (const std::string& name : *list) {
      check(std::regex_match(name, valid), "metric name " + name);
      check(emitted.insert(name).second, "metric name used twice: " + name);
    }
  }
  std::ifstream in(path);
  check(static_cast<bool>(in), "cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  // Every "name" in the end_to_end and per_layer lists must be emitted.
  const std::size_t metricsStart = json.find("\"end_to_end\"");
  check(metricsStart != std::string::npos, "BENCHMARK.json has end_to_end");
  if (metricsStart == std::string::npos) return;
  const std::regex nameField("\"name\"\\s*:\\s*\"([^\"]+)\"");
  int listed = 0;
  for (auto it = std::sregex_iterator(json.begin() + metricsStart, json.end(),
                                      nameField);
       it != std::sregex_iterator(); ++it) {
    const std::string name = (*it)[1];
    ++listed;
    check(emitted.count(name) == 1,
          name + " is in BENCHMARK.json but never emitted");
  }
  check(listed == static_cast<int>(emitted.size()),
        "BENCHMARK.json lists exactly the emitted metrics");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: perfbench_selftest PATH/TO/BENCHMARK.json\n";
    return 2;
  }
  prebuiltYieldsExactlyTheOfferedCount();
  pacedNeverReleasesEarly();
  pacedReportsLagAcrossAStall();
  selfTimeSubtractsChildUnion();
  metricNamesMatchBenchmarkJson(argv[1]);
  std::cout << (failures == 0 ? "selftest: all checks passed\n"
                              : "selftest: FAILED\n");
  return failures == 0 ? 0 : 1;
}
