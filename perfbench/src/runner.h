// Timed runs, output checks, the traced run, and the result line.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for checkpoints and the Chrome trace file.
  std::string workDir = ".bench_build/perfbench-run";
  /// Source revision recorded in the run metadata.
  std::string gitRev = "unavailable";
};

/// Runs one workload and prints a detail line followed by the result
/// line (the last line of stdout). Returns the process exit code.
int runWorkload(const RunArgs& args);

/// One paced serve of phase-shift-paced per offered rate (requests/s),
/// printing lag and latency per rate: the sweep that fixes the
/// workload's offered rate.
int runRateSweep(const RunArgs& args, const std::vector<double>& rates);

/// Names of the metrics the result line carries with --trace 0 / 1.
[[nodiscard]] const std::vector<std::string>& endToEndMetricNames();
[[nodiscard]] const std::vector<std::string>& perLayerMetricNames();

}  // namespace perfbench
