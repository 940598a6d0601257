// The benchmark's four serving workloads (why each exists: README.md).
//
// All run on makeClusterNetwork(4, 8). Input is generated from the seed
// before timing starts, into memory. Thread and process counts are
// capped at the host's core count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hbn/net/tree.h"
#include "hbn/workload/workload.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  std::string stream;  ///< serve::makeGeneratedStream profile
  int numObjects = 0;
  std::uint64_t requests = 0;
  double readFraction = 0.9;
  std::string policy;
  int threads = 1;             ///< per engine (per worker when sharded)
  std::size_t epochSize = 0;
  double offeredRate = 0.0;    ///< requests/s; > 0 = open loop (paced)
  std::uint64_t checkpointEvery = 0;  ///< epochs; 0 = no checkpoints
  int shardWorkers = 0;        ///< exec'd socket workers; 0 = in-process
};

/// All workloads, with thread/process counts already capped at `cores`.
[[nodiscard]] std::vector<WorkloadSpec> workloadCatalogue(int cores);

/// The topology every workload serves on.
[[nodiscard]] hbn::net::Tree benchTopology();

/// Generated input of `spec` for `seed`, pulled through the same
/// generator-backed stream hbn_serve uses; `generateMreqPerSec`
/// receives the generator's rate.
[[nodiscard]] std::vector<hbn::workload::RequestEvent> generateInput(
    const hbn::net::Tree& tree, const WorkloadSpec& spec, std::uint64_t seed,
    double& generateMreqPerSec);

}  // namespace perfbench
