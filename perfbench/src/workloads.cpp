#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <span>

#include "hbn/net/generators.h"
#include "hbn/serve/request_stream.h"
#include "hbn/workload/generators.h"

namespace perfbench {

std::vector<WorkloadSpec> workloadCatalogue(int cores) {
  const int threads = std::clamp(cores, 1, 4);
  std::vector<WorkloadSpec> all;

  WorkloadSpec hot;
  hot.name = "skewed-hot";
  hot.stream = "skewed";
  hot.numObjects = 1024;
  hot.requests = 8'000'000;
  hot.policy = "tree-counters";
  hot.threads = threads;
  hot.epochSize = 65536;
  all.push_back(hot);

  WorkloadSpec paced;
  paced.name = "phase-shift-paced";
  paced.stream = "phase-shift";
  paced.numObjects = 32768;
  paced.requests = 1'200'000;
  paced.policy = "adaptive";
  paced.threads = threads;
  paced.epochSize = 16384;
  // About half of the engine's capacity on this workload on a contended
  // 4-vCPU host (0.65-0.73 Mreq/s; 1.19 when the host is quiet: rate
  // sweeps in README.md), so lag stays bounded when the host is busy.
  paced.offeredRate = 0.4e6;
  paced.checkpointEvery = 64;
  all.push_back(paced);

  WorkloadSpec sparse;
  sparse.name = "sparse-1m";
  sparse.stream = "skewed";
  sparse.numObjects = 1'000'000;
  sparse.requests = 1'000'000;
  sparse.policy = "tree-counters";
  sparse.threads = threads;
  sparse.epochSize = 65536;
  all.push_back(sparse);

  WorkloadSpec sharded = hot;
  sharded.name = "sharded-socket";
  sharded.threads = 1;
  sharded.shardWorkers = threads;
  all.push_back(sharded);
  return all;
}

hbn::net::Tree benchTopology() { return hbn::net::makeClusterNetwork(4, 8); }

std::vector<hbn::workload::RequestEvent> generateInput(
    const hbn::net::Tree& tree, const WorkloadSpec& spec, std::uint64_t seed,
    double& generateMreqPerSec) {
  hbn::workload::StreamParams params;
  params.numObjects = spec.numObjects;
  params.readFraction = spec.readFraction;
  const auto start = std::chrono::steady_clock::now();
  std::unique_ptr<hbn::serve::RequestStream> stream =
      hbn::serve::makeGeneratedStream(spec.stream, tree, params, seed,
                                      spec.requests);
  std::vector<hbn::workload::RequestEvent> events(spec.requests);
  std::size_t filled = 0;
  while (filled < events.size()) {
    const std::size_t got = stream->fill(std::span(events).subspan(filled));
    if (got == 0) break;
    filled += got;
  }
  events.resize(filled);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  generateMreqPerSec =
      seconds > 0.0 ? static_cast<double>(filled) / seconds / 1e6 : 0.0;
  return events;
}

}  // namespace perfbench
