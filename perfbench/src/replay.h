// Outside-in layer replay for the traced run.
//
// Re-serves the workload's input one epoch at a time, on one thread and
// in the barrier engine's order, by calling the public functions of
// each layer directly, with a span around every call group:
//
//   shard.encode / shard.decode   EpochMsg::encode/decode (sharded only)
//   serve.bucket                  dynamic::bucketRequestsByObject
//   dynamic.serve                 OnlinePolicy::serveShard per touched
//                                 object, with a FlatLoadAccumulator
//   core.lower_bound              IncrementalLowerBound::remove/add
//   workload.aggregate            Workload::addReads/addWrites
//   core.congestion               LoadMap::congestion
//   dynamic.handoff               beginHandoff + target + resetCopySet
//                                 (applyHandoffTarget) at every epoch
//                                 the engine logged `replaced`
//   serve.checkpoint              snapshot fields + writeCheckpointFile
//
// The barrier engine at one thread performs exactly this per-object
// work (the repo's 1-vs-N and barrier == pipelined invariants), so the
// replay's counters and final loads must equal the engine's; when they
// do, its per-layer times are verified.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "hbn/core/load.h"
#include "hbn/net/rooted.h"
#include "hbn/serve/epoch_server.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

struct ReplayOutcome {
  std::vector<hbn::core::Count> loads;  ///< final serve + migration loads
  hbn::core::Count replications = 0;
  hbn::core::Count invalidations = 0;
  std::uint64_t epochs = 0;
  std::uint64_t handoffs = 0;
  std::uint64_t checkpoints = 0;
  double checkpointBytes = 0.0;  ///< mean bytes per checkpoint file
  double touchedFrac = 0.0;      ///< mean touched / declared objects
  /// Σ over epochs of the busiest worker's requests ÷ Σ of the mean,
  /// under parallelForObjects' split at the workload's thread count.
  double workerImbalance = 1.0;
};

/// Replays `input` through the layers under span `parent`. `engineLog`
/// is the epoch log of an engine run over the same input (it supplies
/// the epochs at which re-placement fired). Checkpoints, when the
/// workload takes them, are written under `checkpointDir`.
[[nodiscard]] ReplayOutcome replayLayers(
    const hbn::net::RootedTree& rooted, const WorkloadSpec& spec,
    std::span<const hbn::workload::RequestEvent> input,
    const std::vector<hbn::serve::EpochRecord>& engineLog,
    const std::string& checkpointDir, Tracer& tracer, int parent);

}  // namespace perfbench
