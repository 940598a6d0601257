// Epoch-boundary checkpoint/restore for the serving engine.
//
// A checkpoint is a versioned text snapshot of everything EpochServer
// needs to resume serving bit-identically: the aggregated frequency
// matrix, cumulative edge loads (total and serve-only), the drift-
// trigger marks, progress counters, and the policy's own serialized
// state (OnlinePolicy::serializeState — copy sets, read counters,
// adaptive shadow scores). Checkpoints are only taken at epoch
// boundaries after every pending §4 handoff pass has been drained, so
// the snapshot is quiescent and restoring it plus re-serving the
// remaining stream yields a final load digest bit-identical to an
// uninterrupted run (the kill-and-restore property tests/checkpoint_
// test.cpp and experiment e15 enforce).
//
// What is deliberately NOT captured: wall-clock observables (latency
// reservoirs, epoch timings — they restart empty) and the stream
// cursor's RNG internals. The snapshot records how many requests were
// consumed (servedTotal); a deterministic stream is resumed by
// rebuilding it from its seed (or reopening the trace) and discarding
// that many events (serve::skipRequests), which reconstructs the
// generator state exactly without serializing engine internals.
//
// File format (hbn-checkpoint v1, docs/robustness.md):
//
//   hbn-checkpoint v1
//   policy <canonical spec>
//   dims <numObjects> <numNodes> <numEdges>
//   progress <servedTotal> <epochs> <replacements> <replications>
//            <invalidations> <passesBegun>
//   stats 0 0 <checkpointsWritten>                   (two retired
//                                                     slots, read and
//                                                     discarded)
//   marks <serveCongestionMark> <lowerBoundMark>     (raw 64-bit patterns
//                                                     in hex: doubles
//                                                     round-trip exactly)
//   loads <numEdges> <v...>
//   serve-loads <numEdges> <v...>
//   workload <bytes>
//   <hbn-workload v1 text, exactly <bytes> bytes>
//   policy-state <bytes>
//   <policy block, exactly <bytes> bytes>
//   checksum <fnv1a64-hex of everything above>
//
// A directory of checkpoints holds checkpoint-<epochs>.hbn files plus a
// LATEST file naming the newest one; writes go through a temporary file
// and rename, so a crash mid-write never corrupts LATEST's target.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "hbn/core/load.h"

namespace hbn::serve {

/// One parsed (or to-be-written) checkpoint.
struct CheckpointData {
  std::string policySpec;  ///< canonical OnlinePolicy::spec()
  int numObjects = 0;
  int numNodes = 0;
  int numEdges = 0;
  std::uint64_t servedTotal = 0;  ///< requests consumed from the stream
  std::uint64_t epochs = 0;       ///< epochs completed (log length)
  std::uint64_t replacements = 0;
  core::Count replications = 0;
  core::Count invalidations = 0;
  std::uint64_t passesBegun = 0;
  std::uint64_t checkpointsWritten = 0;
  double serveCongestionMark = 0.0;
  double lowerBoundMark = 0.0;
  std::vector<core::Count> loads;       ///< per-edge cumulative loads
  std::vector<core::Count> serveLoads;  ///< serve-only (drift input)
  std::string workloadText;             ///< hbn-workload v1 text
  std::string policyState;              ///< OnlinePolicy::serializeState
};

/// Serializes `data` (including the trailing checksum line).
void writeCheckpoint(const CheckpointData& data, std::ostream& os);

/// Parses and checksum-verifies a checkpoint; throws
/// std::invalid_argument naming the defect on any corruption,
/// truncation, or version mismatch.
[[nodiscard]] CheckpointData readCheckpoint(std::istream& in);

/// Writes `data` into `dir` (created if missing) as
/// checkpoint-<epochs>.hbn via a temp-file rename, then points LATEST
/// at it. Returns the final file path; throws std::runtime_error on
/// I/O failure.
std::string writeCheckpointFile(const CheckpointData& data,
                                const std::string& dir);

/// Reads one checkpoint file. Throws std::runtime_error when the file
/// cannot be opened, std::invalid_argument when it fails validation.
[[nodiscard]] CheckpointData readCheckpointFile(const std::string& path);

/// Resolves `dir`'s LATEST pointer to a checkpoint path; throws
/// std::runtime_error when the directory holds no checkpoint.
[[nodiscard]] std::string latestCheckpointPath(const std::string& dir);

}  // namespace hbn::serve
