// Structured failure taxonomy for the serving engine.
//
// Every stage failure inside EpochServer — an ingest pull that dies, a
// policy exception while serving an epoch, a handoff pass that cannot
// be begun, a checkpoint that cannot be written or read back — surfaces
// as one serve::Error carrying the stage, the epoch index, and the
// underlying cause. The CLI maps each stage to a distinct exit code (see
// docs/robustness.md for the table), so supervisors can tell a corrupt
// trace from a failed checkpoint without parsing stderr.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace hbn::serve {

/// Pipeline stage a failure is attributed to. The transport stages
/// (Connect/Frame/Peer) belong to the sharded multi-process engine
/// (src/shard/): workers ship failures across the wire with their stage
/// intact, so the coordinator and the single-process CLI report every
/// failure through one taxonomy and one exit-code table.
enum class Stage {
  Ingest,      ///< stream pull / validation / bucketing
  Serve,       ///< serving inside an epoch (policy serve or migration)
  Handoff,     ///< beginning a §4 re-placement pass
  Checkpoint,  ///< writing an epoch-boundary snapshot
  Restore,     ///< reading a snapshot back
  Connect,     ///< shard transport handshake / worker spawn
  Frame,       ///< malformed wire frame (bad magic, oversized length
               ///< prefix, checksum mismatch, truncated payload)
  Peer,        ///< peer death / unresponsive peer mid-run
};

[[nodiscard]] constexpr const char* stageName(Stage stage) noexcept {
  switch (stage) {
    case Stage::Ingest: return "ingest";
    case Stage::Serve: return "serve";
    case Stage::Handoff: return "handoff";
    case Stage::Checkpoint: return "checkpoint";
    case Stage::Restore: return "restore";
    case Stage::Connect: return "connect";
    case Stage::Frame: return "frame";
    case Stage::Peer: return "peer";
  }
  return "unknown";
}

/// Process exit code for a stage failure (10-17; 2 stays reserved for
/// usage/malformed-input errors, 1 for everything else).
[[nodiscard]] constexpr int stageExitCode(Stage stage) noexcept {
  switch (stage) {
    case Stage::Ingest: return 10;
    case Stage::Serve: return 11;
    case Stage::Handoff: return 12;
    case Stage::Checkpoint: return 13;
    case Stage::Restore: return 14;
    case Stage::Connect: return 15;
    case Stage::Frame: return 16;
    case Stage::Peer: return 17;
  }
  return 1;
}

/// A stage failure with full attribution. what() renders
/// "<stage> stage failed at epoch <N>: <cause>".
class Error : public std::runtime_error {
 public:
  Error(Stage stage, std::uint64_t epoch, std::string cause)
      : std::runtime_error(std::string(stageName(stage)) +
                           " stage failed at epoch " +
                           std::to_string(epoch) + ": " + cause),
        stage_(stage),
        epoch_(epoch),
        cause_(std::move(cause)) {}

  [[nodiscard]] Stage stage() const noexcept { return stage_; }
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] const std::string& cause() const noexcept { return cause_; }
  [[nodiscard]] int exitCode() const noexcept { return stageExitCode(stage_); }

 private:
  Stage stage_;
  std::uint64_t epoch_;
  std::string cause_;
};

}  // namespace hbn::serve
