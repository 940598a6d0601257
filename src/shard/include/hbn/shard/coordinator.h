// ShardCoordinator — the fan-out/fan-in side of sharded serving.
//
// The coordinator owns the request stream and the global serving
// state; workers own the per-object serving work. One epoch runs as a
// wave that mirrors the single-process engine's barrier loop (and the
// convergecast/broadcast shape of dist::SyncEngine):
//
//   scatter       the ingest thread has already bucketed the epoch by
//                 object; the coordinator splits the touched objects by
//                 Partition::ownerOf and sends each worker one Epoch
//                 frame holding only its owned objects' runs. Ingest of
//                 epoch N+1 overlaps the workers serving epoch N.
//   convergecast  per-shard Stats flow up: each shard's request count
//                 must equal the events it was sent (checked every
//                 epoch), and its integer serve-load and lower-bound
//                 deltas, sums over disjoint objects, add into the
//                 global LoadMaps. The global lower bound is the
//                 congestion of the summed per-edge minima
//                 (Theorem 3.1's bound is a per-object sum), so it is
//                 bit-identical for any shard count.
//   decide        the coordinator runs the SAME DriftTrigger
//                 arithmetic as EpochServer over merged serve
//                 congestion and the summed lower bound, ORs in the
//                 policies' own handoff requests, and broadcasts the
//                 decision.
//   rows          on replace only: each worker sends the rows of its
//                 owned objects touched since the last gather, and the
//                 coordinator sends all of them to every worker, so
//                 every handoff starts from the full matrix.
//   migrate       on replace, workers hand back their migration-load
//                 deltas, which merge into the global map before the
//                 epoch record is cut.
//
// The final loads, counters, lower bound and congestion are therefore
// bit-identical to the single-process EpochServer on the same stream
// for every registered policy — the identity the e16 experiment and
// tests/shard_serving_test.cpp pin down.
//
// Failure handling: an Error frame from any worker, a malformed frame,
// or a peer death/timeout surfaces as serve::Error with its original
// stage (exit codes 10-17 survive the wire). The coordinator closes
// every link before rethrowing, so remaining workers see end-of-stream
// and exit; process clusters then reap the children
// (hbn/shard/process.h).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hbn/core/load.h"
#include "hbn/net/rooted.h"
#include "hbn/serve/drift.h"
#include "hbn/serve/epoch_server.h"
#include "hbn/serve/request_stream.h"
#include "hbn/shard/partition.h"
#include "hbn/shard/transport.h"

namespace hbn::serve {
struct EpochBatch;
}  // namespace hbn::serve

namespace hbn::shard {

/// Sharded-serving knobs. `serve` carries the engine configuration
/// (epochSize, policy, replaceDrift, pipeline); each worker serves on
/// one thread, so serve.threads must be 1, and checkpointing/restore
/// is a single-process feature and must be off.
struct ShardOptions {
  serve::ServeOptions serve;
  Partition::Kind partition = Partition::Kind::Hash;
  std::uint64_t partitionSeed = 0;
  /// Peer watchdog: a worker silent for this many milliseconds fails
  /// the run with Stage::Peer instead of hanging it. <= 0 waits
  /// forever.
  double peerTimeoutMs = 0.0;
};

/// Per-shard slice of the aggregate report.
struct ShardBreakdown {
  int shard = 0;
  std::uint64_t requests = 0;  ///< events served (owned objects)
  double busyMs = 0.0;         ///< per-epoch busy time, summed
  core::Count replications = 0;
  core::Count invalidations = 0;
  std::uint64_t bytesToWorker = 0;
  std::uint64_t bytesFromWorker = 0;
  std::map<std::string, double> policyMetrics;
};

/// Aggregate outcome of one sharded serve run: the single-process
/// report's fields (the coordinator samples no request latencies and
/// writes no checkpoints; policy metrics are per shard) plus the shard
/// layer's own.
struct ShardedReport : serve::ServeReport {
  std::string transport;   ///< "loopback" | "socket"
  std::string partition;   ///< "hash" | "range"
  int workers = 1;
  /// Σ over epochs of the slowest shard's busy CPU time (decode +
  /// serve + aggregate + lower bound [+ row gather + migration]). A
  /// reported diagnostic, not a throughput: coordination, ingest and
  /// the wire are outside it.
  double criticalPathMs = 0.0;
  /// Coordinator<->worker traffic: every frame byte in both
  /// directions, summed over links.
  std::uint64_t crossShardBytes = 0;
  double bytesPerRequest = 0.0;
  std::vector<ShardBreakdown> shards;
};

class ShardCoordinator {
 public:
  /// `tree` must outlive the coordinator. `links` are connected
  /// transports, one per worker, whose peer ends run
  /// shard::runWorker; the coordinator borrows them (clusters own
  /// them — see hbn/shard/process.h). Throws std::invalid_argument on
  /// unsupported options (threads != 1, checkpointing, no links).
  ShardCoordinator(const net::Tree& tree, int numObjects,
                   ShardOptions options,
                   std::vector<FramedTransport*> links,
                   std::string transportName);

  /// Runs the handshake and drains `stream` epoch by epoch through the
  /// worker wave; returns the merged report. On failure every link is
  /// closed before the serve::Error propagates. One-shot: a second
  /// call throws std::logic_error (workers have exited).
  [[nodiscard]] ShardedReport serve(serve::RequestStream& stream);

  /// Merged cumulative loads (serve + update + migration) — the digest
  /// surface the identity tests compare against EpochServer::loads().
  [[nodiscard]] const core::LoadMap& loads() const noexcept {
    return loads_;
  }
  [[nodiscard]] const std::vector<serve::EpochRecord>& epochLog()
      const noexcept {
    return log_;
  }

 private:
  void handshake();
  /// Sends each worker the runs of its owned objects in `batch` and
  /// records the event counts in sent_.
  void scatter(const serve::EpochBatch& batch, std::uint64_t epoch);
  /// The row all-gather before a re-placement: collects every shard's
  /// Rows leg (each row must be owned by its sender) and sends all of
  /// them to every worker.
  void gatherRows(std::uint64_t epoch);
  /// Closes every link (workers see end-of-stream). Idempotent.
  void closeAll() noexcept;
  /// Decodes a worker frame expected to be `want`; an Error frame
  /// rethrows the shipped failure with the shard's attribution.
  [[nodiscard]] Frame expect(int shard, FrameType want,
                             std::uint64_t epoch);

  const net::Tree* tree_;
  int numObjects_;
  ShardOptions options_;
  std::vector<FramedTransport*> links_;
  std::string transportName_;
  Partition partition_;
  core::LoadMap loads_;
  core::LoadMap serveLoads_;
  /// Σ over shards of the per-edge lower-bound deltas: the analytic
  /// bound's per-edge minima over every object served so far.
  core::LoadMap lowerBoundMinima_;
  /// Events sent to each shard this epoch.
  std::vector<std::uint64_t> sent_;
  serve::DriftTrigger drift_;
  std::vector<serve::EpochRecord> log_;
  bool served_ = false;
};

}  // namespace hbn::shard
