// EpochServer — the streaming request-serving engine.
//
// Consumes a RequestStream in fixed-size epochs through a three-stage
// pipeline (see docs/serving.md for the full diagram):
//
//   ingest   epoch N+1 is pulled, validated and bucketed by object on a
//            dedicated thread (EpochIngest, double-buffered) while
//            epoch N is being served — bucketing cost leaves the
//            critical path.
//   serve    the epoch's touched objects are split into request-
//            weighted chunks over the process-wide worker pool: every
//            worker serves whole objects through OnlinePolicy::
//            serveShard, folds them into the aggregated matrix and
//            refreshes their lower-bound terms, with its own scratch,
//            LoadMaps and lower-bound delta (hbn/serve/epoch_body.h), so
//            the hot path performs no synchronisation and the merged
//            result — integer edge loads, replication counts, copy
//            sets, frequencies, the bound — is bit-identical for 1 vs N
//            threads.
//   re-place the paper's §4 dynamic-to-static handoff runs without
//            stopping the world: when realised serve congestion drifts
//            a configurable factor above the analytic lower bound, the
//            policy opens a HandoffPass over the trigger-time
//            aggregated frequencies (zero-copy: an object aggregates
//            only after it migrates and serves, so its row is still
//            bit-equal to its trigger-time value when its lazy target
//            is queried — see the HandoffPass contract), and the pass
//            joins the pending-pass queue. Each object migrates lazily
//            — on its next touch, or in the end-of-stream drain — with
//            its Steiner migration traffic charged exactly once, so the
//            final ServeReport counters are bit-identical to barrier
//            mode; only the *timing* of migration work moves off the
//            drift epoch, which is what flattens the p99 spike.
//
// Handoff publication needs no synchronisation of its own: the pending-
// pass queue and pass count are written only on the serve thread between
// pool calls (beginPass, retireAppliedPasses, restoreFrom) and read by
// workers only inside one. core::parallelRun returns only after every
// body finished, so the pool's join orders each write before the reads.
//
// ServeOptions.pipeline = false restores the barrier engine: ingest
// runs inline and every handoff pass is drained immediately inside the
// drift epoch. Both modes assemble identical epochs and apply identical
// per-object migrations, so counters, loads and copy sets agree bit for
// bit; wall-clock fields (epoch/latency percentiles) are where they
// differ.
//
// The drift trigger measures *serve-only* congestion (migration traffic
// excluded) against the lower bound in both modes, so the trigger
// schedule is mode-independent even though migration lands at different
// times. The policy itself is pluggable: ServeOptions.policy is an
// OnlinePolicyRegistry spec, so every registered policy (tree-counters,
// static:placement=..., full-replication, owner-only, ...) serves
// through the same engine. Policies with a fixed configuration opt out
// via OnlinePolicy::migratable() and the drift pass never runs.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hbn/core/load.h"
#include "hbn/core/lower_bound.h"
#include "hbn/dynamic/online_policy.h"
#include "hbn/net/rooted.h"
#include "hbn/serve/checkpoint.h"
#include "hbn/serve/drift.h"
#include "hbn/serve/epoch_body.h"
#include "hbn/serve/pipeline.h"
#include "hbn/serve/request_stream.h"
#include "hbn/util/stats.h"
#include "hbn/workload/workload.h"

namespace hbn::serve {

using workload::ObjectId;

/// Serving knobs.
struct ServeOptions {
  /// Requests per epoch (the only per-request buffering the server does).
  std::size_t epochSize = 1 << 16;
  /// Worker threads for the per-epoch object sharding; 0 = all cores.
  int threads = 1;
  /// Online policy spec (OnlinePolicyRegistry grammar,
  /// `name[:key=value,...]` — e.g. "tree-counters:threshold=4" or
  /// "static:placement=extended-nibble"). Parsed at construction;
  /// unknown names or options throw std::invalid_argument there.
  std::string policy = "tree-counters";
  /// Re-placement triggers when, since the last re-placement (or the
  /// start), realised serve congestion grew more than `replaceDrift` ×
  /// the growth of the analytic lower bound — i.e. the current copy
  /// configuration is paying a factor above what the aggregated
  /// frequencies say is unavoidable. <= 0 disables the pass. The
  /// default is a safety valve: the replicate/invalidate strategy's
  /// intrinsic churn sits near growth factor ~2.5 on skewed streams, so
  /// 3.0 fires only when the copy configuration is genuinely stale
  /// (e.g. slow adaptation under a high replication threshold).
  double replaceDrift = 3.0;
  /// Pipelined serving (default): threaded double-buffered ingest plus
  /// lazy per-object handoff application. false = barrier mode
  /// (inline ingest, stop-the-world handoffs) — same results, spikier
  /// tails.
  bool pipeline = true;
  /// Reservoir capacity for run-level request-latency sampling;
  /// 0 disables latency percentiles.
  std::size_t latencySample = 4096;
  /// Directory for epoch-boundary checkpoints (hbn-checkpoint v1, see
  /// hbn/serve/checkpoint.h); empty disables checkpointing. A
  /// checkpoint drains every pending handoff pass first, so restoring
  /// it plus re-serving the rest of the stream is bit-identical to an
  /// uninterrupted run.
  std::string checkpointDir;
  /// Epochs between checkpoints (>= 1); only read when checkpointDir is
  /// set.
  std::uint64_t checkpointEvery = 1;
};

/// One epoch's record in the serve log.
struct EpochRecord {
  std::uint64_t index = 0;
  std::uint64_t requests = 0;
  double wallMs = 0.0;
  /// Cumulative realised congestion after this epoch (serve + update +
  /// migration traffic charged so far — in pipelined mode migrations
  /// land when objects are touched, so the per-epoch trajectory differs
  /// from barrier mode even though the end-of-run total is identical).
  double congestion = 0.0;
  /// Analytic lower bound of the cumulative frequencies — on static
  /// placements only, so a migrating policy can serve below it.
  double lowerBound = 0.0;
  /// congestion / lowerBound (1 when both zero, +inf when only LB is 0).
  /// Consumers serialising epoch records should expect the +inf case:
  /// util::JsonRecords emits non-finite doubles as null and parses null
  /// back as NaN, so emit→parse→emit is a fixed point at the text level
  /// (tests/serve_test.cpp pins this down).
  double ratio = 0.0;
  /// Request-latency percentiles of this epoch's arrival-stamp samples
  /// (epoch completion − arrival), milliseconds; 0 with sampling off.
  double latencyMsP50 = 0.0;
  double latencyMsP99 = 0.0;
  double latencyMsP999 = 0.0;
  bool replaced = false;
  /// A checkpoint was written at this epoch's boundary (after draining
  /// pending passes — congestion above therefore includes migration).
  bool checkpointed = false;
};

/// Aggregate outcome of one serve() run.
struct ServeReport {
  /// The policy spec that produced this report, plus the policy's own
  /// diagnostics (OnlinePolicy::metrics()) at the end of the run — so
  /// an emitted report can say what produced it.
  std::string policy;
  std::map<std::string, double> policyMetrics;
  /// Whether the pipelined engine produced this report.
  bool pipeline = true;
  std::uint64_t totalRequests = 0;
  std::uint64_t epochs = 0;
  double wallMs = 0.0;
  double requestsPerSec = 0.0;
  /// Epoch wall-clock latency percentiles.
  double epochMsP50 = 0.0;
  double epochMsP99 = 0.0;
  double epochMsP999 = 0.0;
  /// Request-latency percentiles over the run's reservoir sample
  /// (milliseconds; 0 when latencySamples == 0).
  double latencyMsP50 = 0.0;
  double latencyMsP99 = 0.0;
  double latencyMsP999 = 0.0;
  /// Request latencies offered to the reservoir over the server's
  /// lifetime (the sample the percentiles estimate from is capped at
  /// ServeOptions.latencySample).
  std::uint64_t latencySamples = 0;
  /// Final cumulative congestion / analytic static-placement lower
  /// bound (see EpochRecord::lowerBound) / their ratio.
  double congestion = 0.0;
  double lowerBound = 0.0;
  double ratio = 0.0;
  std::uint64_t replacements = 0;
  core::Count replications = 0;
  core::Count invalidations = 0;
  /// Bytes of per-request buffering the server holds at the end of the
  /// run (see EpochIngest::bufferBytes) — never proportional to the
  /// stream.
  std::uint64_t epochBufferBytes = 0;
  /// Always 0: the engine has no degraded mode. Kept only because the
  /// engine benchmark still reads it.
  std::uint64_t degradedEpochs = 0;
  /// Checkpoints written over the server's lifetime (survives a
  /// restore).
  std::uint64_t checkpoints = 0;
};

/// The run-level summary both engines (EpochServer and
/// shard::ShardCoordinator) cut the same way at the end of a run:
/// wallMs and throughput over report.totalRequests, the percentiles of
/// `epochMs`, and the final congestion, lower bound and their ratio.
void finishReport(ServeReport& report, double wallMs,
                  const util::Accumulator& epochMs, double congestion,
                  double lowerBound);

class EpochServer {
 public:
  /// `rooted` must outlive the server. Objects start with one copy on
  /// the first processor, as in the competitive harness.
  EpochServer(const net::RootedTree& rooted, int numObjects,
              const ServeOptions& options = {});

  /// Drains `stream` epoch by epoch; returns the aggregate report.
  /// Callable repeatedly — state (copy sets, loads, aggregated
  /// frequencies) persists, so a second call continues serving. Every
  /// pending handoff pass is fully drained before returning, so copy
  /// sets and loads observed between calls match barrier mode.
  ServeReport serve(RequestStream& stream);

  /// Per-epoch records of all serve() calls so far.
  [[nodiscard]] const std::vector<EpochRecord>& epochLog() const noexcept {
    return log_;
  }
  /// Cumulative realised loads (service + update + migration traffic).
  [[nodiscard]] const core::LoadMap& loads() const noexcept { return loads_; }
  /// Cumulative aggregated request frequencies.
  [[nodiscard]] const workload::Workload& aggregated() const noexcept {
    return aggregated_;
  }
  /// Current copy locations of `x`, ascending.
  [[nodiscard]] std::vector<net::NodeId> copySet(ObjectId x) const {
    return policy_->copySet(x);
  }
  /// The serving policy instance (for diagnostics/introspection).
  [[nodiscard]] const dynamic::OnlinePolicy& policy() const noexcept {
    return *policy_;
  }
  [[nodiscard]] int numObjects() const noexcept { return numObjects_; }

  /// Captures the server's full resumable state as a checkpoint. The
  /// server must be quiescent (no pending handoff passes — true between
  /// serve() calls and at checkpoint boundaries inside one); throws
  /// std::logic_error otherwise.
  [[nodiscard]] CheckpointData snapshotState() const;

  /// Rebuilds the server from a checkpoint taken by an identically
  /// configured server (same topology, objects, canonical policy spec).
  /// Only valid on a fresh server that has not served anything; throws
  /// std::logic_error when it has, std::invalid_argument when the
  /// checkpoint does not match this server. The request stream is NOT
  /// part of the snapshot — resume a deterministic stream by rebuilding
  /// it and discarding CheckpointData::servedTotal events
  /// (serve::skipRequests) before the next serve() call.
  void restoreFrom(const CheckpointData& data);

  /// Requests consumed over the server's lifetime (including the
  /// restored prefix) — what a resumed stream must skip.
  [[nodiscard]] std::uint64_t servedTotal() const noexcept {
    return servedTotal_;
  }

 private:
  /// One pending §4 handoff and the number of objects migrated through
  /// it; it retires once every object has applied it.
  struct PassState {
    std::unique_ptr<dynamic::HandoffPass> pass;
    std::atomic<std::int64_t> applied{0};
  };

  /// Opens a HandoffPass over aggregated_ (zero-copy; see the
  /// HandoffPass row-stability contract) and queues it. A failure
  /// throws serve::Error{Handoff, epoch}.
  void beginPass(int workers, std::uint64_t epoch);
  /// Applies every pass still pending for `x`, charging migration
  /// traffic into `migration` via `acc`. Called from workers (the
  /// object split makes x exclusive).
  void applyPendingMigrations(ObjectId x, int worker,
                              core::LoadMap& migration,
                              core::FlatLoadAccumulator& acc);
  /// Applies all pending passes to every object now (the barrier drain
  /// and the end-of-stream drain) on the per-worker slots, merging
  /// migration traffic into loads_. A policy failure throws
  /// serve::Error{Serve, epoch}.
  void drainAllPasses(std::vector<EpochWorker>& slots, std::uint64_t epoch);
  /// Pops fully applied passes off the front of the pending queue.
  void retireAppliedPasses();
  /// snapshotState with an explicit completed-epoch count (the serve
  /// loop checkpoints before pushing the epoch's record).
  [[nodiscard]] CheckpointData snapshotStateAt(std::uint64_t epochs) const;

  const net::RootedTree* rooted_;
  int numObjects_;
  ServeOptions options_;
  std::unique_ptr<dynamic::OnlinePolicy> policy_;
  workload::Workload aggregated_;
  /// Running analytic lower bound of aggregated_, refreshed per epoch
  /// for the touched objects only — O(touched · |V|) instead of a full
  /// O(|X| · |V|) recomputation, which dominated per-epoch cost (and
  /// with it the pipelined queueing latency) at large object counts.
  core::IncrementalLowerBound lowerBound_;
  core::LoadMap loads_;
  /// Serve + update traffic only (no migration): the drift trigger's
  /// input, so the trigger schedule is identical in pipelined and
  /// barrier mode.
  core::LoadMap serveLoads_;
  std::vector<EpochRecord> log_;
  /// Epochs completed before log_ began (nonzero after restoreFrom):
  /// the absolute index of epoch record i is logBase_ + i, and
  /// serve::Error names epochs in absolute terms.
  std::uint64_t logBase_ = 0;
  std::uint64_t servedTotal_ = 0;
  core::Count replications_ = 0;
  core::Count invalidations_ = 0;
  std::uint64_t replacements_ = 0;
  /// The §4 drift trigger (marks at the last re-placement plus the
  /// shared comparison — see hbn/serve/drift.h; the shard coordinator
  /// drives the identical struct).
  DriftTrigger drift_;
  /// Lazy handoff machinery: pending passes in creation order and
  /// per-object applied-pass counts (x has passes pending iff
  /// appliedVersion_[x] < passesBegun_).
  std::deque<PassState> pendingPasses_;
  std::vector<std::uint64_t> appliedVersion_;
  std::uint64_t passesBegun_ = 0;
  std::uint64_t checkpointsWritten_ = 0;
  /// Run-level request-latency reservoir (persists across serve calls).
  util::ReservoirSampler latency_;
};

}  // namespace hbn::serve
