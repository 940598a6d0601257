#include "hbn/serve/epoch_server.h"

#include <algorithm>
#include <span>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "hbn/core/lower_bound.h"
#include "hbn/core/parallel.h"
#include "hbn/dynamic/harness.h"
#include "hbn/serve/epoch_body.h"
#include "hbn/serve/error.h"
#include "hbn/util/timer.h"
#include "hbn/workload/serialize.h"

namespace hbn::serve {
namespace {

double elapsedMs(EpochBatch::Clock::time_point from,
                 EpochBatch::Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

}  // namespace

EpochServer::EpochServer(const net::RootedTree& rooted, int numObjects,
                         const ServeOptions& options)
    : rooted_(&rooted),
      numObjects_(numObjects),
      options_(options),
      policy_(dynamic::OnlinePolicyRegistry::global()
                  .create(options.policy)
                  ->build(rooted, numObjects,
                          rooted.tree().processors().front())),
      aggregated_(numObjects, rooted.tree().nodeCount()),
      lowerBound_(rooted),
      loads_(rooted.tree().edgeCount()),
      serveLoads_(rooted.tree().edgeCount()),
      appliedVersion_(static_cast<std::size_t>(numObjects), 0),
      latency_(options.latencySample) {
  drift_.replaceDrift = options.replaceDrift;
  if (options.epochSize < 1) {
    throw std::invalid_argument("EpochServer: epochSize >= 1");
  }
  if (!options.checkpointDir.empty() && options.checkpointEvery < 1) {
    throw std::invalid_argument("EpochServer: checkpointEvery >= 1");
  }
  if (options.handoffRetries < 0) {
    throw std::invalid_argument("EpochServer: handoffRetries >= 0");
  }
}

ServeReport EpochServer::serve(RequestStream& stream) {
  const net::Tree& tree = rooted_->tree();
  const int edgeCount = tree.edgeCount();
  const int workers = core::resolveWorkerCount(options_.threads, numObjects_);

  // Stage 1: the (possibly threaded) ingest keeps the next epoch
  // validated and bucketed while this thread serves the current one.
  // Both modes run the same fill loop, so epoch boundaries are
  // identical and pipeline on/off runs are comparable request for
  // request.
  EpochIngest ingest(stream, tree, numObjects_, options_.epochSize,
                     options_.pipeline, options_.faults.get(),
                     logBase_ + log_.size());
  util::FaultInjector* const faults = options_.faults.get();

  // Per-worker loads, counters, scratch and lower-bound deltas for the
  // object-parallel serve step (see hbn/serve/epoch_body.h); each
  // worker's difference-counting accumulator batches its objects' path
  // charges over the shared flat view.
  std::vector<EpochWorker> slots =
      makeEpochWorkers(*policy_, edgeCount, workers);

  ServeReport report;
  report.policy = options_.policy;
  report.pipeline = options_.pipeline;
  // Track the analytic lower bound incrementally: per epoch only the
  // touched objects' contributions are refreshed. Seeded with one full
  // pass so repeated serve() calls keep accumulating correctly.
  lowerBound_.rebuild(aggregated_);
  util::Accumulator epochMs;
  std::vector<double> epochLatency;
  util::Timer total;

  for (;;) {
    // The watchdogged acquire: past stallTimeoutMs the serve thread
    // assembles the epoch inline itself (degraded = true) instead of
    // hanging on a stalled ingest thread.
    const AcquireResult acquired = ingest.acquireFor(options_.stallTimeoutMs);
    EpochBatch* const batch = acquired.batch;
    if (batch == nullptr) break;
    util::Timer epochTimer;
    const std::size_t n = batch->n;
    const std::uint64_t epochIndex = logBase_ + log_.size();
    if (acquired.degraded) ++degradedEpochs_;

    // Stage 2: the epoch's touched objects, split into request-weighted
    // chunks over the worker pool. Per object, a worker first applies
    // any handoff passes the object has not migrated through yet (stage
    // 3's lazy application; exclusive by the split), serves it against
    // the up-to-date copy configuration, then folds its requests into
    // aggregated_ and its lower-bound term into the worker's delta — so
    // per-object state trajectories match barrier mode exactly.
    // Untouched objects keep their stale copy sets: they receive no
    // traffic, and deferring them is exactly what keeps the handoff lump
    // out of the epochs (they migrate on a later touch or in the
    // end-of-stream drain).
    for (EpochWorker& slot : slots) slot.clear();
    forEachTouchedChunk(
        batch->touched, batch->offsets, workers,
        [&](std::span<const ObjectId> chunk, int worker) {
          // Injected worker failure, once per (epoch, worker) — empty
          // chunks included, so every worker stays addressable — thrown
          // as a structured Serve error, propagated deterministically by
          // the pool (lowest worker wins) and through serve(): the kill
          // the checkpoint recovery tests restart from.
          if (faults != nullptr &&
              faults->fire(util::FaultKind::ShardThrow, epochIndex, worker)) {
            throw Error(Stage::Serve, epochIndex,
                        "injected shard failure (worker " +
                            std::to_string(worker) + ")");
          }
          EpochWorker& slot = slots[static_cast<std::size_t>(worker)];
          for (const ObjectId x : chunk) {
            const auto row = static_cast<std::size_t>(x);
            if (appliedVersion_[row] < passesBegun_) {
              applyPendingMigrations(x, worker, slot.migration, slot.acc);
            }
            const std::size_t begin = batch->offsets[row];
            const std::size_t end = batch->offsets[row + 1];
            serveAndAggregate(
                *policy_, x,
                std::span<const RequestEvent>(batch->bucketed.data() + begin,
                                              end - begin),
                aggregated_, lowerBound_, slot);
          }
        });

    // Deterministic merge: integer edge loads, counters and lower-bound
    // deltas sum the same for any worker count. Serve traffic feeds both
    // the total and the serve-only map (the drift trigger's input);
    // migration traffic feeds the total only. The lower bound after
    // epoch k sees the traffic of epochs <= k, as in the barrier engine.
    for (const EpochWorker& slot : slots) {
      addLoads(loads_, slot.serveLoads);
      addLoads(serveLoads_, slot.serveLoads);
      addLoads(loads_, slot.migration);
      lowerBound_.merge(slot.lowerBound);
      replications_ += slot.stats.replications;
      invalidations_ += slot.stats.invalidations;
    }

    servedTotal_ += n;
    retireAppliedPasses();

    // Epoch bookkeeping and the adaptive re-placement trigger.
    EpochRecord record;
    record.index = epochIndex;
    record.requests = n;
    record.degraded = acquired.degraded;
    record.lowerBound = lowerBound_.congestion();
    record.congestion = loads_.congestion(tree);
    // Drift is measured since the last re-placement (see
    // hbn/serve/drift.h for the shared trigger arithmetic). Migration
    // traffic is excluded from the trigger so that lazy (pipelined) and
    // immediate (barrier) migration timing cannot skew when the next
    // pass fires.
    const double serveCongestion = serveLoads_.congestion(tree);
    const bool driftFired = drift_.fired(serveCongestion, record.lowerBound);
    // A pass also begins when the policy itself asks for one
    // (wantsHandoff — e.g. adaptive committing per-object routing
    // switches), independent of the drift knob.
    if (policy_->migratable() && (driftFired || policy_->wantsHandoff())) {
      beginPass(workers, epochIndex);
      ++replacements_;
      record.replaced = true;
      if (!options_.pipeline) {
        // Barrier mode: stop the world and migrate every object inside
        // the drift epoch, like the pre-pipeline engine.
        drainAllPasses(slots);
        retireAppliedPasses();
        record.congestion = loads_.congestion(tree);  // migration included
      }
      drift_.reset(serveCongestion, record.lowerBound);
    }
    // Epoch-boundary checkpoint. Draining the pending passes first
    // keeps the snapshot quiescent (no pass state to serialize) and is
    // bit-neutral: a pass applies early here exactly what lazy
    // application would have charged on each object's next touch (the
    // row-stability contract), and serveLoads_ — the drift trigger's
    // input — never carries migration traffic, so the trigger schedule
    // is unchanged too.
    if (!options_.checkpointDir.empty() &&
        (epochIndex + 1) % options_.checkpointEvery == 0) {
      drainAllPasses(slots);
      retireAppliedPasses();
      record.congestion = loads_.congestion(tree);  // migration included
      try {
        writeCheckpointFile(snapshotStateAt(epochIndex + 1),
                            options_.checkpointDir);
      } catch (const Error&) {
        throw;
      } catch (const std::exception& e) {
        throw Error(Stage::Checkpoint, epochIndex, e.what());
      }
      ++checkpointsWritten_;
      record.checkpointed = true;
    }
    record.ratio =
        dynamic::competitiveRatio(record.congestion, record.lowerBound);
    record.wallMs = epochTimer.millis();

    // Stage-3 product metric: request latency = epoch completion minus
    // chunk arrival, sampled per fill chunk and fed to the run-level
    // reservoir. Wall-clock only — excluded from determinism digests.
    if (options_.latencySample > 0 && !batch->arrivals.empty()) {
      const auto done = EpochBatch::Clock::now();
      epochLatency.clear();
      for (const auto& [stamp, count] : batch->arrivals) {
        epochLatency.push_back(elapsedMs(stamp, done));
        (void)count;
      }
      std::sort(epochLatency.begin(), epochLatency.end());
      record.latencyMsP50 = util::percentileSorted(epochLatency, 50.0);
      record.latencyMsP99 = util::percentileSorted(epochLatency, 99.0);
      record.latencyMsP999 = util::percentileSorted(epochLatency, 99.9);
      for (const double sample : epochLatency) latency_.add(sample);
    }

    epochMs.add(record.wallMs);
    log_.push_back(record);
    ++report.epochs;
    report.totalRequests += n;
    ingest.release(batch);
  }

  // End-of-stream drain: apply every still-pending pass so copy sets,
  // loads and counters observed after serve() match barrier mode. The
  // drain is outside any epoch, so it never shows up in epoch or
  // latency percentiles — in a live system it is exactly the work that
  // keeps happening in the background after the last request.
  drainAllPasses(slots);
  retireAppliedPasses();

  // Final checkpoint: a restart resumes from exactly end-of-run state
  // even when the last epoch missed the cadence (skipped when the last
  // epoch already checkpointed this boundary).
  if (!options_.checkpointDir.empty() &&
      (log_.empty() || !log_.back().checkpointed)) {
    const std::uint64_t epochs = logBase_ + log_.size();
    try {
      writeCheckpointFile(snapshotStateAt(epochs), options_.checkpointDir);
    } catch (const Error&) {
      throw;
    } catch (const std::exception& e) {
      throw Error(Stage::Checkpoint, epochs == 0 ? 0 : epochs - 1, e.what());
    }
    ++checkpointsWritten_;
    if (!log_.empty()) log_.back().checkpointed = true;
  }

  // Read at the end: the buffers grow with the traffic.
  report.epochBufferBytes = ingest.bufferBytes();
  report.wallMs = total.millis();
  report.requestsPerSec =
      report.wallMs > 0.0
          ? static_cast<double>(report.totalRequests) / report.wallMs * 1e3
          : 0.0;
  report.epochMsP50 = epochMs.empty() ? 0.0 : epochMs.percentile(50.0);
  report.epochMsP99 = epochMs.empty() ? 0.0 : epochMs.percentile(99.0);
  report.epochMsP999 = epochMs.empty() ? 0.0 : epochMs.percentile(99.9);
  report.latencyMsP50 = latency_.empty() ? 0.0 : latency_.percentile(50.0);
  report.latencyMsP99 = latency_.empty() ? 0.0 : latency_.percentile(99.0);
  report.latencyMsP999 = latency_.empty() ? 0.0 : latency_.percentile(99.9);
  report.latencySamples = latency_.seen();
  report.congestion = loads_.congestion(tree);
  report.lowerBound = lowerBound_.congestion();
  report.ratio =
      dynamic::competitiveRatio(report.congestion, report.lowerBound);
  report.replacements = replacements_;
  report.replications = replications_;
  report.invalidations = invalidations_;
  report.degradedEpochs = degradedEpochs_;
  report.handoffRetries = handoffRetriesUsed_;
  report.checkpoints = checkpointsWritten_;
  report.policyMetrics = policy_->metrics();
  return report;
}

void EpochServer::beginPass(int workers, std::uint64_t epoch) {
  // Hand the policy the live aggregated matrix without copying it: a
  // lazy target for object x is only ever queried on x's first touch
  // after this trigger, and because a worker migrates x before it
  // serves and aggregates x, x's row is still bit-equal to its
  // trigger-time value at that moment. Row-local passes (nibble)
  // therefore need no snapshot at all; a policy whose pass reads other
  // rows at target() time must copy inside beginHandoff (see the
  // HandoffPass contract) — other workers are writing those rows.
  const std::shared_ptr<const workload::Workload> snapshot(
      std::shared_ptr<const workload::Workload>(), &aggregated_);
  std::unique_ptr<dynamic::HandoffPass> pass;
  // Bounded retry with escalating backoff. The injected fault fires
  // BEFORE beginHandoff, so a retried attempt re-runs the publication
  // from a policy that never saw the failed one — retries are
  // side-effect-clean by construction.
  util::FaultInjector* const faults = options_.faults.get();
  for (int attempt = 0;; ++attempt) {
    try {
      if (faults != nullptr &&
          faults->fire(util::FaultKind::HandoffFail, epoch, -1)) {
        throw std::runtime_error("injected handoff publication failure");
      }
      pass = policy_->beginHandoff(snapshot, workers);
      break;
    } catch (const std::exception& e) {
      if (attempt >= options_.handoffRetries) {
        throw Error(Stage::Handoff, epoch, e.what());
      }
      ++handoffRetriesUsed_;
      if (options_.handoffBackoffMs > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            options_.handoffBackoffMs * (attempt + 1)));
      }
    }
  }
  ++passesBegun_;
  pendingPasses_.emplace_back().pass = std::move(pass);
}

void EpochServer::applyPendingMigrations(ObjectId x, int worker,
                                         core::LoadMap& migration,
                                         core::FlatLoadAccumulator& acc) {
  // §4 handoff, one object at a time: chain through every pass this
  // object has not migrated through yet, in creation order — charging
  // Steiner(current ∪ target) and resetting the copy set per pass, the
  // exact per-object work barrier mode performs inside drift epochs.
  // The queue is stable for the whole pool call (see epoch_server.h).
  const std::uint64_t retired =
      passesBegun_ - static_cast<std::uint64_t>(pendingPasses_.size());
  std::uint64_t& applied = appliedVersion_[static_cast<std::size_t>(x)];
  while (applied < passesBegun_) {
    PassState& pass =
        pendingPasses_[static_cast<std::size_t>(applied - retired)];
    const std::vector<net::NodeId> target = pass.pass->target(x, worker);
    // The shared per-object migration step (compare / charge Steiner /
    // resetCopySet) — also what the shard worker's barrier application
    // runs, so single-process and sharded serving charge bit-identical
    // migration traffic.
    dynamic::applyHandoffTarget(*policy_, x, target, acc, migration);
    ++applied;
    pass.applied.fetch_add(1, std::memory_order_relaxed);
  }
}

void EpochServer::drainAllPasses(std::vector<EpochWorker>& slots) {
  if (pendingPasses_.empty()) return;
  for (EpochWorker& slot : slots) slot.migration.clear();
  core::parallelForObjects(
      numObjects_, options_.threads, [&](ObjectId x, int worker) {
        if (appliedVersion_[static_cast<std::size_t>(x)] >= passesBegun_) {
          return;
        }
        EpochWorker& slot = slots[static_cast<std::size_t>(worker)];
        applyPendingMigrations(x, worker, slot.migration, slot.acc);
      });
  for (const EpochWorker& slot : slots) addLoads(loads_, slot.migration);
}

void EpochServer::retireAppliedPasses() {
  // Serve thread, between pool calls: no worker can reach a popped pass.
  while (!pendingPasses_.empty() &&
         pendingPasses_.front().applied.load(std::memory_order_relaxed) ==
             numObjects_) {
    pendingPasses_.pop_front();
  }
}

CheckpointData EpochServer::snapshotStateAt(std::uint64_t epochs) const {
  if (!pendingPasses_.empty()) {
    throw std::logic_error(
        "EpochServer: snapshot requires a quiescent server "
        "(handoff passes still pending)");
  }
  const net::Tree& tree = rooted_->tree();
  const int edgeCount = tree.edgeCount();
  CheckpointData data;
  data.policySpec = policy_->spec();
  data.numObjects = numObjects_;
  data.numNodes = tree.nodeCount();
  data.numEdges = edgeCount;
  data.servedTotal = servedTotal_;
  data.epochs = epochs;
  data.replacements = replacements_;
  data.replications = replications_;
  data.invalidations = invalidations_;
  data.passesBegun = passesBegun_;
  data.degradedEpochs = degradedEpochs_;
  data.handoffRetries = handoffRetriesUsed_;
  data.checkpointsWritten = checkpointsWritten_;
  data.serveCongestionMark = drift_.serveCongestionMark;
  data.lowerBoundMark = drift_.lowerBoundMark;
  data.loads.resize(static_cast<std::size_t>(edgeCount));
  data.serveLoads.resize(static_cast<std::size_t>(edgeCount));
  for (net::EdgeId e = 0; e < edgeCount; ++e) {
    data.loads[static_cast<std::size_t>(e)] = loads_.edgeLoad(e);
    data.serveLoads[static_cast<std::size_t>(e)] = serveLoads_.edgeLoad(e);
  }
  data.workloadText = workload::toText(aggregated_);
  std::ostringstream policyState;
  policy_->serializeState(policyState);
  data.policyState = policyState.str();
  return data;
}

CheckpointData EpochServer::snapshotState() const {
  return snapshotStateAt(logBase_ + log_.size());
}

void EpochServer::restoreFrom(const CheckpointData& data) {
  if (servedTotal_ != 0 || !log_.empty() || passesBegun_ != 0 ||
      logBase_ != 0) {
    throw std::logic_error("EpochServer: restoreFrom requires a fresh server");
  }
  const net::Tree& tree = rooted_->tree();
  if (data.policySpec != policy_->spec()) {
    throw std::invalid_argument("checkpoint: policy mismatch (snapshot '" +
                                data.policySpec + "' vs server '" +
                                policy_->spec() + "')");
  }
  if (data.numObjects != numObjects_ || data.numNodes != tree.nodeCount() ||
      data.numEdges != tree.edgeCount()) {
    throw std::invalid_argument(
        "checkpoint: topology mismatch (objects/nodes/edges differ)");
  }
  workload::Workload restored = workload::parseText(data.workloadText);
  if (restored.numObjects() != numObjects_ ||
      restored.numNodes() != tree.nodeCount()) {
    throw std::invalid_argument("checkpoint: workload dims mismatch");
  }
  // Policy state first: it is the most likely piece to fail validation,
  // and nothing else has been mutated yet when it throws.
  std::istringstream policyState(data.policyState);
  policy_->restoreState(policyState);
  aggregated_ = std::move(restored);
  for (net::EdgeId e = 0; e < tree.edgeCount(); ++e) {
    loads_.addEdgeLoad(e, data.loads[static_cast<std::size_t>(e)]);
    serveLoads_.addEdgeLoad(e, data.serveLoads[static_cast<std::size_t>(e)]);
  }
  servedTotal_ = data.servedTotal;
  logBase_ = data.epochs;
  replacements_ = data.replacements;
  replications_ = data.replications;
  invalidations_ = data.invalidations;
  passesBegun_ = data.passesBegun;
  std::fill(appliedVersion_.begin(), appliedVersion_.end(), passesBegun_);
  degradedEpochs_ = data.degradedEpochs;
  handoffRetriesUsed_ = data.handoffRetries;
  checkpointsWritten_ = data.checkpointsWritten;
  drift_.serveCongestionMark = data.serveCongestionMark;
  drift_.lowerBoundMark = data.lowerBoundMark;
}

}  // namespace hbn::serve
