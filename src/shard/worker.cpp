#include "hbn/shard/worker.h"

#include <ctime>

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "hbn/core/load.h"
#include "hbn/core/lower_bound.h"
#include "hbn/core/parallel.h"
#include "hbn/dynamic/harness.h"
#include "hbn/dynamic/online_policy.h"
#include "hbn/net/rooted.h"
#include "hbn/net/serialize.h"
#include "hbn/serve/epoch_body.h"
#include "hbn/serve/error.h"
#include "hbn/shard/partition.h"
#include "hbn/util/timer.h"
#include "hbn/workload/workload.h"

namespace hbn::shard {
namespace {

using workload::ObjectId;
using workload::RequestEvent;

/// CPU milliseconds burned by THIS thread so far. busyMs feeds the
/// coordinator's critical-path metric (Σ max-over-shards per epoch),
/// which models truly parallel workers; a wall clock would bill each
/// worker for its siblings' quanta whenever workers outnumber cores
/// and make the metric meaningless on small machines. The thread clock
/// counts only cycles this worker spent. Exact while the shard serves
/// on the transport thread (threads <= 1, the benchmark shape); with
/// more threads the pool's helpers bill their own clocks and busyMs
/// undercounts — the honest wall clock is reported alongside.
double threadCpuMs() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// The worker's serving stack, built once from the Hello frame.
class ShardWorker {
 public:
  ShardWorker(FramedTransport& transport, const HelloMsg& hello)
      : transport_(transport),
        tree_(net::parseText(hello.treeText)),
        rooted_(tree_, tree_.defaultRoot()),
        partition_(static_cast<Partition::Kind>(hello.partitionKind),
                   hello.shardCount, hello.partitionSeed, hello.numObjects),
        shardId_(hello.shardId),
        numObjects_(hello.numObjects),
        threads_(hello.threads),
        policy_(dynamic::OnlinePolicyRegistry::global()
                    .create(hello.policySpec)
                    ->build(rooted_, hello.numObjects,
                            tree_.processors().front())),
        aggregated_(hello.numObjects, tree_.nodeCount()),
        lowerBound_(rooted_),
        epochServeLoads_(tree_.edgeCount()),
        offsets_(static_cast<std::size_t>(hello.numObjects) + 1, 0),
        slots_(serve::makeEpochWorkers(
            *policy_, tree_.edgeCount(),
            core::resolveWorkerCount(threads_, numObjects_))) {
    for (ObjectId x = 0; x < numObjects_; ++x) {
      if (partition_.ownerOf(x) == shardId_) owned_.push_back(x);
    }
    lowerBound_.rebuild(aggregated_);
  }

  /// Serves Epoch/Decide/Fin frames until Fin; throws serve::Error on
  /// protocol violations and injected/structural failures.
  void run() {
    for (;;) {
      Frame frame = transport_.recv();
      switch (frame.type) {
        case FrameType::kEpoch:
          serveEpoch(frame.payload);
          break;
        case FrameType::kFin: {
          FinAckMsg ack;
          ack.requests = servedRequests_;
          ack.busyMs = totalBusyMs_;
          ack.replications = static_cast<std::int64_t>(replications_);
          ack.invalidations = static_cast<std::int64_t>(invalidations_);
          ack.policyMetrics = policy_->metrics();
          transport_.send(FrameType::kFinAck, ack.encode());
          return;
        }
        case FrameType::kError: {
          const ErrorMsg err = ErrorMsg::decode(frame.payload);
          throw serve::Error(static_cast<serve::Stage>(err.stage), err.epoch,
                             "coordinator: " + err.cause);
        }
        default:
          throw serve::Error(serve::Stage::Frame, epoch_,
                             std::string("unexpected ") +
                                 frameTypeName(frame.type) + " frame");
      }
    }
  }

 private:
  void serveEpoch(const std::string& payload) {
    // Busy time starts at decode: deserialisation, bucketing, serving,
    // aggregation and the lower-bound refresh are this shard's
    // critical-path work for the epoch; the blocking recv above is not.
    const double busyStart = threadCpuMs();
    const EpochMsg msg = [&] {
      try {
        return EpochMsg::decode(payload);
      } catch (const std::exception& e) {
        throw serve::Error(serve::Stage::Frame, epoch_, e.what());
      }
    }();
    epoch_ = msg.epoch;
    transport_.setEpoch(epoch_);
    const std::size_t n = msg.events.size();
    for (const RequestEvent& ev : msg.events) {
      if (ev.object < 0 || ev.object >= numObjects_) {
        throw serve::Error(serve::Stage::Ingest, epoch_,
                           "request object out of range");
      }
    }
    bucketed_.resize(n);
    dynamic::bucketRequestsByObject(msg.events, numObjects_, offsets_,
                                    bucketed_, &touched_);

    // The single-process per-object epoch body over every touched
    // object: serve owned ones only — the shard's slice of the epoch —
    // and fold ALL of them into the full frequency matrix and its
    // incremental lower bound. Identical bucketing plus per-object
    // serving means the union over shards reproduces the single-process
    // epoch exactly, and every shard holding the complete matrix keeps
    // handoff placements that read other rows shard-count independent.
    const int workers = static_cast<int>(slots_.size());
    for (serve::EpochWorker& slot : slots_) slot.clear();
    serve::forEachTouchedChunk(
        touched_, offsets_, workers,
        [&](std::span<const ObjectId> chunk, int worker) {
          serve::EpochWorker& slot = slots_[static_cast<std::size_t>(worker)];
          for (const ObjectId x : chunk) {
            const std::size_t begin = offsets_[static_cast<std::size_t>(x)];
            const std::size_t end = offsets_[static_cast<std::size_t>(x) + 1];
            serve::serveAndAggregate(
                *policy_, x,
                std::span<const RequestEvent>(bucketed_.data() + begin,
                                              end - begin),
                partition_.ownerOf(x) == shardId_, aggregated_, lowerBound_,
                slot);
          }
        });

    epochServeLoads_.clear();
    for (const serve::EpochWorker& slot : slots_) {
      serve::addLoads(epochServeLoads_, slot.serveLoads);
      lowerBound_.merge(slot.lowerBound);
      replications_ += slot.stats.replications;
      invalidations_ += slot.stats.invalidations;
      servedRequests_ += slot.served;
    }

    StatsMsg stats;
    stats.epoch = epoch_;
    stats.lowerBound = lowerBound_.congestion();
    stats.busyMs = threadCpuMs() - busyStart;
    stats.wantsHandoff =
        policy_->migratable() && policy_->wantsHandoff() ? 1 : 0;
    stats.migratable = policy_->migratable() ? 1 : 0;
    stats.replications = static_cast<std::int64_t>(replications_);
    stats.invalidations = static_cast<std::int64_t>(invalidations_);
    stats.serveLoads.resize(
        static_cast<std::size_t>(tree_.edgeCount()));
    for (net::EdgeId e = 0; e < tree_.edgeCount(); ++e) {
      stats.serveLoads[static_cast<std::size_t>(e)] =
          epochServeLoads_.edgeLoad(e);
    }
    totalBusyMs_ += stats.busyMs;
    transport_.send(FrameType::kStats, stats.encode());

    // Broadcast leg of the barrier: the coordinator's global decision.
    Frame decideFrame = transport_.recv();
    if (decideFrame.type == FrameType::kError) {
      const ErrorMsg err = ErrorMsg::decode(decideFrame.payload);
      throw serve::Error(static_cast<serve::Stage>(err.stage), err.epoch,
                         "coordinator: " + err.cause);
    }
    if (decideFrame.type != FrameType::kDecide) {
      throw serve::Error(serve::Stage::Frame, epoch_,
                         std::string("expected decide, got ") +
                             frameTypeName(decideFrame.type));
    }
    const DecideMsg decide = DecideMsg::decode(decideFrame.payload);
    if (decide.epoch != epoch_) {
      throw serve::Error(serve::Stage::Frame, epoch_,
                         "decide for epoch " + std::to_string(decide.epoch) +
                             " while serving " + std::to_string(epoch_));
    }
    if (decide.replace != 0) applyReplacement();
  }

  /// The §4 re-placement wave: open a HandoffPass over the full local
  /// matrix (identical on every shard) and migrate every owned object
  /// through the shared per-object step — the barrier-mode drain the
  /// single-process engine runs inside drift epochs.
  void applyReplacement() {
    const double busyStart = threadCpuMs();
    const int workers = static_cast<int>(slots_.size());
    const std::shared_ptr<const workload::Workload> snapshot(
        std::shared_ptr<const workload::Workload>(), &aggregated_);
    std::unique_ptr<dynamic::HandoffPass> pass = [&] {
      try {
        return policy_->beginHandoff(snapshot, workers);
      } catch (const std::exception& e) {
        throw serve::Error(serve::Stage::Handoff, epoch_, e.what());
      }
    }();
    for (serve::EpochWorker& slot : slots_) slot.migration.clear();
    core::parallelForChunks(
        owned_, workers, 1, [](ObjectId) { return 0; },
        [&](std::span<const ObjectId> chunk, int worker) {
          serve::EpochWorker& slot = slots_[static_cast<std::size_t>(worker)];
          for (const ObjectId x : chunk) {
            const std::vector<net::NodeId> target = pass->target(x, worker);
            dynamic::applyHandoffTarget(*policy_, x, target, slot.acc,
                                        slot.migration);
          }
        });
    core::LoadMap migrated(tree_.edgeCount());
    for (const serve::EpochWorker& slot : slots_) {
      serve::addLoads(migrated, slot.migration);
    }
    MigrateMsg migrate;
    migrate.epoch = epoch_;
    migrate.loads.assign(migrated.edgeLoads().begin(),
                         migrated.edgeLoads().end());
    migrate.busyMs = threadCpuMs() - busyStart;
    totalBusyMs_ += migrate.busyMs;
    transport_.send(FrameType::kMigrate, migrate.encode());
  }

  FramedTransport& transport_;
  net::Tree tree_;
  net::RootedTree rooted_;
  Partition partition_;
  int shardId_;
  int numObjects_;
  int threads_;
  std::unique_ptr<dynamic::OnlinePolicy> policy_;
  workload::Workload aggregated_;
  core::IncrementalLowerBound lowerBound_;
  core::LoadMap epochServeLoads_;
  std::vector<std::size_t> offsets_;
  std::vector<RequestEvent> bucketed_;
  std::vector<ObjectId> touched_;  ///< this epoch's objects, ascending
  std::vector<ObjectId> owned_;    ///< this shard's objects, ascending
  std::vector<serve::EpochWorker> slots_;
  std::uint64_t epoch_ = 0;
  std::uint64_t servedRequests_ = 0;
  core::Count replications_ = 0;
  core::Count invalidations_ = 0;
  double totalBusyMs_ = 0.0;
};

}  // namespace

void runWorker(FramedTransport& transport) {
  std::uint64_t epoch = 0;
  try {
    Frame hello = transport.recv();
    if (hello.type != FrameType::kHello) {
      throw serve::Error(serve::Stage::Connect, 0,
                         std::string("expected hello, got ") +
                             frameTypeName(hello.type));
    }
    const HelloMsg msg = [&] {
      try {
        return HelloMsg::decode(hello.payload);
      } catch (const std::exception& e) {
        throw serve::Error(serve::Stage::Connect, 0, e.what());
      }
    }();
    if (msg.protocolVersion != kProtocolVersion) {
      throw serve::Error(serve::Stage::Connect, 0,
                         "protocol version mismatch (coordinator " +
                             std::to_string(msg.protocolVersion) +
                             ", worker " + std::to_string(kProtocolVersion) +
                             ")");
    }
    // Stack construction failures — unparsable tree, unknown policy
    // spec, bad partition parameters — are handshake failures.
    auto worker = [&] {
      try {
        return std::make_unique<ShardWorker>(transport, msg);
      } catch (const serve::Error&) {
        throw;
      } catch (const std::exception& e) {
        throw serve::Error(serve::Stage::Connect, 0, e.what());
      }
    }();
    transport.send(FrameType::kHelloAck, {});
    worker->run();
  } catch (const serve::Error& e) {
    // Ship the failure with its stage intact; the coordinator rethrows
    // it with this shard's attribution. Peer errors mean the link
    // itself is gone — nothing to send on.
    if (e.stage() != serve::Stage::Peer) {
      ErrorMsg err;
      err.stage = static_cast<std::uint32_t>(e.stage());
      err.epoch = e.epoch();
      err.cause = e.cause();
      try {
        transport.send(FrameType::kError, err.encode());
      } catch (...) {
      }
    }
    throw;
  } catch (const std::exception& e) {
    ErrorMsg err;
    err.stage = static_cast<std::uint32_t>(serve::Stage::Serve);
    err.epoch = epoch;
    err.cause = e.what();
    try {
      transport.send(FrameType::kError, err.encode());
    } catch (...) {
    }
    throw;
  }
}

int runWorkerProcess(int fd) noexcept {
  try {
    FramedTransport transport(makeSocketChannel(fd));
    runWorker(transport);
    return 0;
  } catch (const serve::Error& e) {
    return e.exitCode();
  } catch (...) {
    return 1;
  }
}

}  // namespace hbn::shard
