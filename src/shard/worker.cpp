#include "hbn/shard/worker.h"

#include <ctime>

#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "hbn/core/load.h"
#include "hbn/core/lower_bound.h"
#include "hbn/core/parallel.h"
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
        offsets_(static_cast<std::size_t>(hello.numObjects) + 1, 0),
        dirtyFlag_(static_cast<std::size_t>(hello.numObjects), 0),
        slots_(serve::makeEpochWorkers(
            *policy_, tree_.edgeCount(),
            core::resolveWorkerCount(threads_, numObjects_))) {
    for (ObjectId x = 0; x < numObjects_; ++x) {
      if (partition_.ownerOf(x) == shardId_) owned_.push_back(x);
    }
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
        default:
          throwUnexpected(frame, "epoch or fin");
      }
    }
  }

 private:
  /// Decodes an epoch frame into offsets_/bucketed_/touched_: every run
  /// must be an owned object, in ascending order, with at least one
  /// event, and every origin a tree node.
  void decodeEpoch(const std::string& payload) {
    try {
      EpochReader reader(payload);
      epoch_ = reader.epoch();
      transport_.setEpoch(epoch_);
      bucketed_.resize(static_cast<std::size_t>(reader.events()));
      touched_.clear();
      std::size_t at = 0;
      EpochReader::Run run;
      while (reader.next(run)) {
        if (run.object < 0 || run.object >= numObjects_ ||
            partition_.ownerOf(run.object) != shardId_) {
          throw std::runtime_error("epoch run for object " +
                                   std::to_string(run.object) +
                                   " not owned by this shard");
        }
        if (!touched_.empty() && run.object <= touched_.back()) {
          throw std::runtime_error("epoch run for object " +
                                   std::to_string(run.object) +
                                   " out of ascending order");
        }
        if (run.count == 0) {
          throw std::runtime_error("empty epoch run");
        }
        RequestEvent* const out = bucketed_.data() + at;
        reader.read(run, out);
        for (std::uint32_t i = 0; i < run.count; ++i) {
          if (out[i].origin >= tree_.nodeCount()) {
            throw std::runtime_error("request origin out of range");
          }
        }
        const auto row = static_cast<std::size_t>(run.object);
        offsets_[row] = at;
        at += run.count;
        offsets_[row + 1] = at;
        touched_.push_back(run.object);
      }
      reader.finish();
    } catch (const std::exception& e) {
      throw serve::Error(serve::Stage::Frame, epoch_, e.what());
    }
  }

  void serveEpoch(const std::string& payload) {
    // Busy time starts at decode: deserialisation, serving, aggregation
    // and the lower-bound delta are this shard's critical-path work for
    // the epoch; the blocking recv above is not.
    const double busyStart = threadCpuMs();
    decodeEpoch(payload);

    // The single-process per-object epoch body over this shard's
    // touched objects. Identical per-object bucketing and serving means
    // the union over shards reproduces the single-process epoch
    // exactly.
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
                aggregated_, lowerBound_, slot);
          }
        });
    for (const ObjectId x : touched_) {
      std::uint8_t& flag = dirtyFlag_[static_cast<std::size_t>(x)];
      if (flag == 0) {
        flag = 1;
        dirty_.push_back(x);
      }
    }

    const std::size_t edges = static_cast<std::size_t>(tree_.edgeCount());
    StatsMsg stats;
    stats.epoch = epoch_;
    stats.serveLoads.assign(edges, 0);
    stats.lowerBoundDelta.assign(edges, 0);
    for (const serve::EpochWorker& slot : slots_) {
      const std::span<const core::Count> serveLoads =
          slot.serveLoads.edgeLoads();
      const std::span<const core::Count> lowerBound =
          slot.lowerBound.edgeLoads();
      for (std::size_t e = 0; e < edges; ++e) {
        stats.serveLoads[e] += serveLoads[e];
        stats.lowerBoundDelta[e] += lowerBound[e];
      }
      replications_ += slot.stats.replications;
      invalidations_ += slot.stats.invalidations;
      stats.requests += slot.served;
    }
    servedRequests_ += stats.requests;
    stats.busyMs = threadCpuMs() - busyStart;
    stats.wantsHandoff =
        policy_->migratable() && policy_->wantsHandoff() ? 1 : 0;
    stats.migratable = policy_->migratable() ? 1 : 0;
    stats.replications = static_cast<std::int64_t>(replications_);
    stats.invalidations = static_cast<std::int64_t>(invalidations_);
    totalBusyMs_ += stats.busyMs;
    transport_.send(FrameType::kStats, stats.encode());

    // Broadcast leg of the barrier: the coordinator's global decision.
    const Frame decideFrame = recvExpected(FrameType::kDecide);
    const DecideMsg decide = DecideMsg::decode(decideFrame.payload);
    if (decide.epoch != epoch_) {
      throw serve::Error(serve::Stage::Frame, epoch_,
                         "decide for epoch " + std::to_string(decide.epoch) +
                             " while serving " + std::to_string(epoch_));
    }
    if (decide.replace != 0) applyReplacement();
  }

  /// Row all-gather: sends the rows of owned objects touched since the
  /// last gather, then installs every shard's rows from the
  /// coordinator. Afterwards aggregated_ is the full matrix.
  void gatherRows(double& busyMs) {
    double start = threadCpuMs();
    std::vector<ObjectRow> rows;
    rows.reserve(dirty_.size());
    for (const ObjectId x : dirty_) {
      ObjectRow row;
      row.object = x;
      const std::span<const core::Count> reads = aggregated_.readRow(x);
      const std::span<const core::Count> writes = aggregated_.writeRow(x);
      for (std::size_t v = 0; v < reads.size(); ++v) {
        if (reads[v] != 0 || writes[v] != 0) {
          row.entries.push_back(
              {static_cast<std::int32_t>(v), reads[v], writes[v]});
        }
      }
      rows.push_back(std::move(row));
      dirtyFlag_[static_cast<std::size_t>(x)] = 0;
    }
    dirty_.clear();
    for (const std::string& payload : encodeRowFrames(epoch_, rows)) {
      transport_.send(FrameType::kRows, payload);
    }
    busyMs += threadCpuMs() - start;

    for (bool last = false; !last;) {
      const Frame frame = recvExpected(FrameType::kRows);
      start = threadCpuMs();
      try {
        const RowsMsg msg = RowsMsg::decode(frame.payload);
        if (msg.epoch != epoch_) {
          throw std::runtime_error("rows for epoch " +
                                   std::to_string(msg.epoch));
        }
        for (const ObjectRow& row : msg.rows) installRow(row);
        last = msg.last != 0;
      } catch (const std::exception& e) {
        throw serve::Error(serve::Stage::Frame, epoch_, e.what());
      }
      busyMs += threadCpuMs() - start;
    }
  }

  /// Replaces row `row.object` of aggregated_ with `row`'s cells.
  void installRow(const ObjectRow& row) {
    const ObjectId x = row.object;
    if (x < 0 || x >= numObjects_) {
      throw std::runtime_error("row for object " + std::to_string(x) +
                               " out of range");
    }
    for (net::NodeId v = 0; v < tree_.nodeCount(); ++v) {
      aggregated_.setReads(x, v, 0);
      aggregated_.setWrites(x, v, 0);
    }
    for (const RowEntry& entry : row.entries) {
      aggregated_.setReads(x, entry.node, entry.reads);
      aggregated_.setWrites(x, entry.node, entry.writes);
    }
  }

  /// The §4 re-placement wave: gather the full matrix, open a
  /// HandoffPass over it and migrate every owned object through the
  /// shared per-object step — the barrier-mode drain the single-process
  /// engine runs inside drift epochs.
  void applyReplacement() {
    double busyMs = 0.0;
    gatherRows(busyMs);
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
    migrate.busyMs = busyMs + threadCpuMs() - busyStart;
    totalBusyMs_ += migrate.busyMs;
    transport_.send(FrameType::kMigrate, migrate.encode());
  }

  /// Next frame, which must be `want`; an Error frame rethrows the
  /// coordinator's failure.
  Frame recvExpected(FrameType want) {
    Frame frame = transport_.recv();
    if (frame.type != want) throwUnexpected(frame, frameTypeName(want));
    return frame;
  }

  [[noreturn]] void throwUnexpected(const Frame& frame,
                                    const std::string& want) const {
    if (frame.type == FrameType::kError) {
      const ErrorMsg err = ErrorMsg::decode(frame.payload);
      throw serve::Error(static_cast<serve::Stage>(err.stage), err.epoch,
                         "coordinator: " + err.cause);
    }
    throw serve::Error(serve::Stage::Frame, epoch_,
                       "expected " + want + ", got " +
                           frameTypeName(frame.type));
  }

  FramedTransport& transport_;
  net::Tree tree_;
  net::RootedTree rooted_;
  Partition partition_;
  int shardId_;
  int numObjects_;
  int threads_;
  std::unique_ptr<dynamic::OnlinePolicy> policy_;
  /// Frequency matrix: owned rows current, other rows as of the last
  /// row gather.
  workload::Workload aggregated_;
  /// Computes per-object lower-bound deltas; its own total is unused.
  core::IncrementalLowerBound lowerBound_;
  std::vector<std::size_t> offsets_;  ///< CSR offsets, valid at touched_
  std::vector<RequestEvent> bucketed_;
  std::vector<ObjectId> touched_;  ///< this epoch's objects, ascending
  std::vector<ObjectId> owned_;    ///< this shard's objects, ascending
  /// Owned objects touched since the last row gather.
  std::vector<ObjectId> dirty_;
  std::vector<std::uint8_t> dirtyFlag_;
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
