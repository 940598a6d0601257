#include "hbn/shard/coordinator.h"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <utility>

#include "hbn/dynamic/harness.h"
#include "hbn/net/serialize.h"
#include "hbn/serve/error.h"
#include "hbn/serve/pipeline.h"
#include "hbn/util/stats.h"
#include "hbn/util/timer.h"

namespace hbn::shard {
namespace {

/// Decodes shard `shard`'s frame as a `Msg`; a malformed payload is a
/// Frame error naming the shard.
template <typename Msg>
Msg decodeFrom(int shard, const Frame& frame, std::uint64_t epoch) {
  try {
    return Msg::decode(frame.payload);
  } catch (const std::exception& e) {
    throw serve::Error(serve::Stage::Frame, epoch,
                       "shard " + std::to_string(shard) + ": " + e.what());
  }
}

}  // namespace

ShardCoordinator::ShardCoordinator(const net::Tree& tree, int numObjects,
                                   ShardOptions options,
                                   std::vector<FramedTransport*> links,
                                   std::string transportName)
    : tree_(&tree),
      numObjects_(numObjects),
      options_(std::move(options)),
      links_(std::move(links)),
      transportName_(std::move(transportName)),
      partition_(options_.partition, static_cast<int>(links_.size()),
                 options_.partitionSeed, numObjects),
      loads_(tree.edgeCount()),
      serveLoads_(tree.edgeCount()),
      lowerBoundMinima_(tree.edgeCount()) {
  if (links_.empty()) {
    throw std::invalid_argument("ShardCoordinator: at least one worker link");
  }
  if (options_.serve.epochSize < 1) {
    throw std::invalid_argument("ShardCoordinator: epochSize >= 1");
  }
  if (options_.serve.threads != 1) {
    throw std::invalid_argument(
        "ShardCoordinator: each shard worker serves on one thread "
        "(threads must be 1; scale with more workers)");
  }
  if (!options_.serve.checkpointDir.empty()) {
    throw std::invalid_argument(
        "ShardCoordinator: checkpointing is single-process only "
        "(drop --checkpoint-dir for sharded serving)");
  }
  drift_.replaceDrift = options_.serve.replaceDrift;
}

void ShardCoordinator::closeAll() noexcept {
  for (FramedTransport* link : links_) link->close();
}

Frame ShardCoordinator::expect(int shard, FrameType want,
                               std::uint64_t epoch) {
  Frame frame = [&] {
    try {
      return links_[static_cast<std::size_t>(shard)]->recv(
          options_.peerTimeoutMs);
    } catch (const serve::Error& e) {
      // Re-attribute with the shard id so "which worker" survives.
      throw serve::Error(e.stage(), e.epoch(),
                         "shard " + std::to_string(shard) + ": " + e.cause());
    }
  }();
  if (frame.type == FrameType::kError) {
    ErrorMsg err = ErrorMsg::decode(frame.payload);
    throw serve::Error(static_cast<serve::Stage>(err.stage), err.epoch,
                       "shard " + std::to_string(shard) + ": " + err.cause);
  }
  if (frame.type != want) {
    throw serve::Error(serve::Stage::Frame, epoch,
                       "shard " + std::to_string(shard) + ": expected " +
                           frameTypeName(want) + ", got " +
                           frameTypeName(frame.type));
  }
  return frame;
}

void ShardCoordinator::scatter(const serve::EpochBatch& batch,
                               std::uint64_t epoch) {
  const std::size_t shards = links_.size();
  std::vector<std::uint64_t> runs(shards, 0);
  sent_.assign(shards, 0);
  const auto length = [&batch](workload::ObjectId x) {
    return batch.offsets[static_cast<std::size_t>(x) + 1] -
           batch.offsets[static_cast<std::size_t>(x)];
  };
  for (const workload::ObjectId x : batch.touched) {
    const auto owner = static_cast<std::size_t>(partition_.ownerOf(x));
    sent_[owner] += length(x);
    ++runs[owner];
  }
  std::vector<EpochWriter> writers;
  writers.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    writers.emplace_back(epoch, sent_[s], runs[s]);
  }
  for (const workload::ObjectId x : batch.touched) {
    writers[static_cast<std::size_t>(partition_.ownerOf(x))].run(
        x, std::span<const workload::RequestEvent>(
               batch.bucketed.data() +
                   batch.offsets[static_cast<std::size_t>(x)],
               length(x)));
  }
  for (std::size_t s = 0; s < shards; ++s) {
    links_[s]->setEpoch(epoch);
    links_[s]->send(FrameType::kEpoch, writers[s].take());
  }
}

void ShardCoordinator::gatherRows(std::uint64_t epoch) {
  std::vector<ObjectRow> rows;
  for (int s = 0; s < static_cast<int>(links_.size()); ++s) {
    for (bool last = false; !last;) {
      const Frame frame = expect(s, FrameType::kRows, epoch);
      RowsMsg msg = decodeFrom<RowsMsg>(s, frame, epoch);
      if (msg.epoch != epoch) {
        throw serve::Error(serve::Stage::Frame, epoch,
                           "shard " + std::to_string(s) +
                               ": rows for epoch " +
                               std::to_string(msg.epoch));
      }
      for (ObjectRow& row : msg.rows) {
        if (row.object < 0 || row.object >= numObjects_ ||
            partition_.ownerOf(row.object) != s) {
          throw serve::Error(serve::Stage::Frame, epoch,
                             "shard " + std::to_string(s) +
                                 ": row for object " +
                                 std::to_string(row.object) +
                                 " it does not own");
        }
        rows.push_back(std::move(row));
      }
      last = msg.last != 0;
    }
  }
  for (const std::string& payload : encodeRowFrames(epoch, rows)) {
    const std::string frame =
        FramedTransport::encodeFrame(FrameType::kRows, payload);
    for (FramedTransport* link : links_) link->sendEncoded(frame);
  }
}

void ShardCoordinator::handshake() {
  const int shards = static_cast<int>(links_.size());
  const std::string treeText = net::toText(*tree_);
  for (int s = 0; s < shards; ++s) {
    HelloMsg hello;
    hello.shardId = s;
    hello.shardCount = shards;
    hello.numObjects = numObjects_;
    hello.epochSize = options_.serve.epochSize;
    hello.partitionKind = static_cast<std::uint8_t>(options_.partition);
    hello.partitionSeed = options_.partitionSeed;
    hello.policySpec = options_.serve.policy;
    hello.treeText = treeText;
    links_[static_cast<std::size_t>(s)]->send(FrameType::kHello,
                                             hello.encode());
  }
  for (int s = 0; s < shards; ++s) {
    try {
      (void)expect(s, FrameType::kHelloAck, 0);
    } catch (const serve::Error& e) {
      // Handshake-phase peer/frame failures are connect failures: the
      // cluster never came up.
      if (e.stage() == serve::Stage::Peer ||
          e.stage() == serve::Stage::Frame) {
        throw serve::Error(serve::Stage::Connect, 0, e.cause());
      }
      throw;
    }
  }
}

ShardedReport ShardCoordinator::serve(serve::RequestStream& stream) {
  if (served_) {
    throw std::logic_error("ShardCoordinator: serve() is one-shot");
  }
  served_ = true;
  try {
    const net::Tree& tree = *tree_;
    const int shards = static_cast<int>(links_.size());
    const int edgeCount = tree.edgeCount();

    handshake();

    ShardedReport report;
    report.policy = options_.serve.policy;
    report.pipeline = options_.serve.pipeline;
    report.transport = transportName_;
    report.partition = partitionKindName(options_.partition);
    report.workers = shards;

    // Stage 1 runs here exactly as in the single-process engine: the
    // threaded ingest buckets epoch N+1 while the workers serve epoch
    // N (release() right after the broadcast hands the slot back).
    serve::EpochIngest ingest(stream, tree, numObjects_,
                              options_.serve.epochSize,
                              options_.serve.pipeline);
    util::Accumulator epochMs;
    util::Timer total;

    for (;;) {
      serve::EpochBatch* const batch = ingest.acquire();
      if (batch == nullptr) break;
      util::Timer epochTimer;
      const std::uint64_t epochIndex = report.epochs;
      const std::size_t n = batch->n;

      scatter(*batch, epochIndex);
      ingest.release(batch);

      // Convergecast: merge per-shard stats. Each object is served,
      // aggregated and lower-bounded by its owner alone, so the integer
      // serve-load and lower-bound deltas sum to the single-process
      // epoch's, bit for bit, for any shard count.
      double epochBusy = 0.0;
      bool anyWantsHandoff = false;
      bool migratable = true;
      for (int s = 0; s < shards; ++s) {
        Frame statsFrame = expect(s, FrameType::kStats, epochIndex);
        const StatsMsg stats = decodeFrom<StatsMsg>(s, statsFrame,
                                                    epochIndex);
        if (stats.epoch != epochIndex) {
          throw serve::Error(serve::Stage::Frame, epochIndex,
                             "shard " + std::to_string(s) +
                                 ": stats for epoch " +
                                 std::to_string(stats.epoch));
        }
        // Determinism check: a shard serves exactly the events it was
        // sent.
        const std::uint64_t sent = sent_[static_cast<std::size_t>(s)];
        if (stats.requests != sent) {
          throw serve::Error(serve::Stage::Serve, epochIndex,
                             "shard " + std::to_string(s) + ": served " +
                                 std::to_string(stats.requests) + " of " +
                                 std::to_string(sent) + " requests sent");
        }
        if (stats.serveLoads.size() != static_cast<std::size_t>(edgeCount) ||
            stats.lowerBoundDelta.size() !=
                static_cast<std::size_t>(edgeCount)) {
          throw serve::Error(serve::Stage::Frame, epochIndex,
                             "shard " + std::to_string(s) +
                                 ": per-edge vector size mismatch");
        }
        for (net::EdgeId e = 0; e < edgeCount; ++e) {
          const auto load = static_cast<core::Count>(
              stats.serveLoads[static_cast<std::size_t>(e)]);
          if (load != 0) {
            loads_.addEdgeLoad(e, load);
            serveLoads_.addEdgeLoad(e, load);
          }
          const auto minimum = static_cast<core::Count>(
              stats.lowerBoundDelta[static_cast<std::size_t>(e)]);
          if (minimum != 0) lowerBoundMinima_.addEdgeLoad(e, minimum);
        }
        anyWantsHandoff = anyWantsHandoff || stats.wantsHandoff != 0;
        migratable = migratable && stats.migratable != 0;
        epochBusy = std::max(epochBusy, stats.busyMs);
      }
      const double lowerBound = lowerBoundMinima_.congestion(tree);

      serve::EpochRecord record;
      record.index = epochIndex;
      record.requests = n;
      record.lowerBound = lowerBound;
      record.congestion = loads_.congestion(tree);

      // Decide: the single-process drift trigger over merged
      // serve-only congestion, OR the policies' own handoff requests
      // (a per-object OR, so OR-over-shards equals the single-process
      // poll). Broadcast the decision either way — workers block on it.
      const double serveCongestion = serveLoads_.congestion(tree);
      const bool replace =
          migratable &&
          (drift_.fired(serveCongestion, lowerBound) || anyWantsHandoff);
      DecideMsg decide;
      decide.epoch = epochIndex;
      decide.replace = replace ? 1 : 0;
      const std::string decideFrame = FramedTransport::encodeFrame(
          FrameType::kDecide, decide.encode());
      for (FramedTransport* link : links_) link->sendEncoded(decideFrame);

      if (replace) {
        // Row all-gather, then the migrate wave: every shard applies the
        // §4 re-placement to its owned objects over the full matrix and
        // reports the charged traffic.
        gatherRows(epochIndex);
        double migrateBusy = 0.0;
        for (int s = 0; s < shards; ++s) {
          Frame migrateFrame = expect(s, FrameType::kMigrate, epochIndex);
          const MigrateMsg migrate =
              decodeFrom<MigrateMsg>(s, migrateFrame, epochIndex);
          if (migrate.epoch != epochIndex) {
            throw serve::Error(serve::Stage::Frame, epochIndex,
                               "shard " + std::to_string(s) +
                                   ": migrate for epoch " +
                                   std::to_string(migrate.epoch));
          }
          if (migrate.loads.size() != static_cast<std::size_t>(edgeCount)) {
            throw serve::Error(serve::Stage::Frame, epochIndex,
                               "shard " + std::to_string(s) +
                                   ": migration-load vector size mismatch");
          }
          for (net::EdgeId e = 0; e < edgeCount; ++e) {
            const auto load = static_cast<core::Count>(
                migrate.loads[static_cast<std::size_t>(e)]);
            if (load != 0) loads_.addEdgeLoad(e, load);
          }
          migrateBusy = std::max(migrateBusy, migrate.busyMs);
        }
        epochBusy += migrateBusy;
        ++report.replacements;
        record.replaced = true;
        record.congestion = loads_.congestion(tree);  // migration included
        drift_.reset(serveCongestion, lowerBound);
      }

      record.ratio =
          dynamic::competitiveRatio(record.congestion, record.lowerBound);
      record.wallMs = epochTimer.millis();
      epochMs.add(record.wallMs);
      report.criticalPathMs += epochBusy;
      log_.push_back(record);
      ++report.epochs;
      report.totalRequests += n;
    }

    // Fin wave: collect per-shard summaries and release the workers.
    const std::string finFrame =
        FramedTransport::encodeFrame(FrameType::kFin, {});
    for (FramedTransport* link : links_) link->sendEncoded(finFrame);
    std::uint64_t shardRequestSum = 0;
    for (int s = 0; s < shards; ++s) {
      Frame ackFrame = expect(s, FrameType::kFinAck, report.epochs);
      const FinAckMsg ack =
          decodeFrom<FinAckMsg>(s, ackFrame, report.epochs);
      ShardBreakdown breakdown;
      breakdown.shard = s;
      breakdown.requests = ack.requests;
      breakdown.busyMs = ack.busyMs;
      breakdown.replications = static_cast<core::Count>(ack.replications);
      breakdown.invalidations = static_cast<core::Count>(ack.invalidations);
      breakdown.bytesToWorker =
          links_[static_cast<std::size_t>(s)]->bytesSent();
      breakdown.bytesFromWorker =
          links_[static_cast<std::size_t>(s)]->bytesReceived();
      breakdown.policyMetrics = ack.policyMetrics;
      shardRequestSum += ack.requests;
      report.replications += breakdown.replications;
      report.invalidations += breakdown.invalidations;
      report.crossShardBytes +=
          breakdown.bytesToWorker + breakdown.bytesFromWorker;
      report.shards.push_back(std::move(breakdown));
    }
    // Ownership soundness: every event is served by exactly one shard.
    if (shardRequestSum != report.totalRequests) {
      throw serve::Error(serve::Stage::Serve, report.epochs,
                         "shards served " + std::to_string(shardRequestSum) +
                             " of " + std::to_string(report.totalRequests) +
                             " requests (partition overlap or gap)");
    }
    closeAll();

    report.epochBufferBytes = ingest.bufferBytes();
    serve::finishReport(report, total.millis(), epochMs,
                        loads_.congestion(tree),
                        lowerBoundMinima_.congestion(tree));
    report.bytesPerRequest =
        report.totalRequests > 0
            ? static_cast<double>(report.crossShardBytes) /
                  static_cast<double>(report.totalRequests)
            : 0.0;
    return report;
  } catch (...) {
    closeAll();
    throw;
  }
}

}  // namespace hbn::shard
