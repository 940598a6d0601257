#include "replay.h"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "hbn/core/flat_load.h"
#include "hbn/core/lower_bound.h"
#include "hbn/core/parallel.h"
#include "hbn/dynamic/harness.h"
#include "hbn/dynamic/online_policy.h"
#include "hbn/serve/checkpoint.h"
#include "hbn/shard/wire.h"
#include "hbn/workload/serialize.h"
#include "hbn/workload/workload.h"

namespace perfbench {

using hbn::core::Count;
using hbn::core::LoadMap;
using hbn::workload::ObjectId;
using hbn::workload::RequestEvent;

namespace {

void addInto(LoadMap& into, const LoadMap& from) {
  const std::span<const Count> loads = from.edgeLoads();
  for (std::size_t e = 0; e < loads.size(); ++e) {
    if (loads[e] != 0) into.addEdgeLoad(static_cast<int>(e), loads[e]);
  }
}

}  // namespace

ReplayOutcome replayLayers(
    const hbn::net::RootedTree& rooted, const WorkloadSpec& spec,
    std::span<const RequestEvent> input,
    const std::vector<hbn::serve::EpochRecord>& engineLog,
    const std::string& checkpointDir, Tracer& tracer, int parent) {
  const hbn::net::Tree& tree = rooted.tree();
  const int numObjects = spec.numObjects;
  const int edgeCount = tree.edgeCount();
  std::unique_ptr<hbn::dynamic::OnlinePolicy> policy =
      hbn::dynamic::OnlinePolicyRegistry::global()
          .create(spec.policy)
          ->build(rooted, numObjects, tree.processors().front());
  hbn::workload::Workload aggregated(numObjects, tree.nodeCount());
  hbn::core::IncrementalLowerBound lowerBound(rooted);
  LoadMap loads(edgeCount);
  LoadMap serveLoads(edgeCount);
  LoadMap epochLoads(edgeCount);
  LoadMap migration(edgeCount);
  hbn::dynamic::ServeScratch scratch;
  hbn::core::FlatLoadAccumulator acc(policy->flatView());
  std::vector<std::size_t> offsets(static_cast<std::size_t>(numObjects) + 1);
  std::vector<RequestEvent> bucketed(spec.epochSize);
  std::vector<ObjectId> touched;
  const int workers = hbn::core::resolveWorkerCount(spec.threads, numObjects);
  std::vector<std::uint64_t> workerRequests(static_cast<std::size_t>(workers));
  double busiestSum = 0.0;
  double meanSum = 0.0;
  double touchedFracSum = 0.0;
  double checkpointBytes = 0.0;
  ReplayOutcome out;

  {
    Tracer::Scope span(tracer, "core.lower_bound", parent);
    lowerBound.rebuild(aggregated);
  }

  auto checkpoint = [&](std::uint64_t epochs, int epochSpan) {
    Tracer::Scope span(tracer, "serve.checkpoint", epochSpan);
    hbn::serve::CheckpointData data;
    data.policySpec = policy->spec();
    data.numObjects = numObjects;
    data.numNodes = tree.nodeCount();
    data.numEdges = edgeCount;
    data.servedTotal = std::min<std::uint64_t>(epochs * spec.epochSize,
                                               input.size());
    data.epochs = epochs;
    data.replacements = out.handoffs;
    data.replications = out.replications;
    data.invalidations = out.invalidations;
    data.passesBegun = out.handoffs;
    data.checkpointsWritten = out.checkpoints;
    data.loads.assign(loads.edgeLoads().begin(), loads.edgeLoads().end());
    data.serveLoads.assign(serveLoads.edgeLoads().begin(),
                           serveLoads.edgeLoads().end());
    data.workloadText = hbn::workload::toText(aggregated);
    std::ostringstream state;
    policy->serializeState(state);
    data.policyState = state.str();
    const std::string path =
        hbn::serve::writeCheckpointFile(data, checkpointDir);
    checkpointBytes += static_cast<double>(std::filesystem::file_size(path));
    ++out.checkpoints;
  };

  for (std::size_t begin = 0; begin < input.size(); begin += spec.epochSize) {
    const std::size_t n = std::min(spec.epochSize, input.size() - begin);
    const std::span<const RequestEvent> raw = input.subspan(begin, n);
    const std::uint64_t epoch = out.epochs++;
    const Tracer::Scope epochSpan(tracer, "replay.epoch", parent);
    const int ep = epochSpan.id();

    if (spec.shardWorkers > 0) {
      hbn::shard::EpochMsg msg;
      msg.epoch = epoch;
      msg.events.assign(raw.begin(), raw.end());
      std::string payload;
      {
        Tracer::Scope span(tracer, "shard.encode", ep);
        payload = msg.encode();
      }
      Tracer::Scope span(tracer, "shard.decode", ep);
      const hbn::shard::EpochMsg decoded =
          hbn::shard::EpochMsg::decode(payload);
      if (decoded.events.size() != n) {
        throw std::runtime_error("replay: epoch message lost events");
      }
    }

    {
      Tracer::Scope span(tracer, "serve.bucket", ep);
      hbn::dynamic::bucketRequestsByObject(
          raw, numObjects, offsets, std::span(bucketed).first(n));
    }
    touched.clear();
    for (ObjectId x = 0; x < numObjects; ++x) {
      if (offsets[static_cast<std::size_t>(x)] !=
          offsets[static_cast<std::size_t>(x) + 1]) {
        touched.push_back(x);
      }
    }
    touchedFracSum +=
        static_cast<double>(touched.size()) / static_cast<double>(numObjects);

    // How the engine's parallelForObjects split would load its workers:
    // a counting body over this epoch's CSR offsets.
    std::fill(workerRequests.begin(), workerRequests.end(), 0);
    hbn::core::parallelForObjects(
        numObjects, spec.threads, [&](ObjectId x, int worker) {
          workerRequests[static_cast<std::size_t>(worker)] +=
              offsets[static_cast<std::size_t>(x) + 1] -
              offsets[static_cast<std::size_t>(x)];
        });
    busiestSum += static_cast<double>(
        *std::max_element(workerRequests.begin(), workerRequests.end()));
    meanSum += static_cast<double>(n) / static_cast<double>(workers);

    epochLoads.clear();
    {
      Tracer::Scope span(tracer, "dynamic.serve", ep);
      for (const ObjectId x : touched) {
        const std::size_t from = offsets[static_cast<std::size_t>(x)];
        const std::size_t to = offsets[static_cast<std::size_t>(x) + 1];
        const hbn::dynamic::ShardStats stats = policy->serveShard(
            x, std::span<const RequestEvent>(bucketed).subspan(from, to - from),
            epochLoads, scratch, &acc);
        out.replications += stats.replications;
        out.invalidations += stats.invalidations;
      }
    }
    addInto(loads, epochLoads);
    addInto(serveLoads, epochLoads);

    {
      Tracer::Scope span(tracer, "core.lower_bound", ep);
      for (const ObjectId x : touched) lowerBound.remove(x, aggregated);
    }
    {
      Tracer::Scope span(tracer, "workload.aggregate", ep);
      for (const RequestEvent& ev : raw) {
        if (ev.isWrite) {
          aggregated.addWrites(ev.object, ev.origin, 1);
        } else {
          aggregated.addReads(ev.object, ev.origin, 1);
        }
      }
    }
    {
      Tracer::Scope span(tracer, "core.lower_bound", ep);
      for (const ObjectId x : touched) lowerBound.add(x, aggregated);
    }
    {
      Tracer::Scope span(tracer, "core.congestion", ep);
      (void)lowerBound.congestion();
      (void)loads.congestion(tree);
      (void)serveLoads.congestion(tree);
    }

    const bool replaced =
        epoch < engineLog.size() && engineLog[epoch].replaced;
    if (replaced) {
      Tracer::Scope span(tracer, "dynamic.handoff", ep);
      migration.clear();
      // Non-owning alias of the live matrix, as the engine passes it.
      const std::shared_ptr<const hbn::workload::Workload> snapshot(
          std::shared_ptr<const hbn::workload::Workload>(), &aggregated);
      std::unique_ptr<hbn::dynamic::HandoffPass> pass =
          policy->beginHandoff(snapshot, 1);
      for (ObjectId x = 0; x < numObjects; ++x) {
        const std::vector<hbn::net::NodeId> target = pass->target(x, 0);
        hbn::dynamic::applyHandoffTarget(*policy, x, target, acc, migration);
      }
      addInto(loads, migration);
      ++out.handoffs;
    }
    if (spec.checkpointEvery > 0 && (epoch + 1) % spec.checkpointEvery == 0) {
      checkpoint(epoch + 1, ep);
    }
  }
  // The engine's end-of-run checkpoint, unless the last epoch took one.
  if (spec.checkpointEvery > 0 && out.epochs % spec.checkpointEvery != 0) {
    checkpoint(out.epochs, parent);
  }

  out.loads.assign(loads.edgeLoads().begin(), loads.edgeLoads().end());
  out.checkpointBytes =
      out.checkpoints > 0
          ? checkpointBytes / static_cast<double>(out.checkpoints)
          : 0.0;
  out.touchedFrac =
      out.epochs > 0 ? touchedFracSum / static_cast<double>(out.epochs) : 0.0;
  out.workerImbalance = meanSum > 0.0 ? busiestSum / meanSum : 1.0;
  return out;
}

}  // namespace perfbench
