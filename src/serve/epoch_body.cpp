#include "hbn/serve/epoch_body.h"

namespace hbn::serve {

EpochWorker::EpochWorker(const core::FlatTreeView& flat, int edgeCount)
    : serveLoads(edgeCount),
      migration(edgeCount),
      lowerBound(edgeCount),
      acc(flat) {}

void EpochWorker::clear() {
  serveLoads.clear();
  migration.clear();
  lowerBound.clear();
  stats = {};
  served = 0;
}

std::vector<EpochWorker> makeEpochWorkers(const dynamic::OnlinePolicy& policy,
                                          int edgeCount, int workers) {
  std::vector<EpochWorker> slots;
  slots.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    slots.emplace_back(policy.flatView(), edgeCount);
  }
  return slots;
}

void serveAndAggregate(dynamic::OnlinePolicy& policy, workload::ObjectId x,
                       std::span<const workload::RequestEvent> events,
                       workload::Workload& aggregated,
                       const core::IncrementalLowerBound& lowerBound,
                       EpochWorker& worker) {
  const dynamic::ShardStats stats = policy.serveShard(
      x, events, worker.serveLoads, worker.scratch, &worker.acc);
  worker.stats.replications += stats.replications;
  worker.stats.invalidations += stats.invalidations;
  worker.served += events.size();
  // Aggregating after serving is what lets handoff passes read the live
  // matrix: a pass applies to x before x's next serve, while row x still
  // holds its trigger-time value (the HandoffPass row contract).
  lowerBound.accumulate(x, aggregated, -1, worker.subtree,
                        worker.lowerBound);
  for (const workload::RequestEvent& ev : events) {
    if (ev.isWrite) {
      aggregated.addWrites(x, ev.origin, 1);
    } else {
      aggregated.addReads(x, ev.origin, 1);
    }
  }
  lowerBound.accumulate(x, aggregated, 1, worker.subtree, worker.lowerBound);
}

void addLoads(core::LoadMap& into, const core::LoadMap& from) {
  const std::span<const core::Count> loads = from.edgeLoads();
  for (std::size_t e = 0; e < loads.size(); ++e) {
    if (loads[e] != 0) into.addEdgeLoad(static_cast<net::EdgeId>(e), loads[e]);
  }
}

}  // namespace hbn::serve
