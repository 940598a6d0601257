// The per-object epoch body shared by EpochServer and the shard worker.
//
// An epoch's work is independent per object: serving x's requests,
// folding them into row x of the aggregated frequency matrix, and
// refreshing x's term of the incremental lower bound all read and write
// object-x state only. So the serve step hands each pool worker a
// contiguous chunk of the epoch's touched objects — chunks of equal
// request weight, not equal id ranges, because a Zipf stream puts most
// of an epoch on a few objects — and runs the whole per-object body
// inside the worker, with private loads, counters and lower-bound delta
// per worker (EpochWorker). The caller merges those integer sums after
// the join; integer addition commutes, so loads, counters, the matrix
// and the bound are bit-identical for any worker count and any split.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hbn/core/flat_load.h"
#include "hbn/core/load.h"
#include "hbn/core/lower_bound.h"
#include "hbn/core/parallel.h"
#include "hbn/dynamic/online_policy.h"
#include "hbn/workload/workload.h"

namespace hbn::serve {

/// Fixed cost of one touched object in the weighted split, in request
/// units: the migration check, the serveShard entry and flush, and the
/// two O(|V|) lower-bound passes each touched object pays however few
/// requests it has.
inline constexpr std::uint64_t kObjectCost = 16;

/// One pool worker's private accumulators for an epoch.
struct EpochWorker {
  EpochWorker(const core::FlatTreeView& flat, int edgeCount);

  /// Zeroes the per-epoch sums, keeping every allocation.
  void clear();

  core::LoadMap serveLoads;  ///< serve + update traffic
  core::LoadMap migration;   ///< lazy handoff traffic
  core::LoadMap lowerBound;  ///< signed lower-bound delta
  core::FlatLoadAccumulator acc;
  dynamic::ServeScratch scratch;
  std::vector<core::Count> subtree;  ///< lower-bound scratch
  dynamic::ShardStats stats;
  std::uint64_t served = 0;  ///< requests served by this worker
};

/// `workers` accumulator sets over `policy`'s flat view.
[[nodiscard]] std::vector<EpochWorker> makeEpochWorkers(
    const dynamic::OnlinePolicy& policy, int edgeCount, int workers);

/// The per-object step (after any pending handoff migration): serves
/// `events` — x's bucketed run — through `policy`, then folds them into
/// row x of `aggregated` between removing and re-adding x's lower-bound
/// term in worker.lowerBound. Touches only object-x state and `worker`,
/// so distinct objects may run concurrently.
void serveAndAggregate(dynamic::OnlinePolicy& policy, workload::ObjectId x,
                       std::span<const workload::RequestEvent> events,
                       workload::Workload& aggregated,
                       const core::IncrementalLowerBound& lowerBound,
                       EpochWorker& worker);

/// Runs fn(chunk, worker) on the shared pool for every worker in
/// [0, workers): `touched` split into contiguous chunks of near-equal
/// (requests + kObjectCost) weight, with x's request count read from
/// the CSR `offsets`. Workers with an empty chunk still run.
template <typename Fn>
void forEachTouchedChunk(std::span<const workload::ObjectId> touched,
                         std::span<const std::size_t> offsets, int workers,
                         Fn&& fn) {
  core::parallelForChunks(
      touched, workers, kObjectCost,
      [offsets](workload::ObjectId x) {
        return offsets[static_cast<std::size_t>(x) + 1] -
               offsets[static_cast<std::size_t>(x)];
      },
      fn);
}

/// into += from, edge by edge.
void addLoads(core::LoadMap& into, const core::LoadMap& from);

}  // namespace hbn::serve
