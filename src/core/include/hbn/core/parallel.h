// Object-parallel execution on one process-wide worker pool.
//
// The paper's placement and serving work is independent per object, so
// every object-parallel loop in the engine — placement strategies,
// extended-nibble, the epoch server and the shard worker — runs through
// the same mechanism: parallelRun(workers, body) runs body(worker) once
// per worker index, worker 0 on the calling thread and the rest on a
// persistent pool whose threads start lazily on the first call that
// needs them and are then reused for the life of the process (a forked
// child starts its own). Each body writes only to its own worker's
// slots or to objects it owns, so results merged after the join are
// bit-identical for any worker count.
//
// Two splits sit on top of it:
//   * parallelForObjects — object ids [0, n) cut into contiguous,
//     equal-count id ranges (placement strategies, handoff drains);
//   * parallelForChunks — an explicit object list cut into contiguous
//     chunks of near-equal weight (the serving epoch, where a Zipf
//     stream concentrates most requests on a few ids).
//
// Calls never deadlock: a call made from inside a pool task, or while
// another thread's call holds the pool, runs its bodies inline on the
// caller in worker order. Every body runs even when some throw, and the
// lowest worker index's exception is rethrown on the caller — the same
// outcome whichever thread ran which body.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "hbn/workload/workload.h"

namespace hbn::core {

/// Resolves a requested thread count: 0 = hardware concurrency, and never
/// more workers than items. Always >= 1 (for items >= 1).
[[nodiscard]] int resolveWorkerCount(int requested, int items);

namespace detail {

using PoolCall = void (*)(void* context, int worker);
/// Non-template core of parallelRun (see parallel.cpp).
void runOnPool(int workers, PoolCall call, void* context);

}  // namespace detail

/// Runs body(worker) for every worker in [0, max(workers, 1)) and returns
/// once all have finished (see the header comment for threading and
/// exception semantics).
template <typename Body>
void parallelRun(int workers, Body&& body) {
  using Fn = std::remove_reference_t<Body>;
  detail::runOnPool(
      workers,
      [](void* context, int worker) { (*static_cast<Fn*>(context))(worker); },
      const_cast<void*>(static_cast<const void*>(std::addressof(body))));
}

/// Runs fn(x, worker) for every object id x in [0, numObjects); `worker`
/// is the index of x's contiguous id range in
/// [0, resolveWorkerCount(threads, numObjects)), letting callers hand
/// each worker its own scratch buffers.
template <typename Fn>
void parallelForObjects(int numObjects, int threads, Fn&& fn) {
  const int workers = resolveWorkerCount(threads, numObjects);
  parallelRun(workers, [&](int worker) {
    const auto begin = static_cast<workload::ObjectId>(
        static_cast<long>(numObjects) * worker / workers);
    const auto end = static_cast<workload::ObjectId>(
        static_cast<long>(numObjects) * (worker + 1) / workers);
    for (workload::ObjectId x = begin; x < end; ++x) fn(x, worker);
  });
}

/// Runs fn(chunk, worker) for every worker in [0, workers): `items` is
/// cut into `workers` contiguous chunks whose costs (weight(item) +
/// itemCost per item) are as equal as whole items allow. Every worker
/// runs, including those whose chunk is empty.
template <typename Weight, typename Fn>
void parallelForChunks(std::span<const workload::ObjectId> items, int workers,
                       std::uint64_t itemCost, Weight&& weight, Fn&& fn) {
  workers = std::max(workers, 1);
  std::vector<std::size_t> bounds(static_cast<std::size_t>(workers) + 1,
                                  items.size());
  bounds[0] = 0;
  if (workers > 1) {
    std::uint64_t total = 0;
    for (const workload::ObjectId x : items) {
      total += static_cast<std::uint64_t>(weight(x)) + itemCost;
    }
    // Item i goes to the chunk holding the midpoint of its cost span;
    // midpoints increase with i, so chunks stay contiguous.
    std::uint64_t before = 0;
    int chunk = 0;
    for (std::size_t i = 0; total > 0 && i < items.size(); ++i) {
      const std::uint64_t cost =
          static_cast<std::uint64_t>(weight(items[i])) + itemCost;
      const auto owner = static_cast<int>(std::min<std::uint64_t>(
          (2 * before + cost) * static_cast<std::uint64_t>(workers) /
              (2 * total),
          static_cast<std::uint64_t>(workers - 1)));
      while (chunk < owner) bounds[static_cast<std::size_t>(++chunk)] = i;
      before += cost;
    }
  }
  parallelRun(workers, [&](int worker) {
    const auto w = static_cast<std::size_t>(worker);
    fn(items.subspan(bounds[w], bounds[w + 1] - bounds[w]), worker);
  });
}

}  // namespace hbn::core
