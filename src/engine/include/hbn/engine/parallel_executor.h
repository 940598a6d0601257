// Object-sharded parallel executor for per-object placement strategies.
//
// The paper's algorithms place each object independently in O(|V|), so a
// production engine shards the object range over the process-wide worker
// pool (core::parallelForObjects). The executor owns the two ingredients
// that make this fast *and* deterministic:
//   * per-worker scratch state (e.g. core::NibbleScratch), constructed
//     once per worker and reused for every object of its id range, so
//     the hot path performs no per-object allocation;
//   * a deterministic merge: each object writes only its own preallocated
//     slot, so the assembled Placement is bit-identical for 1 vs N threads.
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "hbn/core/parallel.h"
#include "hbn/core/placement.h"

namespace hbn::engine {

class ParallelExecutor {
 public:
  /// `threads`: worker budget; 0 = hardware concurrency.
  explicit ParallelExecutor(int threads = 1) : threads_(threads) {}

  [[nodiscard]] int threads() const noexcept { return threads_; }

  /// Runs fn(x, scratch) for every object id x in [0, numObjects), where
  /// `scratch` is the invoking worker's instance of Scratch (default-
  /// constructed once per worker). fn must write results only into
  /// object-x-owned slots.
  template <typename Scratch, typename Fn>
  void forEachObject(int numObjects, Fn&& fn) const {
    const int workers = core::resolveWorkerCount(threads_, numObjects);
    std::vector<Scratch> scratch(static_cast<std::size_t>(workers));
    core::parallelForObjects(numObjects, workers,
                             [&](workload::ObjectId x, int worker) {
                               fn(x, scratch[static_cast<std::size_t>(worker)]);
                             });
  }

  /// Assembles a Placement by evaluating one ObjectPlacement per object.
  /// fn(x, scratch) returns object x's placement; slots are preallocated
  /// and the merge is position-based, hence thread-count independent.
  template <typename Scratch, typename Fn>
  [[nodiscard]] core::Placement placeObjects(int numObjects, Fn&& fn) const {
    core::Placement placement;
    placement.objects.resize(static_cast<std::size_t>(numObjects));
    forEachObject<Scratch>(numObjects,
                           [&](workload::ObjectId x, Scratch& scratch) {
                             placement.objects[static_cast<std::size_t>(x)] =
                                 fn(x, scratch);
                           });
    return placement;
  }

 private:
  int threads_;
};

}  // namespace hbn::engine
