// The sequential per-request reference the sharded serving surfaces are
// checked against: every request is served as its own one-request shard
// of its object, in arrival order, on the per-edge walk (no
// accumulator) — the slow, obvious route through any OnlinePolicy.
#pragma once

#include "hbn/dynamic/online_policy.h"

namespace hbn::dynamic {

struct SequentialReference {
  explicit SequentialReference(OnlinePolicy& served)
      : policy(&served),
        loads(served.flatView().rooted().tree().edgeCount()) {}

  void serve(const Request& request) {
    const ShardStats stats = policy->serveShard(
        request.object, {&request, 1}, loads, scratch, nullptr);
    replications += stats.replications;
    invalidations += stats.invalidations;
  }

  OnlinePolicy* policy;
  core::LoadMap loads;
  ServeScratch scratch;
  Count replications = 0;
  Count invalidations = 0;
};

}  // namespace hbn::dynamic
