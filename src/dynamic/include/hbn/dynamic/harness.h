// Competitive-ratio harness for the online policies.
//
// Builds online request sequences (randomised interleavings of a static
// workload, or adversarial read/write alternations), runs them through
// any registered OnlinePolicy, and compares the realised congestion
// against the offline benchmark: the analytic congestion lower bound of
// the aggregated frequencies. It bounds *static* placements only — the
// best fixed copy configuration for the whole sequence. A strategy that
// migrates copies as the traffic shifts can beat it, so a ratio below 1
// (e.g. on bursty streams) is possible and does not mean the online
// policy beat every offline strategy.
#pragma once

#include <limits>
#include <span>
#include <string>
#include <vector>

#include "hbn/dynamic/online_policy.h"
#include "hbn/util/rng.h"
#include "hbn/workload/workload.h"

namespace hbn::dynamic {

/// The true online-vs-offline congestion ratio, with the zero lower
/// bound guarded explicitly (dividing by max(LB, 1) would silently
/// deflate ratios whenever the bound is sub-1): 1 when both are zero
/// (trivially optimal), +inf when only the bound is. Shared by the
/// competitive harness and the serving engine's epoch log.
[[nodiscard]] inline double competitiveRatio(double onlineCongestion,
                                             double offlineLowerBound) {
  if (offlineLowerBound > 0.0) return onlineCongestion / offlineLowerBound;
  return onlineCongestion == 0.0 ? 1.0
                                 : std::numeric_limits<double>::infinity();
}

/// Stable object-bucketing (CSR): scatters `requests` into `bucketed`
/// grouped by object id with per-object arrival order preserved, and
/// fills `offsets` so object x's run is
/// bucketed[offsets[x], offsets[x+1]). `offsets` must have
/// numObjects + 1 entries and `bucketed` requests.size() entries; every
/// request's object id must lie in [0, numObjects). When `touched` is
/// given it is cleared and receives the ids with a nonempty run,
/// ascending — the epoch's work list. Allocation-free (given `touched`
/// capacity) — shared by the epoch server's per-epoch sharding, the
/// competitive harness, and the load-engine benchmark.
void bucketRequestsByObject(std::span<const Request> requests,
                            int numObjects,
                            std::span<std::size_t> offsets,
                            std::span<Request> bucketed,
                            std::vector<ObjectId>* touched = nullptr);

/// Flattens a static workload into a uniformly shuffled request sequence.
[[nodiscard]] std::vector<Request> sequenceFromWorkload(
    const workload::Workload& load, util::Rng& rng);

/// Adversarial sequence: alternating read bursts from one subtree and
/// writes from another, designed to force replicate/invalidate churn.
[[nodiscard]] std::vector<Request> makePingPongSequence(
    const net::Tree& tree, int numObjects, int roundsPerObject,
    Count readsPerBurst, util::Rng& rng);

/// Outcome of one competitive run.
struct CompetitiveResult {
  double onlineCongestion = 0.0;
  /// Bounds static placements only (see the file comment).
  double offlineLowerBound = 0.0;
  /// The true ratio onlineCongestion / offlineLowerBound; 1 when both
  /// are zero (trivially optimal), +inf when only the bound is zero.
  double ratio = 0.0;
  Count replications = 0;
  Count invalidations = 0;
};

/// Runs `requests` online through the policy selected by
/// `policySpec` (OnlinePolicyRegistry grammar) and evaluates against
/// the offline bound. Throws std::invalid_argument for unknown policy
/// names or options.
[[nodiscard]] CompetitiveResult runCompetitive(
    const net::RootedTree& rooted, int numObjects,
    const std::vector<Request>& requests, const std::string& policySpec);

}  // namespace hbn::dynamic
