// The adaptive per-object meta-policy.
//
// e14 (BENCH_policy-comparison.json) shows the paper's tension
// empirically: no fixed policy dominates — tree-counters wins read-heavy
// skew against owner-only but loses to full-replication there, while
// full-replication collapses under write-heavy churn. The paper's §4
// dynamic scheme is exactly a per-object read/write-mix tracker, and the
// registry architecture makes the obvious next step cheap: a meta-policy
// that *measures* each member policy per object and routes the object to
// whichever is cheapest right now.
//
// Mechanics:
//   * every shard is shadow-served through EVERY member policy into a
//     per-worker scratch LoadMap; only the object's active member's
//     charges reach the caller. Member states therefore depend only on
//     the object's request sequence — never on routing — which is what
//     keeps 1-vs-N-thread and barrier-vs-pipelined serving bit-identical
//     and makes a routing switch a pure copy-set migration;
//   * per object and member, the shadow window totals (fixed-point, see
//     kScoreScale) feed two views: the raw two-window rolling sum and a
//     slow EWMA (decay 3/4; the active member's sample is winsorised at
//     2× its EWMA so one spike window cannot trigger an eviction, while
//     a persistent rise still doubles through per window);
//   * at each window end the object re-decides. Both switching paths
//     require the 3/4 hysteresis ratio (kSwitchNum/kSwitchDen) and are
//     gated on the one-time migration cost, Steiner(old ∪ new copy
//     set) — the exact charge the server's handoff pass makes. The FAST
//     path reads the rolling raw sum and needs 2× the migration cost in
//     saving (regime changes and freshly hot objects must not wait for
//     the EWMA); the SLOW path reads the EWMA and amortises the
//     migration cost over the escalating horizon min(stable windows,
//     kAmortiseMax), so modest but persistent savings migrate
//     long-stable objects;
//   * objects whose desired member differs from their active one raise
//     wantsHandoff(); the epoch server begins a §4 HandoffPass at the
//     next epoch boundary, and the pass routes each object to its
//     snapshot member's copy set. The server charges Steiner(old ∪ new)
//     exactly once per pass per object (nothing when the sets already
//     coincide) and resetCopySet commits the switch — migration
//     accounting rides the existing handoff seam unchanged.
//
// Spec grammar (shared `name:key=value` parser):
//   adaptive:members=<spec>+<spec>[+<spec>...],window=<epochs>
// Member specs are online-policy specs themselves (composed registries);
// because the outer option list splits on commas first, an embedded
// member spec cannot carry commas — single-option member specs like
// `tree-counters:threshold=4` or `static:placement=extended-nibble`
// work, `adaptive` itself cannot be nested. Defaults:
// members=tree-counters+full-replication, window=1.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "hbn/dynamic/online_policy.h"

namespace hbn::dynamic {

/// Routes every object to the cheapest of several member policies,
/// re-scored online each window and hot-swapped at epoch boundaries
/// through the §4 handoff seam. See the file comment for the contract.
class AdaptivePolicy final : public OnlinePolicy {
 public:
  /// Hysteresis: a challenger switches an object only when its window
  /// cost is strictly below kSwitchNum/kSwitchDen of the active
  /// member's (ties and near-ties keep the incumbent, so stationary
  /// scores never oscillate).
  static constexpr core::Count kSwitchNum = 3;
  static constexpr core::Count kSwitchDen = 4;
  /// A switch must recoup its one-time migration cost (the Steiner
  /// charge of old ∪ new copy set) within an amortisation horizon of
  /// min(stable windows, kAmortiseMax) windows of the observed saving.
  /// The horizon ESCALATES with stability: an object that just switched
  /// must recoup within one window (blocking noise-driven flip-backs),
  /// while a long-stable object may amortise over up to kAmortiseMax
  /// windows (so modest but persistent savings still migrate it).
  static constexpr core::Count kAmortiseMax = 8;
  /// Member scores are the member's shadow window TOTAL load in
  /// 1/kScoreScale fixed-point units — integer EWMA on small raw
  /// values would quantise to zero.
  static constexpr core::Count kScoreScale = 16;
  /// `members` in spec order (>= 2, <= 255; member 0 is every object's
  /// initial assignment); `window` >= 1 touched epochs per scoring
  /// window.
  AdaptivePolicy(const net::RootedTree& rooted, int numObjects,
                 std::vector<std::unique_ptr<OnlinePolicy>> members,
                 int window);

  [[nodiscard]] std::string_view name() const override { return "adaptive"; }
  [[nodiscard]] std::string spec() const override;

  ShardStats serveShard(ObjectId x, std::span<const Request> requests,
                        core::LoadMap& loads, ServeScratch& scratch,
                        core::FlatLoadAccumulator* acc) override;

  [[nodiscard]] std::vector<net::NodeId> copySet(ObjectId x) const override;
  [[nodiscard]] const core::FlatTreeView& flatView() const noexcept override {
    return flat_;
  }

  [[nodiscard]] bool migratable() const noexcept override { return true; }
  [[nodiscard]] bool wantsHandoff() const override;

  [[nodiscard]] std::unique_ptr<HandoffPass> beginHandoff(
      std::shared_ptr<const workload::Workload> aggregated,
      int workers) override;
  void resetCopySet(ObjectId x,
                    std::span<const net::NodeId> locations) override;

  /// policy.adaptive.{members,window,handoffs,switches} plus, per
  /// member i (spec order), policy.adaptive.member<i>.objects (objects
  /// currently routed to it), .share (its fraction of the charged
  /// serving load) and the member's own metrics re-keyed under
  /// policy.adaptive.member<i>.*.
  [[nodiscard]] std::map<std::string, double> metrics() const override;

  /// Serializes the full meta-state — routes, all four score matrices,
  /// pending flags, pass counters — plus every member policy's state
  /// recursively. Requires quiescence (every object has applied every
  /// begun pass, so the routing snapshots are dead); throws
  /// std::logic_error otherwise.
  void serializeState(std::ostream& os) const override;
  void restoreState(std::istream& in) override;

 private:
  class RoutePass;

  /// Per-object routing state; disjoint across objects, so serveShard
  /// and resetCopySet keep the concurrent-shards contract.
  struct Route {
    std::uint8_t active = 0;   ///< member currently serving the caller
    std::uint8_t desired = 0;  ///< scored-best member, post-hysteresis
    std::uint8_t stable = 0;   ///< decided windows since the last switch
                               ///< (saturates at kAmortiseMax)
    std::uint8_t seeded = 0;   ///< smoothedCost_ row holds a real score
    std::uint32_t touches = 0;  ///< touched epochs since the last decision
    std::uint32_t switches = 0;
    core::Count reads = 0;
    core::Count writes = 0;
  };

  /// One-time migration cost of routing x from its active member to
  /// `to`: the Steiner charge of the union of both copy sets — exactly
  /// what the server's handoff pass will charge.
  [[nodiscard]] core::Count switchCost(ObjectId x, std::size_t to) const;

  void decide(ObjectId x);

  core::FlatTreeView flat_;
  int edgeCount_;
  int numObjects_;
  int window_;
  std::vector<std::unique_ptr<OnlinePolicy>> members_;
  std::vector<Route> routes_;
  std::vector<core::Count> windowCost_;   ///< numObjects × members
  /// numObjects × members: slow EWMA of windowCost_ (decay 3/4 per
  /// window, seeded with the first window; the active member's sample
  /// is winsorised) — the slow switching path reads this, so one noisy
  /// window never flips an object by itself.
  std::vector<core::Count> smoothedCost_;
  /// numObjects × members: the previous window's raw cost — the fast
  /// switching path reads the two-window rolling sum prev + current.
  std::vector<core::Count> prevRaw_;
  std::vector<core::Count> chargedCost_;  ///< numObjects × members, lifetime
  std::vector<char> pending_;             ///< desired != active flags
  /// Routing snapshots, one per beginHandoff, in pass-creation order;
  /// resetCopySet consumes them per object through appliedSeq_ so
  /// chained passes commit the member each pass was CREATED against
  /// (barrier and pipelined application then stay bit-identical).
  /// snapshots_[k] belongs to pass number snapshotBase_ + k: a restored
  /// policy starts with an empty vector but a nonzero pass count, so
  /// the base keeps absolute pass numbers indexable.
  std::vector<std::vector<std::uint8_t>> snapshots_;
  std::uint64_t snapshotBase_ = 0;
  std::vector<std::uint64_t> appliedSeq_;  ///< per object: passes applied
  std::uint64_t passesBegun_ = 0;
  std::uint64_t handoffs_ = 0;
};

namespace detail {
/// Registers the `adaptive` policy; called from registerBuiltinPolicies.
void registerAdaptivePolicy(OnlinePolicyRegistry& registry);
}  // namespace detail

}  // namespace hbn::dynamic
