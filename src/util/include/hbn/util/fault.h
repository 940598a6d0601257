// Deterministic, spec-driven fault injection.
//
// A FaultInjector holds a set of armed fault points parsed from a
// compact spec grammar and is threaded through the serving pipeline
// (the shard-serving worker pool and the §4 handoff seam).
// Injection is compiled in always — the hooks cost one relaxed atomic
// load when no fault of that kind is armed — so the exact binary that
// runs in production is the one the fault-recovery tests exercise.
//
// Spec grammar (see docs/robustness.md):
//
//   spec    := kind '@' 'epoch' N ( ':' option )*
//   kind    := 'shard-throw' | 'handoff-fail'
//   option  := 'shard' M          (shard-throw: only worker M, default any)
//            | 'times=' K         (trigger count before the fault
//                                  disarms, default 1)
//
// Examples: "shard-throw@epoch5:shard2",
// "handoff-fail@epoch4:times=2". Several specs combine via repeated
// --inject flags or a comma-separated list.
//
// Determinism: a fault fires on exact (kind, epoch, shard) matches and
// decrements its trigger budget under a mutex, so a given spec set
// yields the same fault schedule on every run — which is what lets the
// recovery tests demand bit-identical digests after a kill + restore.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace hbn::util {

/// Injection-point kinds, one per pipeline seam.
enum class FaultKind : unsigned {
  ShardThrow = 0,   ///< throw from a serve worker inside an epoch
  HandoffFail = 1,  ///< fail the handoff-pass publication
};

[[nodiscard]] const char* faultKindName(FaultKind kind) noexcept;

/// One armed fault point.
struct FaultSpec {
  FaultKind kind = FaultKind::ShardThrow;
  std::uint64_t epoch = 0;  ///< epoch index the fault arms at
  int shard = -1;           ///< shard-throw: worker index, -1 = any
  int times = 1;            ///< triggers before the fault disarms
};

/// Parses one spec; throws std::invalid_argument with the offending
/// text on any grammar violation.
[[nodiscard]] FaultSpec parseFaultSpec(std::string_view text);

/// A set of armed fault points, queried from the pipeline's injection
/// hooks. Thread-safe: hooks run on the serve thread and every
/// worker. The no-fault fast path is one relaxed atomic load, so
/// leaving hooks compiled in costs nothing.
class FaultInjector {
 public:
  FaultInjector() = default;

  /// Arms one parsed spec.
  void add(const FaultSpec& spec);
  /// Parses and arms a comma-separated spec list.
  void addSpecs(std::string_view specs);

  [[nodiscard]] bool empty() const;

  /// Consumes one trigger of `kind` matching (epoch, shard); true when
  /// a fault fired. `shard` is ignored for non-sharded kinds.
  [[nodiscard]] bool fire(FaultKind kind, std::uint64_t epoch, int shard);

  /// Total faults fired so far.
  [[nodiscard]] std::uint64_t triggered() const;

  /// Renders the still-armed specs (diagnostics).
  [[nodiscard]] std::string describe() const;

 private:
  [[nodiscard]] bool armedFast(FaultKind kind) const noexcept {
    return (armedKinds_.load(std::memory_order_relaxed) &
            (1u << static_cast<unsigned>(kind))) != 0;
  }
  void refreshArmedMask();

  mutable std::mutex mutex_;
  std::vector<FaultSpec> specs_;  ///< times counts down; 0 = disarmed
  std::uint64_t triggered_ = 0;
  /// Bitmask of kinds with at least one armed spec — the lock-free
  /// fast path the per-object serve hook reads.
  std::atomic<unsigned> armedKinds_{0};
};

/// Builds an injector from a comma-separated spec list; nullptr for an
/// empty list (so serving surfaces can skip hooks entirely).
[[nodiscard]] std::shared_ptr<FaultInjector> makeFaultInjector(
    std::string_view specs);

}  // namespace hbn::util
