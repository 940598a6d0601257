// A test-only online policy that stands in for a policy bug: the
// tree-counters policy, except that its Nth serveShard call throws.
//
//   throwing:after=N,error=runtime|invalid-argument
//
// `after` counts serveShard calls on one policy instance (1-based);
// `error` picks the exception type — std::runtime_error (default) or
// std::invalid_argument, the type a real policy throws on a bad copy
// set. Call registerThrowingPolicy() once before building a server or a
// shard cluster with such a spec; it adds the policy to the global
// OnlinePolicyRegistry, which in-process (loopback) shard workers share.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "hbn/dynamic/online_policy.h"

namespace hbn::test {

class ThrowingPolicy final : public dynamic::OnlinePolicy {
 public:
  ThrowingPolicy(std::unique_ptr<dynamic::OnlinePolicy> inner,
                 std::int64_t after, bool invalidArgument)
      : inner_(std::move(inner)),
        after_(after),
        invalidArgument_(invalidArgument) {}

  [[nodiscard]] std::string_view name() const override { return "throwing"; }

  [[nodiscard]] std::string spec() const override {
    return "throwing:after=" + std::to_string(after_) +
           (invalidArgument_ ? ",error=invalid-argument" : "");
  }

  dynamic::ShardStats serveShard(workload::ObjectId x,
                                 std::span<const dynamic::Request> requests,
                                 core::LoadMap& loads,
                                 dynamic::ServeScratch& scratch,
                                 core::FlatLoadAccumulator* acc) override {
    if (calls_.fetch_add(1, std::memory_order_relaxed) + 1 == after_) {
      const std::string what = "throwing policy: serveShard call " +
                               std::to_string(after_) + " (object " +
                               std::to_string(x) + ")";
      if (invalidArgument_) throw std::invalid_argument(what);
      throw std::runtime_error(what);
    }
    return inner_->serveShard(x, requests, loads, scratch, acc);
  }

  [[nodiscard]] std::vector<net::NodeId> copySet(workload::ObjectId x) const override {
    return inner_->copySet(x);
  }
  [[nodiscard]] const core::FlatTreeView& flatView() const noexcept override {
    return inner_->flatView();
  }
  [[nodiscard]] bool migratable() const noexcept override {
    return inner_->migratable();
  }
  [[nodiscard]] bool wantsHandoff() const override {
    return inner_->wantsHandoff();
  }
  [[nodiscard]] std::unique_ptr<dynamic::HandoffPass> beginHandoff(
      std::shared_ptr<const workload::Workload> aggregated,
      int workers) override {
    return inner_->beginHandoff(std::move(aggregated), workers);
  }
  void resetCopySet(workload::ObjectId x,
                    std::span<const net::NodeId> locations) override {
    inner_->resetCopySet(x, locations);
  }
  void serializeState(std::ostream& os) const override {
    inner_->serializeState(os);
  }
  void restoreState(std::istream& in) override { inner_->restoreState(in); }

 private:
  std::unique_ptr<dynamic::OnlinePolicy> inner_;
  std::int64_t after_;
  bool invalidArgument_;
  std::atomic<std::int64_t> calls_{0};
};

inline void registerThrowingPolicy() {
  static const bool registered = [] {
    class Factory final : public dynamic::OnlinePolicyFactory {
     public:
      Factory(std::int64_t after, bool invalidArgument)
          : after_(after), invalidArgument_(invalidArgument) {}
      [[nodiscard]] std::unique_ptr<dynamic::OnlinePolicy> build(
          const net::RootedTree& rooted, int numObjects,
          net::NodeId initialLocation) const override {
        return std::make_unique<ThrowingPolicy>(
            dynamic::OnlinePolicyRegistry::global()
                .create("tree-counters")
                ->build(rooted, numObjects, initialLocation),
            after_, invalidArgument_);
      }

     private:
      std::int64_t after_;
      bool invalidArgument_;
    };
    dynamic::OnlinePolicyRegistry::global().add(
        {"throwing", "test only: tree-counters throwing on serveShard call N",
         "after=N,error=runtime|invalid-argument"},
        [](engine::StrategyOptions& options)
            -> std::unique_ptr<dynamic::OnlinePolicyFactory> {
          const std::int64_t after = options.getInt("after", 1);
          const std::string error = options.getString("error", "runtime");
          if (error != "runtime" && error != "invalid-argument") {
            throw std::invalid_argument("throwing: unknown error '" + error +
                                        "'");
          }
          return std::make_unique<Factory>(after,
                                           error == "invalid-argument");
        });
    return true;
  }();
  (void)registered;
}

}  // namespace hbn::test
