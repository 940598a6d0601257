#include "hbn/core/lower_bound.h"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "hbn/core/nibble.h"

namespace hbn::core {
namespace {

/// Subtree-sum scratch for the single-caller entry points (rebuild,
/// remove, add): one per calling thread, so the bound object itself
/// holds no mutable scratch.
thread_local std::vector<Count> callerScratch;

}  // namespace

LowerBound analyticLowerBound(const net::RootedTree& rooted,
                              const workload::Workload& load) {
  const net::Tree& tree = rooted.tree();
  LowerBound result{0.0, LoadMap(tree.edgeCount())};

  // For every object, accumulate subtree request sums bottom-up; the edge
  // above v separates h(T(v)) (= subtree side) from h_x - h(T(v)).
  const auto order = rooted.preorder();
  std::vector<Count> sub(static_cast<std::size_t>(tree.nodeCount()), 0);
  for (workload::ObjectId x = 0; x < load.numObjects(); ++x) {
    const Count hx = load.objectTotal(x);
    if (hx == 0) continue;
    const Count kappa = load.objectWrites(x);
    for (net::NodeId v = 0; v < tree.nodeCount(); ++v) {
      sub[static_cast<std::size_t>(v)] = load.total(x, v);
    }
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const net::NodeId v = *it;
      const net::NodeId p = rooted.parent(v);
      if (p != net::kInvalidNode) {
        sub[static_cast<std::size_t>(p)] += sub[static_cast<std::size_t>(v)];
      }
    }
    for (net::NodeId v = 0; v < tree.nodeCount(); ++v) {
      const net::NodeId p = rooted.parent(v);
      if (p == net::kInvalidNode) continue;
      const Count below = sub[static_cast<std::size_t>(v)];
      const Count above = hx - below;
      const Count minLoad = std::min({below, above, kappa});
      if (minLoad > 0) {
        result.edgeMinima.addEdgeLoad(rooted.parentEdge(v), minLoad);
      }
    }
  }
  result.congestion = result.edgeMinima.congestion(tree);
  return result;
}

IncrementalLowerBound::IncrementalLowerBound(const net::RootedTree& rooted)
    : rooted_(&rooted), minima_(rooted.tree().edgeCount()) {}

void IncrementalLowerBound::rebuild(const workload::Workload& load) {
  minima_.clear();
  for (workload::ObjectId x = 0; x < load.numObjects(); ++x) {
    accumulate(x, load, 1, callerScratch, minima_);
  }
}

void IncrementalLowerBound::remove(workload::ObjectId x,
                                   const workload::Workload& load) {
  accumulate(x, load, -1, callerScratch, minima_);
}

void IncrementalLowerBound::add(workload::ObjectId x,
                                const workload::Workload& load) {
  accumulate(x, load, 1, callerScratch, minima_);
}

void IncrementalLowerBound::merge(const LoadMap& delta) {
  const std::span<const Count> loads = delta.edgeLoads();
  for (std::size_t e = 0; e < loads.size(); ++e) {
    if (loads[e] != 0) {
      minima_.addEdgeLoad(static_cast<net::EdgeId>(e), loads[e]);
    }
  }
}

double IncrementalLowerBound::congestion() const {
  return minima_.congestion(rooted_->tree());
}

void IncrementalLowerBound::accumulate(workload::ObjectId x,
                                       const workload::Workload& load,
                                       Count sign, std::vector<Count>& subtree,
                                       LoadMap& delta) const {
  // Per-object body of analyticLowerBound, signed: identical subtree
  // sums, identical min() operands, so add-after-remove reproduces the
  // full recomputation bit for bit.
  const net::Tree& tree = rooted_->tree();
  const Count hx = load.objectTotal(x);
  if (hx == 0) return;
  const Count kappa = load.objectWrites(x);
  const std::span<const Count> reads = load.readRow(x);
  const std::span<const Count> writes = load.writeRow(x);
  if (reads.size() != static_cast<std::size_t>(tree.nodeCount())) {
    throw std::invalid_argument(
        "IncrementalLowerBound: workload node dimension mismatch");
  }
  subtree.resize(reads.size());
  for (std::size_t v = 0; v < reads.size(); ++v) {
    subtree[v] = reads[v] + writes[v];
  }
  const std::span<const net::NodeId> order = rooted_->preorder();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const net::NodeId v = *it;
    const net::NodeId p = rooted_->parent(v);
    if (p != net::kInvalidNode) {
      subtree[static_cast<std::size_t>(p)] +=
          subtree[static_cast<std::size_t>(v)];
    }
  }
  for (net::NodeId v = 0; v < tree.nodeCount(); ++v) {
    const net::NodeId p = rooted_->parent(v);
    if (p == net::kInvalidNode) continue;
    const Count below = subtree[static_cast<std::size_t>(v)];
    const Count above = hx - below;
    const Count minLoad = std::min({below, above, kappa});
    if (minLoad > 0) {
      delta.addEdgeLoad(rooted_->parentEdge(v), sign * minLoad);
    }
  }
}

double nibbleLowerBound(const net::Tree& tree,
                        const workload::Workload& load) {
  const net::RootedTree rooted(tree, tree.defaultRoot());
  return evaluateCongestion(rooted, nibblePlacement(tree, load));
}

double objectLowerBound(const net::Tree& tree,
                        const workload::Workload& load) {
  if (!tree.usesUnitLeafEdges()) return 0.0;
  Count best = 0;
  for (workload::ObjectId x = 0; x < load.numObjects(); ++x) {
    const Count hx = load.objectTotal(x);
    if (hx == 0) continue;
    Count maxLeaf = 0;
    for (const net::NodeId p : tree.processors()) {
      maxLeaf = std::max(maxLeaf, load.total(x, p));
    }
    best = std::max(best, std::min(load.objectWrites(x), hx - maxLeaf));
  }
  return static_cast<double>(best);
}

double combinedLowerBound(const net::RootedTree& rooted,
                          const workload::Workload& load) {
  return std::max(analyticLowerBound(rooted, load).congestion,
                  objectLowerBound(rooted.tree(), load));
}

}  // namespace hbn::core
