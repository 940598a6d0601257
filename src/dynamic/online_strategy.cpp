#include "hbn/dynamic/online_strategy.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "hbn/core/nibble.h"

namespace hbn::dynamic {
namespace {

/// tree-counters pass: one O(|V|) nibbleObjectInto per queried object —
/// exactly the per-object kernel the registered "nibble" strategy runs
/// under its parallel executor, reading only row x, so lazy targets are
/// bit-identical to the nibble placement of the trigger-time matrix at
/// per-touch (not per-handoff) cost.
class NibbleHandoffPass final : public HandoffPass {
 public:
  NibbleHandoffPass(const net::Tree& tree,
                    std::shared_ptr<const workload::Workload> aggregated,
                    int workers)
      : tree_(&tree),
        aggregated_(std::move(aggregated)),
        slots_(static_cast<std::size_t>(std::max(workers, 1))) {}

  [[nodiscard]] std::vector<net::NodeId> target(ObjectId x,
                                                int worker) override {
    if (worker < 0 || static_cast<std::size_t>(worker) >= slots_.size()) {
      throw std::out_of_range("HandoffPass::target: worker slot");
    }
    WorkerSlot& slot = slots_[static_cast<std::size_t>(worker)];
    core::nibbleObjectInto(*tree_, *aggregated_, x, slot.scratch,
                           slot.result);
    return slot.result.placement.locations();
  }

 private:
  struct WorkerSlot {
    core::NibbleScratch scratch;
    core::NibbleObjectResult result;
  };

  const net::Tree* tree_;
  std::shared_ptr<const workload::Workload> aggregated_;
  std::vector<WorkerSlot> slots_;
};

}  // namespace

OnlineTreeStrategy::OnlineTreeStrategy(const net::RootedTree& rooted,
                                       int numObjects,
                                       net::NodeId initialLocation,
                                       const OnlineOptions& options)
    : rooted_(&rooted),
      flat_(rooted),
      options_(options) {
  if (numObjects < 1) {
    throw std::invalid_argument("OnlineTreeStrategy: numObjects >= 1");
  }
  if (options.replicationThreshold < 1) {
    throw std::invalid_argument(
        "OnlineTreeStrategy: replicationThreshold >= 1");
  }
  const auto n = static_cast<std::size_t>(rooted.tree().nodeCount());
  const auto e = static_cast<std::size_t>(rooted.tree().edgeCount());
  if (initialLocation < 0 ||
      initialLocation >= rooted.tree().nodeCount()) {
    throw std::out_of_range("OnlineTreeStrategy: initial location");
  }
  objects_.resize(static_cast<std::size_t>(numObjects));
  for (auto& state : objects_) {
    state.hasCopy.assign(n, 0);
    state.readCounter.assign(e, 0);
    state.hasCopy[static_cast<std::size_t>(initialLocation)] = 1;
    state.locations.assign(1, initialLocation);
    state.anchor = initialLocation;
    state.copyCount = 1;
  }
}

net::NodeId OnlineTreeStrategy::entryPoint(const ObjectState& state,
                                           net::NodeId v,
                                           ServeScratch& scratch) const {
  // The copy set is a connected subtree, so its gate (unique nearest copy
  // node to v) lies on every path from v into the set — in particular on
  // the v→anchor path. Walk that path in order and return the first copy
  // node: O(path length), where the old BFS paid the whole ball around v.
  if (state.hasCopy[static_cast<std::size_t>(v)]) return v;
  net::NodeId a = v;
  net::NodeId b = state.anchor;
  const core::FlatTreeView::NodeStep* sa = &flat_.step(a);
  const core::FlatTreeView::NodeStep* sb = &flat_.step(b);
  scratch.descent.clear();
  while (sa->depth > sb->depth) {
    a = sa->parent;
    sa = &flat_.step(a);
    if (state.hasCopy[static_cast<std::size_t>(a)]) return a;
  }
  while (sb->depth > sa->depth) {
    scratch.descent.push_back(b);
    b = sb->parent;
    sb = &flat_.step(b);
  }
  while (a != b) {
    a = sa->parent;
    sa = &flat_.step(a);
    if (state.hasCopy[static_cast<std::size_t>(a)]) return a;
    scratch.descent.push_back(b);
    b = sb->parent;
    sb = &flat_.step(b);
  }
  for (auto it = scratch.descent.rbegin(); it != scratch.descent.rend();
       ++it) {
    if (state.hasCopy[static_cast<std::size_t>(*it)]) return *it;
  }
  throw std::logic_error("entryPoint: copy set empty");
}

void OnlineTreeStrategy::serveOne(ObjectState& state, const Request& request,
                                  core::LoadMap& loads, ShardStats& stats,
                                  ServeScratch& scratch,
                                  core::FlatLoadAccumulator* acc) const {
  const net::NodeId origin = request.origin;

  if (!request.isWrite) {
    if (state.hasCopy[static_cast<std::size_t>(origin)]) {
      return;  // local read: free, no counters move
    }
    // One fused walk finds the entry point AND charges the service path:
    // the copy subtree's gate is the first copy node on the origin→anchor
    // path, so walking that path in order — charging each crossed edge
    // and stopping at the first copy — touches exactly the origin→entry
    // edges. No LCA query, no separate entry-point pre-walk, no node
    // list: a two-pointer depth-equalising ascent with the origin-side
    // nodes kept for the cascade and the anchor side collected for the
    // in-order descent scan.
    // An edge re-entered after a cascade reset is pushed again, so the
    // list may hold duplicates; they are bounded by the replication
    // count (≤ n-1 per object between contractions, which clear the
    // list), and contraction's zeroing is idempotent.
    const auto bump = [&](net::EdgeId edge) {
      loads.addEdgeLoad(edge, 1);
      if (state.readCounter[static_cast<std::size_t>(edge)] == 0) {
        state.countedEdges.push_back(edge);
      }
      ++state.readCounter[static_cast<std::size_t>(edge)];
    };
    // Extends the copy set across `edge` into `to` if the threshold
    // fired; false ends the cascade.
    const auto cascade = [&](net::NodeId to, net::EdgeId edge) {
      if (state.hasCopy[static_cast<std::size_t>(to)]) return true;
      if (state.readCounter[static_cast<std::size_t>(edge)] <
          options_.replicationThreshold) {
        return false;
      }
      // Replicate across: one object migration message.
      loads.addEdgeLoad(edge, 1);
      state.hasCopy[static_cast<std::size_t>(to)] = 1;
      state.locations.push_back(to);
      ++state.copyCount;
      ++stats.replications;
      state.readCounter[static_cast<std::size_t>(edge)] = 0;
      return true;
    };

    scratch.upPath.clear();    // origin-side nodes below the entry/lca
    scratch.descent.clear();   // anchor-side nodes, anchor first
    net::NodeId u = origin;
    net::NodeId b = state.anchor;
    const core::FlatTreeView::NodeStep* su = &flat_.step(u);
    const core::FlatTreeView::NodeStep* sb = &flat_.step(b);
    net::NodeId entry = net::kInvalidNode;
    while (su->depth > sb->depth) {
      bump(su->parentEdge);
      scratch.upPath.push_back(u);
      u = su->parent;
      su = &flat_.step(u);
      if (state.hasCopy[static_cast<std::size_t>(u)]) {
        entry = u;
        break;
      }
    }
    if (entry == net::kInvalidNode) {
      while (sb->depth > su->depth) {
        scratch.descent.push_back(b);
        b = sb->parent;
        sb = &flat_.step(b);
      }
      while (u != b) {
        bump(su->parentEdge);
        scratch.upPath.push_back(u);
        u = su->parent;
        su = &flat_.step(u);
        if (state.hasCopy[static_cast<std::size_t>(u)]) {
          entry = u;
          break;
        }
        scratch.descent.push_back(b);
        b = sb->parent;
        sb = &flat_.step(b);
      }
    }
    if (entry == net::kInvalidNode) {
      // No copy through the lca (== u): continue down toward the anchor,
      // in path order; the anchor itself holds a copy, so this finds the
      // entry. Then cascade back up entry→lca via parent pointers.
      const net::NodeId meet = u;
      for (std::size_t j = scratch.descent.size(); j-- > 0;) {
        const net::NodeId x = scratch.descent[j];
        bump(flat_.step(x).parentEdge);
        if (state.hasCopy[static_cast<std::size_t>(x)]) {
          entry = x;
          break;
        }
      }
      if (entry == net::kInvalidNode) {
        throw std::logic_error("serveOne: copy set empty");
      }
      net::NodeId from = entry;
      while (from != meet) {
        const core::FlatTreeView::NodeStep& sf = flat_.step(from);
        if (!cascade(sf.parent, sf.parentEdge)) return;
        from = sf.parent;
      }
    }
    // Descend the origin side from just below the entry/lca back to the
    // reader, extending the copy set while the thresholds hold.
    for (auto it = scratch.upPath.rbegin(); it != scratch.upPath.rend();
         ++it) {
      if (!cascade(*it, flat_.step(*it).parentEdge)) return;
    }
    return;
  }

  const net::NodeId entry = entryPoint(state, origin, scratch);

  // WRITE: origin→entry path plus broadcast over the copy subtree. No
  // counters move, so the path charge needs no walk at all when batched.
  if (origin != entry) {
    if (acc) {
      acc->chargePath(origin, entry, 1);
    } else {
      const net::NodeId a = flat_.lca(origin, entry);
      for (net::NodeId x = origin; x != a; x = rooted_->parent(x)) {
        loads.addEdgeLoad(rooted_->parentEdge(x), 1);
      }
      for (net::NodeId x = entry; x != a; x = rooted_->parent(x)) {
        loads.addEdgeLoad(rooted_->parentEdge(x), 1);
      }
    }
  }
  if (state.copyCount > 1) {
    // The copy set is a connected subtree (class invariant), so its
    // Steiner tree is the set itself: exactly the parent edges of copies
    // whose parent also holds a copy — O(|copies|), no counting passes,
    // where the seed engine ran an O(n) location scan plus a
    // vector-allocating steinerEdges call per write.
    for (const net::NodeId v : state.locations) {
      const net::NodeId p = rooted_->parent(v);
      if (p != net::kInvalidNode &&
          state.hasCopy[static_cast<std::size_t>(p)]) {
        loads.addEdgeLoad(rooted_->parentEdge(v), 1);
      }
    }
    if (options_.contractOnWrite) {
      // Invalidate every replica except the writer-side entry copy.
      for (const net::NodeId v : state.locations) {
        if (v != entry) {
          state.hasCopy[static_cast<std::size_t>(v)] = 0;
          ++stats.invalidations;
        }
      }
      state.locations.assign(1, entry);
      state.anchor = entry;
      state.copyCount = 1;
      for (const net::EdgeId e : state.countedEdges) {
        state.readCounter[static_cast<std::size_t>(e)] = 0;
      }
      state.countedEdges.clear();
    }
  }
}

ShardStats OnlineTreeStrategy::serveShard(ObjectId x,
                                          std::span<const Request> requests,
                                          core::LoadMap& loads,
                                          ServeScratch& scratch,
                                          core::FlatLoadAccumulator* acc) {
  if (x < 0 || x >= static_cast<ObjectId>(objects_.size())) {
    throw std::out_of_range("serveShard: object id");
  }
  // Adaptive cutover: a tiny shard's flush bookkeeping outweighs the few
  // per-edge walks it would save, so it stays on the legacy route.
  if (acc && requests.size() < core::kFlatLoadCutover) acc = nullptr;
  ObjectState& state = objects_[static_cast<std::size_t>(x)];
  ShardStats stats;
  for (const Request& request : requests) {
    if (request.object != x) {
      throw std::invalid_argument("serveShard: request targets wrong object");
    }
    serveOne(state, request, loads, stats, scratch, acc);
  }
  if (acc) acc->flush(loads);
  return stats;
}

std::string OnlineTreeStrategy::spec() const {
  const OnlineOptions defaults;
  std::string out = "tree-counters";
  char sep = ':';
  if (options_.replicationThreshold != defaults.replicationThreshold) {
    out += sep;
    sep = ',';
    out += "threshold=";
    out += std::to_string(options_.replicationThreshold);
  }
  if (options_.contractOnWrite != defaults.contractOnWrite) {
    out += sep;
    sep = ',';
    out += "contract=";
    out += options_.contractOnWrite ? '1' : '0';
  }
  return out;
}

std::unique_ptr<HandoffPass> OnlineTreeStrategy::beginHandoff(
    std::shared_ptr<const workload::Workload> aggregated, int workers) {
  ++handoffs_;
  return std::make_unique<NibbleHandoffPass>(rooted_->tree(),
                                             std::move(aggregated), workers);
}

std::map<std::string, double> OnlineTreeStrategy::metrics() const {
  return {{"policy.threshold",
           static_cast<double>(options_.replicationThreshold)},
          {"policy.contractOnWrite", options_.contractOnWrite ? 1.0 : 0.0},
          {"policy.handoffs", static_cast<double>(handoffs_)}};
}

void OnlineTreeStrategy::resetCopySet(ObjectId x,
                                      std::span<const net::NodeId> locations) {
  if (x < 0 || x >= static_cast<ObjectId>(objects_.size())) {
    throw std::out_of_range("resetCopySet: object id");
  }
  if (locations.empty()) {
    throw std::invalid_argument("resetCopySet: empty copy set");
  }
  ObjectState& state = objects_[static_cast<std::size_t>(x)];
  for (const net::NodeId v : state.locations) {
    state.hasCopy[static_cast<std::size_t>(v)] = 0;
  }
  state.locations.clear();
  state.copyCount = 0;
  for (const net::NodeId v : locations) {
    if (v < 0 || v >= rooted_->tree().nodeCount()) {
      throw std::out_of_range("resetCopySet: location");
    }
    if (!state.hasCopy[static_cast<std::size_t>(v)]) {
      state.hasCopy[static_cast<std::size_t>(v)] = 1;
      state.locations.push_back(v);
      ++state.copyCount;
    }
  }
  state.anchor = state.locations.front();
  for (const net::EdgeId e : state.countedEdges) {
    state.readCounter[static_cast<std::size_t>(e)] = 0;
  }
  state.countedEdges.clear();
}

void OnlineTreeStrategy::serializeState(std::ostream& os) const {
  // One line per object: locations in their incremental (insertion)
  // order so the restored vector is positionally identical, the anchor,
  // then the nonzero read counters as (edge, count) pairs. countedEdges
  // may hold duplicates and already-reset edges in a live strategy;
  // emitting the deduplicated nonzero set restores identical counter
  // VALUES, and contraction's zeroing is idempotent over either list.
  os << "tree-counters v1 " << handoffs_ << '\n';
  os << "objects " << objects_.size() << '\n';
  for (std::size_t x = 0; x < objects_.size(); ++x) {
    const ObjectState& state = objects_[x];
    os << x << ' ' << state.anchor << ' ' << state.locations.size();
    for (const net::NodeId v : state.locations) os << ' ' << v;
    std::size_t counted = 0;
    for (std::size_t e = 0; e < state.readCounter.size(); ++e) {
      if (state.readCounter[e] != 0) ++counted;
    }
    os << ' ' << counted;
    for (std::size_t e = 0; e < state.readCounter.size(); ++e) {
      if (state.readCounter[e] != 0) {
        os << ' ' << e << ' ' << state.readCounter[e];
      }
    }
    os << '\n';
  }
}

void OnlineTreeStrategy::restoreState(std::istream& in) {
  const auto fail = [](const std::string& why) {
    throw std::invalid_argument("tree-counters state: " + why);
  };
  std::string tag;
  std::string version;
  if (!(in >> tag >> version) || tag != "tree-counters" || version != "v1") {
    fail("expected 'tree-counters v1' header");
  }
  if (!(in >> handoffs_)) fail("bad handoff count");
  std::size_t count = 0;
  if (!(in >> tag >> count) || tag != "objects" || count != objects_.size()) {
    fail("bad objects header");
  }
  const int nodeCount = rooted_->tree().nodeCount();
  const int edgeCount = rooted_->tree().edgeCount();
  for (std::size_t i = 0; i < count; ++i) {
    std::size_t x = 0;
    net::NodeId anchor = net::kInvalidNode;
    std::size_t nLoc = 0;
    if (!(in >> x >> anchor >> nLoc) || x != i) fail("bad object line");
    if (nLoc < 1 || nLoc > static_cast<std::size_t>(nodeCount)) {
      fail("copy count out of range");
    }
    ObjectState& state = objects_[x];
    for (const net::NodeId v : state.locations) {
      state.hasCopy[static_cast<std::size_t>(v)] = 0;
    }
    state.locations.clear();
    for (std::size_t j = 0; j < nLoc; ++j) {
      net::NodeId v = net::kInvalidNode;
      if (!(in >> v) || v < 0 || v >= nodeCount) fail("location out of range");
      if (state.hasCopy[static_cast<std::size_t>(v)]) {
        fail("duplicate copy location");
      }
      state.hasCopy[static_cast<std::size_t>(v)] = 1;
      state.locations.push_back(v);
    }
    state.copyCount = static_cast<int>(nLoc);
    if (anchor < 0 || anchor >= nodeCount ||
        !state.hasCopy[static_cast<std::size_t>(anchor)]) {
      fail("anchor holds no copy");
    }
    state.anchor = anchor;
    for (const net::EdgeId e : state.countedEdges) {
      state.readCounter[static_cast<std::size_t>(e)] = 0;
    }
    state.countedEdges.clear();
    std::size_t counted = 0;
    if (!(in >> counted) || counted > static_cast<std::size_t>(edgeCount)) {
      fail("bad counter count");
    }
    for (std::size_t j = 0; j < counted; ++j) {
      net::EdgeId e = -1;
      Count value = 0;
      if (!(in >> e >> value) || e < 0 || e >= edgeCount || value < 1) {
        fail("bad counter entry");
      }
      if (state.readCounter[static_cast<std::size_t>(e)] != 0) {
        fail("duplicate counter edge");
      }
      state.readCounter[static_cast<std::size_t>(e)] = value;
      state.countedEdges.push_back(e);
    }
  }
}

std::vector<net::NodeId> OnlineTreeStrategy::copySet(ObjectId x) const {
  const ObjectState& state = objects_.at(static_cast<std::size_t>(x));
  std::vector<net::NodeId> locations(state.locations.begin(),
                                     state.locations.end());
  std::sort(locations.begin(), locations.end());
  return locations;
}

}  // namespace hbn::dynamic
