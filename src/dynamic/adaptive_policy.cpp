#include "hbn/dynamic/adaptive_policy.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "hbn/net/steiner.h"

namespace hbn::dynamic {
namespace {

// tree-counters is the safe generalist, full-replication the read-heavy
// specialist. owner-only is deliberately NOT a default member: it wins
// no stream family outright (tree-counters contracts to one copy under
// writes anyway) and near-cold objects flip to it on window noise.
constexpr const char* kDefaultMembers = "tree-counters+full-replication";

void checkObject(ObjectId x, int numObjects, const char* where) {
  if (x < 0 || x >= numObjects) {
    throw std::out_of_range(std::string("adaptive ") + where + ": object id");
  }
}

}  // namespace

/// The pass of a routing handoff: object x migrates to the copy set of
/// the member the snapshot routed it to. Member copy sets only mutate
/// when x is served or reset, and the server applies a pass to x before
/// x's next serve — so reading the member lazily here returns the same
/// locations an eager materialisation at trigger time would have
/// (per-row stability), at per-touch cost. The owning policy outlives
/// every pass the server holds.
class AdaptivePolicy::RoutePass final : public HandoffPass {
 public:
  RoutePass(AdaptivePolicy& owner, std::size_t seq)
      : owner_(&owner), seq_(seq) {}

  [[nodiscard]] std::vector<net::NodeId> target(ObjectId x,
                                                int /*worker*/) override {
    checkObject(x, owner_->numObjects_, "RoutePass::target");
    const std::uint8_t member = owner_->snapshots_[seq_][static_cast<std::size_t>(x)];
    return owner_->members_[member]->copySet(x);
  }

 private:
  AdaptivePolicy* owner_;
  std::size_t seq_;
};

AdaptivePolicy::AdaptivePolicy(
    const net::RootedTree& rooted, int numObjects,
    std::vector<std::unique_ptr<OnlinePolicy>> members, int window)
    : flat_(rooted),
      edgeCount_(rooted.tree().edgeCount()),
      numObjects_(numObjects),
      window_(window),
      members_(std::move(members)) {
  if (numObjects < 1) {
    throw std::invalid_argument("adaptive: numObjects >= 1");
  }
  if (members_.size() < 2) {
    throw std::invalid_argument(
        "adaptive: needs at least two member policies");
  }
  if (members_.size() > 255) {
    throw std::invalid_argument("adaptive: at most 255 member policies");
  }
  if (window_ < 1) {
    throw std::invalid_argument("adaptive: window >= 1");
  }
  const auto objects = static_cast<std::size_t>(numObjects);
  routes_.assign(objects, Route{});
  windowCost_.assign(objects * members_.size(), 0);
  smoothedCost_.assign(objects * members_.size(), 0);
  prevRaw_.assign(objects * members_.size(), 0);
  chargedCost_.assign(objects * members_.size(), 0);
  pending_.assign(objects, 0);
  appliedSeq_.assign(objects, 0);
}

std::string AdaptivePolicy::spec() const {
  std::string out = "adaptive:members=";
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (i != 0) out += '+';
    out += members_[i]->spec();
  }
  out += ",window=";
  out += std::to_string(window_);
  return out;
}

ShardStats AdaptivePolicy::serveShard(ObjectId x,
                                      std::span<const Request> requests,
                                      core::LoadMap& loads,
                                      ServeScratch& scratch,
                                      core::FlatLoadAccumulator* /*acc*/) {
  checkObject(x, numObjects_, "serveShard");
  if (scratch.shadowLoads.edgeLoads().size() !=
      static_cast<std::size_t>(edgeCount_)) {
    scratch.shadowLoads = core::LoadMap(edgeCount_);
  }
  Route& route = routes_[static_cast<std::size_t>(x)];
  const std::size_t m = members_.size();
  const std::size_t base = static_cast<std::size_t>(x) * m;
  ShardStats out{};
  // Shadow-serve every member so each one's internal state (counters,
  // copy sets) and window score evolve from the object's full request
  // sequence, independent of which member is active — the invariant
  // that makes switching a pure copy-set migration. Only the active
  // member's charges reach the caller's LoadMap and ShardStats.
  for (std::size_t i = 0; i < m; ++i) {
    scratch.shadowLoads.clear();
    const ShardStats stats = members_[i]->serveShard(
        x, requests, scratch.shadowLoads, scratch, nullptr);
    windowCost_[base + i] +=
        scratch.shadowLoads.totalLoad() * kScoreScale;
    if (i == route.active) {
      out = stats;
      chargedCost_[base + i] += scratch.shadowLoads.totalLoad();
      const std::span<const core::Count> edges =
          scratch.shadowLoads.edgeLoads();
      for (net::EdgeId e = 0; e < edgeCount_; ++e) {
        const core::Count load = edges[static_cast<std::size_t>(e)];
        if (load != 0) loads.addEdgeLoad(e, load);
      }
    }
  }
  for (const Request& request : requests) {
    if (request.isWrite) {
      ++route.writes;
    } else {
      ++route.reads;
    }
  }
  if (++route.touches >= static_cast<std::uint32_t>(window_)) decide(x);
  return out;
}

core::Count AdaptivePolicy::switchCost(ObjectId x, std::size_t to) const {
  const Route& route = routes_[static_cast<std::size_t>(x)];
  std::vector<net::NodeId> terminals = members_[route.active]->copySet(x);
  const std::vector<net::NodeId> target = members_[to]->copySet(x);
  terminals.insert(terminals.end(), target.begin(), target.end());
  std::sort(terminals.begin(), terminals.end());
  terminals.erase(std::unique(terminals.begin(), terminals.end()),
                  terminals.end());
  // The pass loads every edge of Steiner(old ∪ new) once — its total
  // load is the tree's edge count, in the same units (and fixed-point
  // scale) as the member scores, so the gate compares like with like.
  return static_cast<core::Count>(
             net::steinerEdges(flat_.rooted(), terminals).size()) *
         kScoreScale;
}

void AdaptivePolicy::decide(ObjectId x) {
  Route& route = routes_[static_cast<std::size_t>(x)];
  const std::size_t m = members_.size();
  core::Count* raw = &windowCost_[static_cast<std::size_t>(x) * m];
  core::Count* slow = &smoothedCost_[static_cast<std::size_t>(x) * m];
  // Slow EWMA (decay 3/4, seeded with the first window): integrates
  // ~4 windows, so a single noisy window (one write burst against a
  // replicated object) barely moves it.
  for (std::size_t i = 0; i < m; ++i) {
    const core::Count sample =
        i == route.active ? std::min(raw[i], 2 * slow[i] + kScoreScale)
                          : raw[i];
    slow[i] = route.seeded ? (3 * slow[i] + sample) / 4 : raw[i];
  }
  route.seeded = 1;
  if (route.stable < kAmortiseMax) ++route.stable;
  route.desired = route.active;
  // Two switching paths, both gated on the one-time migration cost —
  // Steiner(old copy set ∪ new copy set), the exact charge the
  // server's handoff pass will make. Both are deterministic in x's own
  // history, so the decision stays thread-count independent.
  //  * FAST path, rolling two-window raw scores: a regime change or a
  //    hot object's first windows show a LARGE saving — more than
  //    twice the migration cost across two consecutive windows — and
  //    must not wait for the EWMA to catch up (a stale-high EWMA from
  //    the previous regime takes ~10 windows to decay). Window noise
  //    (a write burst against a replicated object costs ~one
  //    broadcast per write) stays below the 2× bar even across two
  //    windows.
  //  * SLOW path, smoothed scores: a modest but persistent saving
  //    amortises the migration cost over the escalating horizon
  //    min(stable windows, kAmortiseMax) — a fresh switch must prove
  //    itself against a strict bar, a long-stable object may move on
  //    thin margins. The slow EWMA ensures the margin really is
  //    persistent, not one window's noise.
  core::Count* prev = &prevRaw_[static_cast<std::size_t>(x) * m];
  std::size_t fastBest = 0;
  std::size_t slowBest = 0;
  for (std::size_t i = 0; i < m; ++i) {
    prev[i] += raw[i];  // prev now holds the two-window rolling sum
    if (prev[i] < prev[fastBest]) fastBest = i;
    if (slow[i] < slow[slowBest]) slowBest = i;
  }
  if (fastBest != route.active &&
      prev[fastBest] * kSwitchDen < prev[route.active] * kSwitchNum &&
      prev[route.active] - prev[fastBest] >
          2 * switchCost(x, fastBest)) {
    route.desired = static_cast<std::uint8_t>(fastBest);
  } else if (slowBest != route.active &&
             slow[slowBest] * kSwitchDen <
                 slow[route.active] * kSwitchNum &&
             (slow[route.active] - slow[slowBest]) *
                     static_cast<core::Count>(route.stable) >
                 switchCost(x, slowBest)) {
    route.desired = static_cast<std::uint8_t>(slowBest);
  }
  pending_[static_cast<std::size_t>(x)] =
      route.desired != route.active ? 1 : 0;
  std::copy(raw, raw + m, prev);  // keep this window for the next sum
  std::fill(raw, raw + m, 0);
  route.touches = 0;
}

std::vector<net::NodeId> AdaptivePolicy::copySet(ObjectId x) const {
  checkObject(x, numObjects_, "copySet");
  return members_[routes_[static_cast<std::size_t>(x)].active]->copySet(x);
}

bool AdaptivePolicy::wantsHandoff() const {
  return std::any_of(pending_.begin(), pending_.end(),
                     [](char flag) { return flag != 0; });
}

std::unique_ptr<HandoffPass> AdaptivePolicy::beginHandoff(
    std::shared_ptr<const workload::Workload> /*aggregated*/,
    int /*workers*/) {
  ++handoffs_;
  // Snapshot the routing decision per object and clear the request
  // flags: this pass commits exactly these routes, and wantsHandoff
  // only re-fires if a later decision diverges again. Serve thread,
  // workers quiescent — see the epoch server's beginPass.
  std::vector<std::uint8_t> snapshot(static_cast<std::size_t>(numObjects_));
  for (ObjectId x = 0; x < numObjects_; ++x) {
    snapshot[static_cast<std::size_t>(x)] =
        routes_[static_cast<std::size_t>(x)].desired;
    pending_[static_cast<std::size_t>(x)] = 0;
  }
  snapshots_.push_back(std::move(snapshot));
  ++passesBegun_;
  return std::make_unique<RoutePass>(*this, snapshots_.size() - 1);
}

void AdaptivePolicy::resetCopySet(ObjectId x,
                                  std::span<const net::NodeId> locations) {
  checkObject(x, numObjects_, "resetCopySet");
  Route& route = routes_[static_cast<std::size_t>(x)];
  std::uint64_t& seq = appliedSeq_[static_cast<std::size_t>(x)];
  if (seq >= passesBegun_) {
    throw std::logic_error(
        "adaptive: resetCopySet with no handoff pass pending for the "
        "object (re-placement goes through beginHandoff)");
  }
  // Applying pass #seq (creation order): commit the member that pass
  // snapshotted, NOT the current desired — chained pending passes then
  // apply identically whether drained at the trigger (barrier) or on
  // later touches (pipelined).
  const std::uint8_t member =
      snapshots_[static_cast<std::size_t>(seq - snapshotBase_)]
                [static_cast<std::size_t>(x)];
  ++seq;
  const std::vector<net::NodeId> expected = members_[member]->copySet(x);
  if (expected.size() != locations.size() ||
      !std::equal(expected.begin(), expected.end(), locations.begin())) {
    throw std::invalid_argument(
        "adaptive: resetCopySet locations do not match the routed "
        "member's copy set (the §4 seam must hand back the pass target "
        "unchanged)");
  }
  if (member != route.active) {
    route.active = member;
    route.stable = 0;  // restart the amortisation escalation
    ++route.switches;
  }
  pending_[static_cast<std::size_t>(x)] =
      route.desired != route.active ? 1 : 0;
}

void AdaptivePolicy::serializeState(std::ostream& os) const {
  // Quiescence: every begun pass has been applied to every object (the
  // epoch server drains before checkpointing), so the routing snapshots
  // are dead and only the pass COUNT needs to survive.
  for (const std::uint64_t seq : appliedSeq_) {
    if (seq != passesBegun_) {
      throw std::logic_error(
          "adaptive: serializeState requires a quiescent policy (an "
          "in-flight handoff pass has not been applied everywhere)");
    }
  }
  const std::size_t m = members_.size();
  os << "adaptive v1 " << m << ' ' << window_ << ' ' << passesBegun_ << ' '
     << handoffs_ << '\n';
  for (std::size_t i = 0; i < m; ++i) {
    os << "member " << i << '\n';
    members_[i]->serializeState(os);
  }
  os << "routes\n";
  for (std::size_t x = 0; x < routes_.size(); ++x) {
    const Route& r = routes_[x];
    os << x << ' ' << static_cast<unsigned>(r.active) << ' '
       << static_cast<unsigned>(r.desired) << ' '
       << static_cast<unsigned>(r.stable) << ' '
       << static_cast<unsigned>(r.seeded) << ' ' << r.touches << ' '
       << r.switches << ' ' << r.reads << ' ' << r.writes << ' '
       << static_cast<unsigned>(pending_[x]) << '\n';
  }
  os << "costs\n";
  for (std::size_t x = 0; x < routes_.size(); ++x) {
    os << x;
    const std::size_t base = x * m;
    for (std::size_t i = 0; i < m; ++i) os << ' ' << windowCost_[base + i];
    for (std::size_t i = 0; i < m; ++i) os << ' ' << smoothedCost_[base + i];
    for (std::size_t i = 0; i < m; ++i) os << ' ' << prevRaw_[base + i];
    for (std::size_t i = 0; i < m; ++i) os << ' ' << chargedCost_[base + i];
    os << '\n';
  }
}

void AdaptivePolicy::restoreState(std::istream& in) {
  const auto fail = [](const std::string& why) {
    throw std::invalid_argument("adaptive state: " + why);
  };
  std::string tag;
  std::string version;
  std::size_t m = 0;
  int window = 0;
  if (!(in >> tag >> version >> m >> window >> passesBegun_ >> handoffs_) ||
      tag != "adaptive" || version != "v1") {
    fail("bad header");
  }
  if (m != members_.size() || window != window_) {
    fail("member count or window does not match this configuration");
  }
  for (std::size_t i = 0; i < m; ++i) {
    std::size_t index = 0;
    if (!(in >> tag >> index) || tag != "member" || index != i) {
      fail("bad member header");
    }
    members_[i]->restoreState(in);
  }
  if (!(in >> tag) || tag != "routes") fail("missing routes section");
  for (std::size_t x = 0; x < routes_.size(); ++x) {
    std::size_t id = 0;
    unsigned active = 0, desired = 0, stable = 0, seeded = 0, pending = 0;
    Route r;
    if (!(in >> id >> active >> desired >> stable >> seeded >> r.touches >>
          r.switches >> r.reads >> r.writes >> pending) ||
        id != x) {
      fail("bad route line");
    }
    if (active >= m || desired >= m || stable > kAmortiseMax || seeded > 1 ||
        pending > 1) {
      fail("route fields out of range");
    }
    r.active = static_cast<std::uint8_t>(active);
    r.desired = static_cast<std::uint8_t>(desired);
    r.stable = static_cast<std::uint8_t>(stable);
    r.seeded = static_cast<std::uint8_t>(seeded);
    routes_[x] = r;
    pending_[x] = static_cast<char>(pending);
  }
  if (!(in >> tag) || tag != "costs") fail("missing costs section");
  for (std::size_t x = 0; x < routes_.size(); ++x) {
    std::size_t id = 0;
    if (!(in >> id) || id != x) fail("bad cost line");
    const std::size_t base = x * m;
    for (std::size_t i = 0; i < m; ++i) {
      if (!(in >> windowCost_[base + i])) fail("bad window cost");
    }
    for (std::size_t i = 0; i < m; ++i) {
      if (!(in >> smoothedCost_[base + i])) fail("bad smoothed cost");
    }
    for (std::size_t i = 0; i < m; ++i) {
      if (!(in >> prevRaw_[base + i])) fail("bad previous-window cost");
    }
    for (std::size_t i = 0; i < m; ++i) {
      if (!(in >> chargedCost_[base + i])) fail("bad charged cost");
    }
  }
  // The serialized point was quiescent: all passes applied, snapshots
  // dead. Future passes index snapshots_ relative to the restored base.
  snapshots_.clear();
  snapshotBase_ = passesBegun_;
  std::fill(appliedSeq_.begin(), appliedSeq_.end(), passesBegun_);
}

std::map<std::string, double> AdaptivePolicy::metrics() const {
  std::map<std::string, double> out;
  const std::size_t m = members_.size();
  out["policy.adaptive.members"] = static_cast<double>(m);
  out["policy.adaptive.window"] = static_cast<double>(window_);
  out["policy.adaptive.handoffs"] = static_cast<double>(handoffs_);
  std::uint64_t switches = 0;
  std::vector<std::int64_t> objectsOn(m, 0);
  for (const Route& route : routes_) {
    switches += route.switches;
    ++objectsOn[route.active];
  }
  out["policy.adaptive.switches"] = static_cast<double>(switches);
  std::vector<core::Count> charged(m, 0);
  core::Count total = 0;
  for (std::size_t x = 0; x < routes_.size(); ++x) {
    for (std::size_t i = 0; i < m; ++i) {
      charged[i] += chargedCost_[x * m + i];
      total += chargedCost_[x * m + i];
    }
  }
  for (std::size_t i = 0; i < m; ++i) {
    const std::string prefix =
        "policy.adaptive.member" + std::to_string(i);
    out[prefix + ".objects"] = static_cast<double>(objectsOn[i]);
    out[prefix + ".share"] =
        total > 0 ? static_cast<double>(charged[i]) /
                        static_cast<double>(total)
                  : 0.0;
    // Re-key the member's own diagnostics under its slot, so one JSON
    // report carries the whole composition ("policy.threshold" →
    // "policy.adaptive.member0.threshold").
    for (const auto& [key, value] : members_[i]->metrics()) {
      constexpr std::string_view kPolicyPrefix = "policy.";
      std::string_view suffix = key;
      if (suffix.substr(0, kPolicyPrefix.size()) == kPolicyPrefix) {
        suffix.remove_prefix(kPolicyPrefix.size());
      }
      out[prefix + "." + std::string(suffix)] = value;
    }
  }
  return out;
}

namespace {

/// Factory: member factories are resolved at spec-parse time (a typo
/// fails at the CLI), fresh member instances are built per server.
class AdaptivePolicyFactory final : public OnlinePolicyFactory {
 public:
  AdaptivePolicyFactory(
      std::vector<std::shared_ptr<const OnlinePolicyFactory>> members,
      int window)
      : members_(std::move(members)), window_(window) {}

  [[nodiscard]] std::unique_ptr<OnlinePolicy> build(
      const net::RootedTree& rooted, int numObjects,
      net::NodeId initialLocation) const override {
    std::vector<std::unique_ptr<OnlinePolicy>> built;
    built.reserve(members_.size());
    for (const auto& factory : members_) {
      built.push_back(factory->build(rooted, numObjects, initialLocation));
    }
    return std::make_unique<AdaptivePolicy>(rooted, numObjects,
                                            std::move(built), window_);
  }

 private:
  std::vector<std::shared_ptr<const OnlinePolicyFactory>> members_;
  int window_;
};

std::vector<std::string> splitMembers(const std::string& membersSpec) {
  std::vector<std::string> specs;
  std::size_t pos = 0;
  while (pos <= membersSpec.size()) {
    std::size_t plus = membersSpec.find('+', pos);
    if (plus == std::string::npos) plus = membersSpec.size();
    const std::string item = membersSpec.substr(pos, plus - pos);
    if (item.empty()) {
      throw std::invalid_argument(
          "adaptive: empty member spec in members='" + membersSpec +
          "' (use members=<spec>+<spec>, e.g. members=" +
          std::string(kDefaultMembers) + ")");
    }
    specs.push_back(item);
    pos = plus + 1;
  }
  return specs;
}

}  // namespace

namespace detail {

void registerAdaptivePolicy(OnlinePolicyRegistry& registry) {
  registry.add(
      {"adaptive",
       "per-object meta-policy: shadow-scores every member policy per "
       "shard and routes each object to the cheapest, hot-swapping at "
       "epoch boundaries through the handoff seam",
       "members=SPEC+SPEC+...,window=N"},
      [](engine::StrategyOptions& options) {
        const std::string membersSpec =
            options.getString("members", kDefaultMembers);
        const std::int64_t window = options.getInt("window", 1);
        if (window < 1 || window > 1'000'000) {
          throw std::invalid_argument(
              "adaptive: window=" + std::to_string(window) +
              " out of range (touched epochs per scoring window, >= 1)");
        }
        const std::vector<std::string> memberSpecs =
            splitMembers(membersSpec);
        if (memberSpecs.size() < 2) {
          throw std::invalid_argument(
              "adaptive: needs at least two member policies to route "
              "between, got members='" + membersSpec + "'");
        }
        std::vector<std::shared_ptr<const OnlinePolicyFactory>> members;
        members.reserve(memberSpecs.size());
        for (const std::string& spec : memberSpecs) {
          if (engine::splitSpec(spec).name == "adaptive") {
            throw std::invalid_argument(
                "adaptive: members cannot nest adaptive (list the leaf "
                "policies of the composition instead)");
          }
          members.push_back(OnlinePolicyRegistry::global().create(spec));
        }
        return std::make_unique<AdaptivePolicyFactory>(
            std::move(members), static_cast<int>(window));
      },
      {"meta"});
}

}  // namespace detail
}  // namespace hbn::dynamic
