// Conformance suite for the OnlinePolicy contract: every registered
// policy spec (default form plus option-ful variants of the composed
// grammar) is property-checked against the promises the interface
// documents —
//   * a slow, obvious serving loop (epoch chunks, ascending-object
//     shards, §4 handoff passes applied the barrier way) reproduces the
//     EpochServer's edge loads and copy sets bit-for-bit;
//   * serving is bit-identical across thread counts AND across the
//     barrier/pipelined engines, drift passes included;
//   * a handoff pass reads only the queried object's row at target()
//     time, the one row the server keeps stable;
//   * the handoff seam behaves: beginHandoff targets agree with the
//     reference placement strategy (nibble for tree-counters, the
//     nested spec for static), resetCopySet commits and is idempotent,
//     and non-migratable policies refuse the seam loudly;
//   * spec() rendering is a fixed point of the registry's parser.
// A new policy registered tomorrow is picked up automatically and must
// hold every property or fail here by name.
#include <algorithm>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "hbn/dynamic/harness.h"
#include "hbn/dynamic/online_policy.h"
#include "hbn/engine/strategy.h"
#include "hbn/net/generators.h"
#include "hbn/net/steiner.h"
#include "hbn/serve/epoch_server.h"
#include "hbn/serve/request_stream.h"
#include "hbn/workload/generators.h"

namespace hbn::dynamic {
namespace {

using core::Count;
using core::LoadMap;

constexpr int kObjects = 64;
constexpr std::size_t kEpochSize = 1 << 10;

/// Every registered policy in its default form, plus option-ful
/// variants that exercise the composed spec grammar (nested strategy
/// specs, `+`-joined adaptive members). Registry-driven on purpose: a
/// newly registered policy joins the conformance suite without edits.
std::vector<std::string> conformanceSpecs() {
  std::vector<std::string> specs = OnlinePolicyRegistry::global().names();
  std::sort(specs.begin(), specs.end());
  specs.push_back("tree-counters:threshold=3,contract=0");
  specs.push_back("static:placement=extended-nibble");
  specs.push_back("adaptive:members=tree-counters+owner-only,window=3");
  return specs;
}

std::vector<workload::RequestEvent> makeEvents(const net::Tree& tree,
                                               std::uint64_t seed,
                                               std::uint64_t total) {
  workload::StreamParams params;
  params.numObjects = kObjects;
  params.readFraction = 0.9;
  const auto stream =
      serve::makeGeneratedStream("skewed", tree, params, seed, total);
  std::vector<workload::RequestEvent> events(total);
  EXPECT_EQ(stream->fill(events), total);
  return events;
}

std::unique_ptr<OnlinePolicy> buildPolicy(const std::string& spec,
                                          const net::RootedTree& rooted) {
  return OnlinePolicyRegistry::global().create(spec)->build(
      rooted, kObjects, rooted.tree().processors().front());
}

/// The slow oracle: serve epoch-sized chunks shard-by-shard in
/// ascending object order, then poll wantsHandoff and apply the pass
/// to every object the barrier way — charging Steiner(old ∪ new) once
/// per actually-moved object, exactly the EpochServer contract.
struct OracleResult {
  LoadMap loads{1};
  std::vector<std::vector<net::NodeId>> copySets;
};

OracleResult serveOracle(OnlinePolicy& policy, const net::RootedTree& rooted,
                         std::span<const workload::RequestEvent> events) {
  const net::Tree& tree = rooted.tree();
  OracleResult result;
  result.loads = LoadMap(tree.edgeCount());
  ServeScratch scratch;
  workload::Workload aggregated(kObjects, tree.nodeCount());
  const std::shared_ptr<const workload::Workload> snapshot(
      std::shared_ptr<const workload::Workload>(), &aggregated);
  std::vector<std::size_t> offsets;
  std::vector<Request> bucketed;
  for (std::size_t begin = 0; begin < events.size(); begin += kEpochSize) {
    const std::size_t end = std::min(begin + kEpochSize, events.size());
    std::vector<Request> epoch;
    epoch.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      epoch.push_back(Request{events[i].object, events[i].origin,
                              events[i].isWrite});
    }
    offsets.assign(static_cast<std::size_t>(kObjects) + 1, 0);
    bucketed.resize(epoch.size());
    bucketRequestsByObject(epoch, kObjects, offsets, bucketed);
    for (ObjectId x = 0; x < kObjects; ++x) {
      const std::size_t lo = offsets[static_cast<std::size_t>(x)];
      const std::size_t hi = offsets[static_cast<std::size_t>(x) + 1];
      if (lo == hi) continue;
      (void)policy.serveShard(
          x, std::span<const Request>(bucketed.data() + lo, hi - lo),
          result.loads, scratch, nullptr);
    }
    for (const Request& request : epoch) {
      if (request.isWrite) {
        aggregated.addWrites(request.object, request.origin, 1);
      } else {
        aggregated.addReads(request.object, request.origin, 1);
      }
    }
    if (policy.migratable() && policy.wantsHandoff()) {
      const auto pass = policy.beginHandoff(snapshot, 1);
      for (ObjectId x = 0; x < kObjects; ++x) {
        const std::vector<net::NodeId> target = pass->target(x, 0);
        std::vector<net::NodeId> terminals = policy.copySet(x);
        if (terminals.size() == target.size() &&
            std::equal(terminals.begin(), terminals.end(),
                       target.begin())) {
          policy.resetCopySet(x, target);
          continue;
        }
        terminals.insert(terminals.end(), target.begin(), target.end());
        std::sort(terminals.begin(), terminals.end());
        terminals.erase(
            std::unique(terminals.begin(), terminals.end()),
            terminals.end());
        for (const net::EdgeId e : net::steinerEdges(rooted, terminals)) {
          result.loads.addEdgeLoad(e, 1);
        }
        policy.resetCopySet(x, target);
      }
    }
  }
  for (ObjectId x = 0; x < kObjects; ++x) {
    result.copySets.push_back(policy.copySet(x));
  }
  return result;
}

// ---------------------------------------------------------------------------
// Property 1: the EpochServer (single thread, barrier engine, drift
// disabled so only policy-requested passes fire) is bit-identical to
// the slow oracle loop, for every registered policy.
// ---------------------------------------------------------------------------
TEST(PolicyConformance, EpochServerMatchesOracleLoop) {
  const net::Tree tree = net::makeClusterNetwork(3, 4);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  const auto events = makeEvents(tree, 41, 12'000);
  for (const std::string& spec : conformanceSpecs()) {
    SCOPED_TRACE(spec);
    const auto policy = buildPolicy(spec, rooted);
    const OracleResult oracle = serveOracle(*policy, rooted, events);

    serve::ServeOptions options;
    options.epochSize = kEpochSize;
    options.threads = 1;
    options.pipeline = false;
    options.replaceDrift = 0;  // only wantsHandoff passes fire
    options.policy = spec;
    serve::EpochServer server(rooted, kObjects, options);
    serve::VectorStream stream({events.begin(), events.end()});
    const serve::ServeReport report = server.serve(stream);
    EXPECT_EQ(report.totalRequests, events.size());

    const std::span<const Count> served = server.loads().edgeLoads();
    for (net::EdgeId e = 0; e < tree.edgeCount(); ++e) {
      ASSERT_EQ(served[static_cast<std::size_t>(e)],
                oracle.loads.edgeLoad(e))
          << "edge " << e;
    }
    for (ObjectId x = 0; x < kObjects; ++x) {
      ASSERT_EQ(server.copySet(x),
                oracle.copySets[static_cast<std::size_t>(x)])
          << "object " << x;
    }
  }
}

// ---------------------------------------------------------------------------
// Property 2: serving is bit-identical across thread counts and across
// the barrier/pipelined engines, with the drift trigger enabled so
// handoff passes (server- and policy-initiated) are in play.
// ---------------------------------------------------------------------------
TEST(PolicyConformance, BitIdenticalAcrossThreadsAndEngines) {
  const net::Tree tree = net::makeClusterNetwork(3, 4);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  const auto events = makeEvents(tree, 43, 20'000);
  for (const std::string& spec : conformanceSpecs()) {
    SCOPED_TRACE(spec);
    const auto digest = [&](int threads, bool pipeline) {
      serve::ServeOptions options;
      options.epochSize = kEpochSize;
      options.threads = threads;
      options.pipeline = pipeline;
      options.replaceDrift = 1.2;
      options.policy = spec;
      serve::EpochServer server(rooted, kObjects, options);
      serve::VectorStream stream({events.begin(), events.end()});
      const serve::ServeReport report = server.serve(stream);
      std::ostringstream oss;
      oss.precision(17);
      oss << report.congestion << '|' << report.replacements;
      for (const Count load : server.loads().edgeLoads()) {
        oss << ',' << load;
      }
      for (ObjectId x = 0; x < kObjects; ++x) {
        oss << ';';
        for (const net::NodeId v : server.copySet(x)) oss << v << ' ';
      }
      return oss.str();
    };
    const std::string reference = digest(1, /*pipeline=*/false);
    EXPECT_EQ(reference, digest(3, /*pipeline=*/false));
    EXPECT_EQ(reference, digest(1, /*pipeline=*/true));
    EXPECT_EQ(reference, digest(3, /*pipeline=*/true));
  }
}

/// The frequency matrix of `events`, as the server aggregates it.
std::shared_ptr<workload::Workload> aggregate(
    const net::Tree& tree, std::span<const workload::RequestEvent> events) {
  auto aggregated =
      std::make_shared<workload::Workload>(kObjects, tree.nodeCount());
  for (const workload::RequestEvent& event : events) {
    if (event.isWrite) {
      aggregated->addWrites(event.object, event.origin, 1);
    } else {
      aggregated->addReads(event.object, event.origin, 1);
    }
  }
  return aggregated;
}

/// The registered placement strategy a policy's handoff targets must
/// reproduce on the trigger-time matrix: nibble for the counter scheme
/// (its §4 target), the nested spec for `static`. Empty for adaptive,
/// whose targets are its members' copy sets.
std::string referenceStrategy(const OnlinePolicy& policy) {
  if (policy.name() == "tree-counters") return "nibble";
  if (policy.name() == "static") {
    const std::string spec = policy.spec();
    const std::string prefix = "static:placement=";
    return spec.rfind(prefix, 0) == 0 ? spec.substr(prefix.size())
                                      : "extended-nibble";
  }
  return {};
}

// ---------------------------------------------------------------------------
// Property 3: a handoff pass reads only row x at target(x) time. The
// server guarantees no more: once x has migrated it serves, and its row
// takes new traffic while later objects still ask for their targets.
// Traffic added to row x right after target(x) must therefore leave
// every target equal to a pass's on an untouched copy of the matrix.
// ---------------------------------------------------------------------------
TEST(PolicyConformance, HandoffPassReadsOnlyTheQueriedRow) {
  const net::Tree tree = net::makeClusterNetwork(3, 4);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  const auto events = makeEvents(tree, 53, 8'000);
  const auto procs = tree.processors();
  for (const std::string& spec : conformanceSpecs()) {
    SCOPED_TRACE(spec);
    const auto policy = buildPolicy(spec, rooted);
    if (!policy->migratable()) continue;
    (void)serveOracle(*policy, rooted, events);
    const auto live = aggregate(tree, events);
    const auto untouched = std::make_shared<const workload::Workload>(*live);
    const auto pass = policy->beginHandoff(live, 1);
    const auto reference = policy->beginHandoff(untouched, 1);
    for (ObjectId x = 0; x < kObjects; ++x) {
      const std::vector<net::NodeId> target = pass->target(x, 0);
      // Heavy traffic from a far processor: enough to move any
      // placement that read this row afterwards.
      live->addReads(x, procs.back(), 1000);
      live->addWrites(x, procs[procs.size() / 2], 100);
      EXPECT_EQ(target, reference->target(x, 0)) << "object " << x;
    }
  }
}

// ---------------------------------------------------------------------------
// Property 4: the handoff seam. Migratable policies route every object
// to their reference strategy's placement of the trigger-time matrix
// (when they have one), resetCopySet commits the target, and a second
// pass on the same matrix is a fixed point; adaptive refuses a
// resetCopySet no pass asked for. Non-migratable policies refuse the
// seam with logic_error (the server never calls it).
// ---------------------------------------------------------------------------
TEST(PolicyConformance, HandoffSeamCommitsAndIsIdempotent) {
  const net::Tree tree = net::makeClusterNetwork(3, 4);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  const auto events = makeEvents(tree, 47, 8'000);
  for (const std::string& spec : conformanceSpecs()) {
    SCOPED_TRACE(spec);
    const auto policy = buildPolicy(spec, rooted);
    // Warm the policy so counters/windows hold real state.
    (void)serveOracle(*policy, rooted, events);
    const auto procs = tree.processors();
    const std::shared_ptr<const workload::Workload> snapshot =
        aggregate(tree, events);
    if (!policy->migratable()) {
      const std::vector<net::NodeId> anywhere = {procs.front()};
      EXPECT_THROW(policy->resetCopySet(0, anywhere), std::logic_error);
      EXPECT_THROW((void)policy->beginHandoff(snapshot, 1),
                   std::logic_error);
      continue;
    }
    const std::string strategy = referenceStrategy(*policy);
    core::Placement placement;
    if (!strategy.empty()) {
      engine::Context ctx;
      placement = engine::StrategyRegistry::global().create(strategy)->place(
          tree, *snapshot, ctx);
      ASSERT_EQ(placement.numObjects(), kObjects);
    }
    std::vector<std::vector<net::NodeId>> targets;
    const auto pass = policy->beginHandoff(snapshot, 1);
    for (ObjectId x = 0; x < kObjects; ++x) {
      const std::vector<net::NodeId> target = pass->target(x, 0);
      ASSERT_FALSE(target.empty()) << "object " << x;
      if (!strategy.empty()) {
        EXPECT_EQ(target,
                  placement.objects[static_cast<std::size_t>(x)].locations())
            << "object " << x;
      }
      policy->resetCopySet(x, target);
      EXPECT_EQ(policy->copySet(x), target) << "object " << x;
      targets.push_back(target);
    }
    // A second pass over the same matrix re-targets every object where
    // it already is, and committing it changes nothing.
    const auto again = policy->beginHandoff(snapshot, 1);
    for (ObjectId x = 0; x < kObjects; ++x) {
      const std::vector<net::NodeId> target = again->target(x, 0);
      EXPECT_EQ(target, targets[static_cast<std::size_t>(x)])
          << "object " << x;
      policy->resetCopySet(x, target);
      EXPECT_EQ(policy->copySet(x), target) << "object " << x;
    }
    if (policy->name() == "adaptive") {
      EXPECT_THROW(policy->resetCopySet(0, policy->copySet(0)),
                   std::logic_error);
    }
  }
}

// ---------------------------------------------------------------------------
// Property 5: spec() rendering is a fixed point of the registry parser
// — create(p->spec())->spec() == p->spec(), so specs survive a
// serialize → parse → serialize round trip (report files, CLI echoes).
// ---------------------------------------------------------------------------
TEST(PolicyConformance, SpecRenderingIsAParseFixedPoint) {
  const net::Tree tree = net::makeClusterNetwork(3, 4);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  for (const std::string& spec : conformanceSpecs()) {
    SCOPED_TRACE(spec);
    const auto policy = buildPolicy(spec, rooted);
    const std::string rendered = policy->spec();
    const auto reparsed = buildPolicy(rendered, rooted);
    EXPECT_EQ(reparsed->spec(), rendered);
    EXPECT_EQ(reparsed->name(), policy->name());
  }
}

// ---------------------------------------------------------------------------
// Property 6: the composed spec grammar fails loudly and precisely.
// Malformed specs — duplicate keys, empty member lists, nested
// adaptive, unknown names/options, out-of-range values — must throw
// invalid_argument (or out_of_range for numeric bounds) with a message
// that names the offending piece, and must never produce a policy.
// ---------------------------------------------------------------------------
TEST(PolicyConformance, MalformedSpecsThrowActionableErrors) {
  const auto expectInvalid = [](const std::string& spec,
                                const std::string& needle) {
    try {
      (void)OnlinePolicyRegistry::global().create(spec);
      FAIL() << "spec '" << spec << "' should not parse";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "spec '" << spec << "' threw '" << e.what()
          << "' which does not mention '" << needle << "'";
    }
  };
  // Duplicate option keys are an error, not last-wins.
  expectInvalid("adaptive:window=2,window=3", "duplicate");
  expectInvalid("tree-counters:threshold=2,threshold=4", "duplicate");
  // Member lists must name at least two non-empty member specs.
  expectInvalid("adaptive:members=tree-counters", "two member");
  expectInvalid("adaptive:members=tree-counters+", "empty member");
  expectInvalid("adaptive:members=+owner-only", "empty member");
  expectInvalid("adaptive:members=tree-counters++owner-only",
                "empty member");
  // adaptive cannot nest itself.
  expectInvalid("adaptive:members=adaptive+owner-only", "nest");
  // Unknown policy names list the alternatives; unknown option keys
  // name the policy; unknown member specs surface the inner error.
  expectInvalid("no-such-policy", "unknown policy");
  expectInvalid("adaptive:members=tree-counters+no-such-policy",
                "unknown policy");
  expectInvalid("adaptive:turbo=1", "turbo");
  expectInvalid("full-replication:copies=3", "copies");
  // Numeric bounds.
  expectInvalid("adaptive:window=0", "window");
  expectInvalid("adaptive:window=-5", "window");
}

TEST(PolicyConformance, FuzzedSpecsNeverCrashTheParser) {
  // Deterministic mutation fuzz over the grammar's alphabet: every
  // outcome must be a parsed factory or one of the two documented
  // exception types — nothing else escapes, nothing aborts.
  const std::vector<std::string> seeds = conformanceSpecs();
  const std::string alphabet = ":=,+x0";
  std::uint64_t state = 0x9E3779B97F4A7C15ULL;
  const auto nextRand = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  int parsed = 0;
  int rejected = 0;
  for (const std::string& seed : seeds) {
    for (int round = 0; round < 200; ++round) {
      std::string spec = seed;
      const int edits = 1 + static_cast<int>(nextRand() % 3);
      for (int i = 0; i < edits; ++i) {
        const std::size_t at = nextRand() % (spec.size() + 1);
        const char c = alphabet[nextRand() % alphabet.size()];
        switch (nextRand() % 3) {
          case 0:
            spec.insert(spec.begin() + static_cast<std::ptrdiff_t>(at), c);
            break;
          case 1:
            if (!spec.empty()) {
              spec.erase(spec.begin() +
                         static_cast<std::ptrdiff_t>(at % spec.size()));
            }
            break;
          default:
            if (!spec.empty()) {
              spec[at % spec.size()] = c;
            }
            break;
        }
      }
      try {
        (void)OnlinePolicyRegistry::global().create(spec);
        ++parsed;
      } catch (const std::invalid_argument&) {
        ++rejected;
      } catch (const std::out_of_range&) {
        ++rejected;
      }
      // Any other exception type (or a crash) fails the test.
    }
  }
  // The fuzz must actually exercise both outcomes.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace hbn::dynamic
