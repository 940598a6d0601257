// Deterministic fault injection and stage-attributed failures.
//
// Covers the spec grammar (positives and loud negatives), the injector's
// trigger-budget semantics, and the failure seams end to end: a failing
// §4 handoff publication surfaces as serve::Error{Handoff} at the drift
// epoch; a shard throw propagates as serve::Error{Serve} and — the
// teardown regression — leaves the server and its ingest thread
// destructible and the process healthy; a poisoned stream surfaces as
// serve::Error{Ingest} from both the single-process engine and the
// shard coordinator.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "hbn/net/generators.h"
#include "hbn/serve/epoch_server.h"
#include "hbn/serve/error.h"
#include "hbn/serve/request_stream.h"
#include "hbn/shard/coordinator.h"
#include "hbn/shard/process.h"
#include "hbn/util/fault.h"
#include "hbn/workload/generators.h"

namespace hbn::serve {
namespace {

using util::FaultInjector;
using util::FaultKind;
using util::FaultSpec;
using util::parseFaultSpec;
using workload::ObjectId;

constexpr int kObjects = 64;
constexpr std::size_t kEpochSize = 1 << 10;
constexpr std::uint64_t kRequests = 20'000;

// -------------------------------------------------------------------------
// Spec grammar.
// -------------------------------------------------------------------------

TEST(FaultSpecTest, ParsesEveryKindAndOption) {
  {
    const FaultSpec s = parseFaultSpec("shard-throw@epoch5:shard2");
    EXPECT_EQ(s.kind, FaultKind::ShardThrow);
    EXPECT_EQ(s.epoch, 5u);
    EXPECT_EQ(s.shard, 2);
    EXPECT_EQ(s.times, 1);
  }
  {
    const FaultSpec s = parseFaultSpec("handoff-fail@epoch4:times=2");
    EXPECT_EQ(s.kind, FaultKind::HandoffFail);
    EXPECT_EQ(s.epoch, 4u);
    EXPECT_EQ(s.times, 2);
  }
}

TEST(FaultSpecTest, RejectsGrammarViolations) {
  for (const char* bad : {
           "",                             // empty
           "explode@epoch1",               // unknown kind
           "ingest-stall@epoch3",          // unknown kind (retired)
           "shard-throw",                  // missing @epoch
           "shard-throw@epoch",            // missing epoch number
           "shard-throw@3",                // missing 'epoch' keyword
           "shard-throw@epoch2:bogus",     // unknown option
           "shard-throw@epoch2:ms=5",      // unknown option (retired)
           "handoff-fail@epoch2:shard1",   // shard only for shard-throw
           "handoff-fail@epoch2:times=0",  // times must be >= 1
       }) {
    EXPECT_THROW((void)parseFaultSpec(bad), std::invalid_argument) << bad;
  }
}

TEST(FaultInjectorTest, TriggerBudgetCountsDown) {
  FaultInjector injector;
  injector.addSpecs("shard-throw@epoch5:shard1:times=2,handoff-fail@epoch3");
  EXPECT_FALSE(injector.empty());
  // Wrong epoch / wrong shard: no fire.
  EXPECT_FALSE(injector.fire(FaultKind::ShardThrow, 4, 1));
  EXPECT_FALSE(injector.fire(FaultKind::ShardThrow, 5, 0));
  // Two triggers, then disarmed.
  EXPECT_TRUE(injector.fire(FaultKind::ShardThrow, 5, 1));
  EXPECT_TRUE(injector.fire(FaultKind::ShardThrow, 5, 1));
  EXPECT_FALSE(injector.fire(FaultKind::ShardThrow, 5, 1));
  EXPECT_TRUE(injector.fire(FaultKind::HandoffFail, 3, -1));
  EXPECT_EQ(injector.triggered(), 3u);

  EXPECT_EQ(util::makeFaultInjector(""), nullptr);
  EXPECT_NE(util::makeFaultInjector("handoff-fail@epoch1"), nullptr);
}

// -------------------------------------------------------------------------
// End-to-end seams.
// -------------------------------------------------------------------------

std::vector<workload::RequestEvent> makeEvents(const net::Tree& tree,
                                               std::uint64_t seed) {
  workload::StreamParams params;
  params.numObjects = kObjects;
  params.readFraction = 0.9;
  const auto stream =
      makeGeneratedStream("skewed", tree, params, seed, kRequests);
  std::vector<workload::RequestEvent> events(kRequests);
  EXPECT_EQ(stream->fill(events), kRequests);
  return events;
}

ServeOptions makeOptions(int threads, bool pipeline) {
  ServeOptions options;
  options.epochSize = kEpochSize;
  options.threads = threads;
  options.pipeline = pipeline;
  options.replaceDrift = 1.2;
  options.policy = "tree-counters";
  return options;
}

std::string digest(const EpochServer& server, const ServeReport& report) {
  std::ostringstream oss;
  oss.precision(17);
  oss << report.congestion << '|' << report.replacements << '|'
      << report.replications << '|' << report.invalidations;
  for (const core::Count load : server.loads().edgeLoads()) {
    oss << ',' << load;
  }
  for (ObjectId x = 0; x < kObjects; ++x) {
    oss << ';';
    for (const net::NodeId v : server.copySet(x)) oss << v << ' ';
  }
  return oss.str();
}

struct RunResult {
  std::string digest;
  ServeReport report;
  std::vector<EpochRecord> log;
};

RunResult run(const net::RootedTree& rooted,
              const std::vector<workload::RequestEvent>& events,
              const ServeOptions& options) {
  EpochServer server(rooted, kObjects, options);
  VectorStream stream({events.begin(), events.end()});
  RunResult result;
  result.report = server.serve(stream);
  result.digest = digest(server, result.report);
  result.log = server.epochLog();
  return result;
}

// A failing §4 handoff publication is not retried: beginHandoff is
// deterministic over the aggregated matrix, so the first failure at the
// drift epoch surfaces as serve::Error{Handoff} with its exit code, and
// the drift epoch itself is never logged.
TEST(FaultInjectionTest, HandoffFailureIsHandoffError) {
  const net::Tree tree = net::makeClusterNetwork(3, 4);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  const auto events = makeEvents(tree, 67);
  for (const bool pipeline : {false, true}) {
    SCOPED_TRACE(pipeline ? "pipelined" : "barrier");
    const RunResult reference = run(rooted, events, makeOptions(3, pipeline));
    // The injection must land on a real §4 pass: find the first epoch
    // the reference run re-placed at.
    std::uint64_t driftEpoch = 0;
    bool found = false;
    for (const EpochRecord& record : reference.log) {
      if (record.replaced) {
        driftEpoch = record.index;
        found = true;
        break;
      }
    }
    ASSERT_TRUE(found) << "reference run never triggered a handoff pass";

    ServeOptions options = makeOptions(3, pipeline);
    options.faults = util::makeFaultInjector(
        "handoff-fail@epoch" + std::to_string(driftEpoch));
    EpochServer server(rooted, kObjects, options);
    VectorStream stream({events.begin(), events.end()});
    try {
      (void)server.serve(stream);
      FAIL() << "injected handoff failure did not surface";
    } catch (const Error& e) {
      EXPECT_EQ(e.stage(), Stage::Handoff);
      EXPECT_EQ(e.epoch(), driftEpoch);
      EXPECT_EQ(e.exitCode(), 12);
    }
    EXPECT_EQ(options.faults->triggered(), 1u);
    EXPECT_EQ(server.epochLog().size(), driftEpoch);
  }
}

// The teardown regression (satellite of the robustness issue): a worker
// throw mid-epoch must propagate as serve::Error{Serve} and leave the
// server — including its double-buffered ingest thread — cleanly
// destructible, in both engines and with multiple workers.
TEST(FaultInjectionTest, ShardThrowPropagatesAndTearsDownCleanly) {
  const net::Tree tree = net::makeClusterNetwork(3, 4);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  const auto events = makeEvents(tree, 71);
  for (const bool pipeline : {false, true}) {
    for (const int threads : {1, 3}) {
      SCOPED_TRACE(std::string(pipeline ? "pipelined" : "barrier") +
                   " threads=" + std::to_string(threads));
      ServeOptions options = makeOptions(threads, pipeline);
      options.faults = util::makeFaultInjector("shard-throw@epoch1");
      {
        EpochServer server(rooted, kObjects, options);
        VectorStream stream({events.begin(), events.end()});
        try {
          (void)server.serve(stream);
          FAIL() << "injected shard throw did not surface";
        } catch (const Error& e) {
          EXPECT_EQ(e.stage(), Stage::Serve);
          EXPECT_EQ(e.epoch(), 1u);
          EXPECT_EQ(e.exitCode(), 11);
        }
      }  // server + ingest thread destruct here; a hang fails the test
    }
  }
  // The process is healthy afterwards: a clean run still works.
  const RunResult after = run(rooted, events, makeOptions(3, true));
  EXPECT_EQ(after.report.totalRequests, kRequests);
}

// Serving visits only an epoch's touched objects, so a worker can have
// no objects at all in an epoch. The shard-throw seam fires once per
// (epoch, worker) at chunk start, empty chunks included: a fault aimed
// at worker 3 must still fire in an epoch whose single touched object
// lands on another worker — and the lowest throwing worker's error is
// the one that surfaces.
TEST(FaultInjectionTest, ShardThrowReachesWorkersWithEmptyChunks) {
  const net::Tree tree = net::makeClusterNetwork(3, 4);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  std::vector<workload::RequestEvent> events(
      kEpochSize * 3,
      workload::RequestEvent{0, tree.processors().back(), false});
  for (std::size_t i = kEpochSize; i < 2 * kEpochSize; ++i) {
    events[i].object = 17;  // epoch 1 touches object 17 only
  }
  for (const bool pipeline : {false, true}) {
    for (const std::string& spec :
         {std::string("shard-throw@epoch1:shard3"),
          std::string("shard-throw@epoch1:shard2,shard-throw@epoch1:shard3")}) {
      SCOPED_TRACE(std::string(pipeline ? "pipelined " : "barrier ") + spec);
      ServeOptions options = makeOptions(4, pipeline);
      options.faults = util::makeFaultInjector(spec);
      EpochServer server(rooted, kObjects, options);
      VectorStream stream({events.begin(), events.end()});
      try {
        (void)server.serve(stream);
        FAIL() << "shard-throw aimed at an idle worker did not fire";
      } catch (const Error& e) {
        EXPECT_EQ(e.stage(), Stage::Serve);
        EXPECT_EQ(e.epoch(), 1u);
        const bool both = spec.find("shard2") != std::string::npos;
        EXPECT_NE(e.cause().find(both ? "worker 2" : "worker 3"),
                  std::string::npos)
            << e.cause();
      }
      EXPECT_EQ(server.epochLog().size(), 1u);
    }
  }
}

// A stream failure (out-of-range object) is attributed to the ingest
// stage in both engine modes and by the shard coordinator, not
// swallowed or left as a bare exception; the epochs before it are
// served and logged.
TEST(FaultInjectionTest, StreamFailureSurfacesAsIngestError) {
  const net::Tree tree = net::makeClusterNetwork(3, 4);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  std::vector<workload::RequestEvent> events(kEpochSize * 2,
                                             workload::RequestEvent{0, 0, false});
  events[kEpochSize + 5].object = kObjects + 40;  // poison epoch 1
  const auto expectIngestError = [](const Error& e) {
    EXPECT_EQ(e.stage(), Stage::Ingest);
    EXPECT_EQ(e.epoch(), 1u);
    EXPECT_EQ(e.exitCode(), 10);
    EXPECT_NE(e.cause().find("ingest"), std::string::npos) << e.cause();
    EXPECT_NE(e.cause().find("out of range"), std::string::npos)
        << e.cause();
  };
  for (const bool pipeline : {false, true}) {
    SCOPED_TRACE(pipeline ? "pipelined" : "barrier");
    {
      EpochServer server(rooted, kObjects, makeOptions(2, pipeline));
      VectorStream stream({events.begin(), events.end()});
      try {
        (void)server.serve(stream);
        FAIL() << "poisoned stream did not surface";
      } catch (const Error& e) {
        expectIngestError(e);
      }
      EXPECT_EQ(server.epochLog().size(), 1u);
    }
    {
      SCOPED_TRACE("2 loopback shard workers");
      shard::ShardOptions options;
      options.serve = makeOptions(1, pipeline);
      auto cluster = shard::makeLoopbackCluster(2);
      shard::ShardCoordinator coordinator(tree, kObjects, options,
                                          cluster->links(), "loopback");
      VectorStream stream({events.begin(), events.end()});
      try {
        (void)coordinator.serve(stream);
        FAIL() << "poisoned stream did not surface through the coordinator";
      } catch (const Error& e) {
        expectIngestError(e);
      }
      EXPECT_EQ(coordinator.epochLog().size(), 1u);
      cluster->kill();
    }
  }
}

}  // namespace
}  // namespace hbn::serve
