// Stage-attributed failures, each raised by the real code that raises
// it in production:
//   - a policy exception while serving (tests/throwing_policy.h, a
//     tree-counters wrapper throwing on its Nth serveShard) surfaces as
//     serve::Error{Serve} — whatever the exception type — in both
//     engines, at any thread count and through the shard coordinator,
//     and leaves the server and its ingest thread destructible;
//   - a §4 handoff that cannot be computed (exact placement over a
//     candidate space too large to enumerate) surfaces as
//     serve::Error{Handoff} at the drift epoch, without a retry;
//   - a poisoned stream surfaces as serve::Error{Ingest} from both the
//     single-process engine and the shard coordinator;
//   - a checkpoint directory that cannot be created surfaces as
//     serve::Error{Checkpoint} at the first checkpointed epoch.
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "hbn/net/generators.h"
#include "hbn/serve/epoch_server.h"
#include "hbn/serve/error.h"
#include "hbn/serve/request_stream.h"
#include "hbn/shard/coordinator.h"
#include "hbn/shard/process.h"
#include "hbn/workload/generators.h"
#include "throwing_policy.h"

namespace hbn::serve {
namespace {

using workload::ObjectId;

constexpr int kObjects = 64;
constexpr std::size_t kEpochSize = 1 << 10;
constexpr std::uint64_t kRequests = 20'000;

ServeOptions makeOptions(int threads, bool pipeline) {
  ServeOptions options;
  options.epochSize = kEpochSize;
  options.threads = threads;
  options.pipeline = pipeline;
  options.replaceDrift = 1.2;
  options.policy = "tree-counters";
  return options;
}

// -------------------------------------------------------------------------
// Serve stage: a policy exception inside an epoch.
// -------------------------------------------------------------------------

// Every epoch touches exactly kTouched objects, so the policy's Nth
// serveShard call lands in epoch (N - 1) / kTouched for any thread
// count or engine mode.
constexpr int kTouched = 8;
constexpr std::uint64_t kThrowEpoch = 3;
constexpr int kThrowCall = kThrowEpoch * kTouched + 5;

std::vector<workload::RequestEvent> roundRobinEvents(const net::Tree& tree) {
  const std::span<const net::NodeId> procs = tree.processors();
  std::vector<workload::RequestEvent> events(kEpochSize * 8);
  for (std::size_t i = 0; i < events.size(); ++i) {
    events[i].object = static_cast<ObjectId>(i % kTouched);
    events[i].origin = procs[(i / kTouched) % procs.size()];
    events[i].isWrite = i % 10 == 0;
  }
  return events;
}

// The fix this file pins: a non-Error exception escaping a worker used
// to leave EpochServer::serve as a bare std::exception, so hbn_serve
// exited 1 (or 2 for std::invalid_argument) instead of the serve
// stage's 11. The server — including its double-buffered ingest thread
// — must stay destructible after the failure.
TEST(FaultInjectionTest, PolicyExceptionIsServeErrorAndTearsDownCleanly) {
  test::registerThrowingPolicy();
  const net::Tree tree = net::makeClusterNetwork(3, 4);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  const auto events = roundRobinEvents(tree);
  for (const std::string error : {"runtime", "invalid-argument"}) {
    for (const bool pipeline : {false, true}) {
      for (const int threads : {1, 4}) {
        SCOPED_TRACE(error + (pipeline ? " pipelined" : " barrier") +
                     " threads=" + std::to_string(threads));
        ServeOptions options = makeOptions(threads, pipeline);
        options.policy = "throwing:after=" + std::to_string(kThrowCall) +
                         ",error=" + error;
        {
          EpochServer server(rooted, kObjects, options);
          VectorStream stream({events.begin(), events.end()});
          try {
            (void)server.serve(stream);
            FAIL() << "policy exception did not surface";
          } catch (const Error& e) {
            EXPECT_EQ(e.stage(), Stage::Serve);
            EXPECT_EQ(e.epoch(), kThrowEpoch);
            EXPECT_EQ(e.exitCode(), 11);
            EXPECT_NE(e.cause().find("serveShard call"), std::string::npos)
                << e.cause();
          } catch (const std::exception& e) {
            FAIL() << "unattributed exception: " << e.what();
          }
          EXPECT_EQ(server.epochLog().size(), kThrowEpoch);
        }  // server + ingest thread destruct here; a hang fails the test
      }
    }
  }
  // The process is healthy afterwards: a clean run still works.
  EpochServer server(rooted, kObjects, makeOptions(4, true));
  VectorStream stream({events.begin(), events.end()});
  EXPECT_EQ(server.serve(stream).totalRequests, events.size());
}

// The same fake behind the shard protocol: the failing worker ships
// Error{Serve} in an Error frame and the coordinator rethrows it naming
// the shard.
TEST(FaultInjectionTest, PolicyExceptionThroughShardWorkersIsServeError) {
  test::registerThrowingPolicy();
  const net::Tree tree = net::makeClusterNetwork(3, 4);
  const auto events = roundRobinEvents(tree);
  for (const std::string error : {"runtime", "invalid-argument"}) {
    SCOPED_TRACE(error);
    shard::ShardOptions options;
    options.serve = makeOptions(1, true);
    options.serve.policy = "throwing:after=" + std::to_string(kThrowCall) +
                           ",error=" + error;
    auto cluster = shard::makeLoopbackCluster(2);
    shard::ShardCoordinator coordinator(tree, kObjects, options,
                                        cluster->links(), "loopback");
    VectorStream stream({events.begin(), events.end()});
    try {
      (void)coordinator.serve(stream);
      FAIL() << "policy exception did not surface through the coordinator";
    } catch (const Error& e) {
      EXPECT_EQ(e.stage(), Stage::Serve);
      EXPECT_EQ(e.exitCode(), 11);
      EXPECT_EQ(e.epoch(), coordinator.epochLog().size());
      EXPECT_NE(e.cause().find("shard "), std::string::npos) << e.cause();
      EXPECT_NE(e.cause().find("serveShard call"), std::string::npos)
          << e.cause();
    }
    cluster->kill();
  }
}

// -------------------------------------------------------------------------
// Handoff stage: a re-placement the nested strategy cannot compute.
// -------------------------------------------------------------------------

// Exact placement with up to three copies per object enumerates more
// candidate sets than solveExact allows on the 4x8 cluster, so the
// first §4 pass throws inside beginHandoff. The pass is not retried:
// beginHandoff is deterministic over the aggregated matrix, so the
// failure surfaces at the drift epoch and the drift epoch is never
// logged.
TEST(FaultInjectionTest, UncomputableHandoffIsHandoffError) {
  const net::Tree tree = net::makeClusterNetwork(4, 8);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  // Quiet epochs first: every request comes from the processor that
  // holds the initial copies, so the lower bound does not grow and the
  // drift trigger cannot fire before epoch kQuietEpochs.
  constexpr std::uint64_t kQuietEpochs = 2;
  std::vector<workload::RequestEvent> events(kQuietEpochs * kEpochSize);
  for (std::size_t i = 0; i < events.size(); ++i) {
    events[i] = {static_cast<ObjectId>(i % kObjects),
                 tree.processors().front(), false};
  }
  workload::StreamParams params;
  params.numObjects = kObjects;
  params.readFraction = 0.9;
  const auto generated =
      makeGeneratedStream("skewed", tree, params, 67, kRequests);
  std::vector<workload::RequestEvent> skewed(kRequests);
  ASSERT_EQ(generated->fill(skewed), kRequests);
  events.insert(events.end(), skewed.begin(), skewed.end());
  for (const bool pipeline : {false, true}) {
    SCOPED_TRACE(pipeline ? "pipelined" : "barrier");
    // Before its first pass `static` serves from the initial copies
    // whatever its nested strategy, so a computable placement finds the
    // drift epoch.
    ServeOptions options = makeOptions(3, pipeline);
    options.policy = "static:placement=extended-nibble";
    std::uint64_t driftEpoch = 0;
    bool found = false;
    {
      EpochServer reference(rooted, kObjects, options);
      VectorStream stream({events.begin(), events.end()});
      (void)reference.serve(stream);
      for (const EpochRecord& record : reference.epochLog()) {
        if (record.replaced) {
          driftEpoch = record.index;
          found = true;
          break;
        }
      }
    }
    ASSERT_TRUE(found) << "reference run never triggered a handoff pass";
    EXPECT_EQ(driftEpoch, kQuietEpochs);

    options.policy = "static:placement=exact:max-copies=3";
    EpochServer server(rooted, kObjects, options);
    VectorStream stream({events.begin(), events.end()});
    try {
      (void)server.serve(stream);
      FAIL() << "uncomputable handoff did not surface";
    } catch (const Error& e) {
      EXPECT_EQ(e.stage(), Stage::Handoff);
      EXPECT_EQ(e.epoch(), driftEpoch);
      EXPECT_EQ(e.exitCode(), 12);
      EXPECT_NE(e.cause().find("candidate space too large"),
                std::string::npos)
          << e.cause();
    }
    EXPECT_EQ(server.epochLog().size(), driftEpoch);
  }
}

// -------------------------------------------------------------------------
// Ingest stage: a request naming an object that does not exist.
// -------------------------------------------------------------------------

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

// -------------------------------------------------------------------------
// Checkpoint stage: a snapshot that cannot be written.
// -------------------------------------------------------------------------

TEST(FaultInjectionTest, UnwritableCheckpointDirIsCheckpointError) {
  const net::Tree tree = net::makeClusterNetwork(3, 4);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  const auto events = roundRobinEvents(tree);
  // A regular file where the checkpoint directory's parent should be.
  const std::filesystem::path file =
      std::filesystem::path(::testing::TempDir()) / "hbn-not-a-directory";
  std::ofstream(file) << "x";
  for (const bool pipeline : {false, true}) {
    SCOPED_TRACE(pipeline ? "pipelined" : "barrier");
    ServeOptions options = makeOptions(2, pipeline);
    options.checkpointDir = (file / "ck").string();
    options.checkpointEvery = 2;
    EpochServer server(rooted, kObjects, options);
    VectorStream stream({events.begin(), events.end()});
    try {
      (void)server.serve(stream);
      FAIL() << "unwritable checkpoint directory did not surface";
    } catch (const Error& e) {
      EXPECT_EQ(e.stage(), Stage::Checkpoint);
      EXPECT_EQ(e.epoch(), 1u);
      EXPECT_EQ(e.exitCode(), 13);
    }
    EXPECT_EQ(server.epochLog().size(), 1u);
  }
  std::filesystem::remove(file);
}

}  // namespace
}  // namespace hbn::serve
