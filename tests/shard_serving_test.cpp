// End-to-end tests for the sharded serving engine (hbn/shard/):
// digest identity with the single-process EpochServer for every
// registered policy and worker count (re-placements and the row
// all-gather included), socket-transport
// equivalence via exec'd worker processes, scripted-peer protocol
// violations on both sides, cross-wire error propagation with stage
// attribution, the peer watchdog, coordinator option validation, and
// the worker-mode flag parse.
//
// The exec'd workers re-run this binary, so it has its own main.
#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "hbn/dynamic/online_policy.h"
#include "hbn/net/generators.h"
#include "hbn/net/serialize.h"
#include "hbn/serve/epoch_server.h"
#include "hbn/serve/error.h"
#include "hbn/serve/request_stream.h"
#include "hbn/shard/coordinator.h"
#include "hbn/shard/process.h"
#include "hbn/shard/transport.h"
#include "hbn/shard/wire.h"
#include "hbn/shard/worker.h"

namespace hbn::shard {
namespace {

constexpr std::uint64_t kRequests = 12'000;
constexpr std::size_t kEpoch = 2048;
constexpr int kObjects = 64;
constexpr std::uint64_t kSeed = 5;

net::Tree testTree() { return net::makeClusterNetwork(3, 4); }

std::vector<workload::RequestEvent> makeEvents(const net::Tree& tree) {
  workload::StreamParams params;
  params.numObjects = kObjects;
  const auto stream = serve::makeGeneratedStream("skewed", tree, params,
                                                 kSeed, kRequests);
  std::vector<workload::RequestEvent> events(kRequests);
  std::size_t have = 0;
  while (have < events.size()) {
    const std::size_t got = stream->fill(std::span<workload::RequestEvent>(
        events.data() + have, events.size() - have));
    if (got == 0) break;
    have += got;
  }
  events.resize(have);
  return events;
}

template <typename Report>
std::string digestOf(const Report& report, const core::LoadMap& loads) {
  std::ostringstream oss;
  oss.precision(17);
  oss << report.congestion << '|' << report.lowerBound << '|'
      << report.ratio << '|' << report.replacements << '|'
      << report.replications << '|' << report.invalidations;
  for (const core::Count load : loads.edgeLoads()) oss << ',' << load;
  return oss.str();
}

std::string singleProcessDigest(
    const net::Tree& tree,
    const std::vector<workload::RequestEvent>& events,
    const std::string& policy, std::uint64_t* replacements = nullptr) {
  const net::RootedTree rooted(tree, tree.defaultRoot());
  serve::VectorStream stream(events);
  serve::ServeOptions options;
  options.epochSize = kEpoch;
  options.threads = 1;
  options.policy = policy;
  serve::EpochServer server(rooted, kObjects, options);
  const serve::ServeReport report = server.serve(stream);
  if (replacements != nullptr) *replacements = report.replacements;
  return digestOf(report, server.loads());
}

ShardOptions baseOptions(const std::string& policy) {
  ShardOptions options;
  options.serve.epochSize = kEpoch;
  options.serve.threads = 1;
  options.serve.policy = policy;
  options.partitionSeed = kSeed;
  return options;
}

std::string shardedDigest(const net::Tree& tree,
                          const std::vector<workload::RequestEvent>& events,
                          const std::string& policy, ShardCluster& cluster,
                          const Partition::Kind partition =
                              Partition::Kind::Hash) {
  ShardOptions options = baseOptions(policy);
  options.partition = partition;
  serve::VectorStream stream(events);
  ShardCoordinator coordinator(tree, kObjects, options, cluster.links(),
                               "test");
  const ShardedReport report = coordinator.serve(stream);
  cluster.join();
  return digestOf(report, coordinator.loads());
}

// The core identity: for every registered policy, sharded serving over
// 1, 2 and 4 loopback workers reproduces the single-process engine's
// loads and counters bit-for-bit — under both partition kinds.
// Re-placements fire on this stream for `static` (extended-nibble's
// whole-matrix pass, which needs every worker to hold every row) and
// `adaptive` (per-object handoffs), so the row all-gather runs too.
TEST(ShardServing, BitIdenticalToSingleProcessForEveryPolicy) {
  const net::Tree tree = testTree();
  const std::vector<workload::RequestEvent> events = makeEvents(tree);
  for (const std::string& policy :
       dynamic::OnlinePolicyRegistry::global().names()) {
    std::uint64_t replacements = 0;
    const std::string reference =
        singleProcessDigest(tree, events, policy, &replacements);
    if (policy == "static" || policy == "adaptive") {
      EXPECT_GT(replacements, 0u) << policy << " never re-placed";
    }
    for (const int workers : {1, 2, 4}) {
      for (const Partition::Kind kind :
           {Partition::Kind::Hash, Partition::Kind::Range}) {
        auto cluster = makeLoopbackCluster(workers);
        EXPECT_EQ(shardedDigest(tree, events, policy, *cluster, kind),
                  reference)
            << policy << " diverged at " << workers << " workers ("
            << partitionKindName(kind) << " partition)";
      }
    }
  }
}

// The socket transport (exec'd worker processes over Unix sockets)
// must produce the same bits as in-process loopback.
TEST(ShardServing, ExecSocketWorkersMatchLoopback) {
  const net::Tree tree = testTree();
  const std::vector<workload::RequestEvent> events = makeEvents(tree);
  auto loopback = makeLoopbackCluster(2);
  const std::string reference =
      shardedDigest(tree, events, "tree-counters", *loopback);
  auto exec = makeExecCluster(2);
  EXPECT_EQ(shardedDigest(tree, events, "tree-counters", *exec),
            reference);
}

// An unknown policy spec fails inside the worker during stack
// construction; the failure must cross the wire as Stage::Connect
// (exit code 15) with the shard attribution, for threads and for real
// child processes alike.
TEST(ShardServing, WorkerConstructionFailureArrivesAsConnect) {
  const net::Tree tree = testTree();
  const std::vector<workload::RequestEvent> events = makeEvents(tree);
  for (const bool socket : {false, true}) {
    auto cluster = socket ? makeExecCluster(2) : makeLoopbackCluster(2);
    serve::VectorStream stream(events);
    ShardCoordinator coordinator(tree, kObjects,
                                 baseOptions("no-such-policy"),
                                 cluster->links(), "test");
    try {
      (void)coordinator.serve(stream);
      FAIL() << "expected serve::Error";
    } catch (const serve::Error& e) {
      EXPECT_EQ(e.stage(), serve::Stage::Connect);
      EXPECT_EQ(e.exitCode(), 15);
      EXPECT_NE(e.cause().find("no-such-policy"), std::string::npos);
    }
    cluster->kill();
  }
}

/// A scripted fake worker: completes the handshake, receives the first
/// epoch, then misbehaves (dies or goes silent). Runs the protocol far
/// enough that the coordinator's failure lands mid-epoch, not at
/// connect.
void misbehavingWorker(std::shared_ptr<FramedTransport> link, bool die) {
  try {
    (void)link->recv();  // Hello
    link->send(FrameType::kHelloAck, {});
    (void)link->recv();  // first epoch
    if (die) {
      link->close();  // peer death mid-epoch
      return;
    }
    // Go silent: block on a frame the coordinator will never send. The
    // coordinator's watchdog fires; its closeAll() then unblocks this
    // recv with an error and the thread winds down.
    (void)link->recv();
  } catch (...) {
  }
}

TEST(ShardServing, MidEpochPeerDeathIsPeerError) {
  const net::Tree tree = testTree();
  const std::vector<workload::RequestEvent> events = makeEvents(tree);
  auto [coordEnd, workerEnd] = makeLoopbackPair();
  FramedTransport link(std::move(coordEnd));
  std::thread worker(
      misbehavingWorker,
      std::make_shared<FramedTransport>(std::move(workerEnd)),
      /*die=*/true);
  serve::VectorStream stream(events);
  ShardCoordinator coordinator(tree, kObjects, baseOptions("tree-counters"),
                               {&link}, "test");
  try {
    (void)coordinator.serve(stream);
    FAIL() << "expected serve::Error";
  } catch (const serve::Error& e) {
    EXPECT_EQ(e.stage(), serve::Stage::Peer);
    EXPECT_EQ(e.exitCode(), 17);
  }
  worker.join();
}

TEST(ShardServing, SilentPeerTripsWatchdog) {
  const net::Tree tree = testTree();
  const std::vector<workload::RequestEvent> events = makeEvents(tree);
  auto [coordEnd, workerEnd] = makeLoopbackPair();
  FramedTransport link(std::move(coordEnd));
  std::thread worker(
      misbehavingWorker,
      std::make_shared<FramedTransport>(std::move(workerEnd)),
      /*die=*/false);
  serve::VectorStream stream(events);
  ShardOptions options = baseOptions("tree-counters");
  options.peerTimeoutMs = 100.0;
  ShardCoordinator coordinator(tree, kObjects, options, {&link}, "test");
  try {
    (void)coordinator.serve(stream);
    FAIL() << "expected serve::Error";
  } catch (const serve::Error& e) {
    EXPECT_EQ(e.stage(), serve::Stage::Peer);
    EXPECT_NE(e.cause().find("unresponsive"), std::string::npos);
  }
  worker.join();
}

// A worker process that exits nonzero must surface from join() as a
// Peer error naming the shard and the exit status — the
// supervisor-facing contract of the process clusters.
TEST(ShardServing, JoinReportsFailedWorkerProcess) {
  auto cluster = makeExecCluster(1);
  // Closing the coordinator link makes the worker see end-of-stream
  // while waiting for Hello — a Peer-stage failure, so the child
  // process exits with the Peer exit code (17), which join() reports.
  cluster->links()[0]->close();
  try {
    cluster->join();
    FAIL() << "expected serve::Error";
  } catch (const serve::Error& e) {
    EXPECT_EQ(e.stage(), serve::Stage::Peer);
    EXPECT_NE(e.cause().find("worker 0"), std::string::npos);
    EXPECT_NE(e.cause().find("17"), std::string::npos);
  }
}

/// What a scripted worker gets wrong after an honest handshake.
enum class Lie { StatsCount, RowsEpoch, MigrateEpoch };

/// A scripted fake worker: completes the handshake, receives the first
/// epoch (epoch 0) and asks for a handoff, then lies as `lie` says — a
/// request count one off, or a Rows or Migrate leg stamped epoch 1.
void lyingWorker(std::shared_ptr<FramedTransport> link, int edgeCount,
                 Lie lie) {
  try {
    (void)link->recv();  // Hello
    link->send(FrameType::kHelloAck, {});
    const EpochMsg epoch = EpochMsg::decode(link->recv().payload);
    StatsMsg stats;
    stats.epoch = epoch.epoch;
    stats.requests = epoch.events.size() + (lie == Lie::StatsCount ? 1 : 0);
    stats.wantsHandoff = 1;
    stats.migratable = 1;
    stats.serveLoads.assign(static_cast<std::size_t>(edgeCount), 0);
    stats.lowerBoundDelta.assign(static_cast<std::size_t>(edgeCount), 0);
    link->send(FrameType::kStats, stats.encode());
    if (lie != Lie::StatsCount) {
      (void)link->recv();  // Decide: replace
      link->send(FrameType::kRows,
                 encodeRowFrames(epoch.epoch + (lie == Lie::RowsEpoch ? 1 : 0),
                                 {})
                     .front());
      (void)link->recv();  // the gathered rows
      MigrateMsg migrate;
      migrate.epoch = epoch.epoch + 1;
      migrate.loads.assign(static_cast<std::size_t>(edgeCount), 0);
      link->send(FrameType::kMigrate, migrate.encode());
    }
    (void)link->recv();  // blocks until the coordinator gives up
  } catch (...) {
  }
}

TEST(ShardServing, LyingWorkerIsErrorNamingShard) {
  const net::Tree tree = testTree();
  const std::vector<workload::RequestEvent> events = makeEvents(tree);
  struct Case {
    Lie lie;
    serve::Stage stage;
    std::string cause;
  };
  const Case cases[] = {
      {Lie::StatsCount, serve::Stage::Serve, "requests sent"},
      {Lie::RowsEpoch, serve::Stage::Frame, "rows for epoch 1"},
      {Lie::MigrateEpoch, serve::Stage::Frame, "migrate for epoch 1"},
  };
  for (const Case& c : cases) {
    auto [coordEnd, workerEnd] = makeLoopbackPair();
    FramedTransport link(std::move(coordEnd));
    std::thread worker(
        lyingWorker, std::make_shared<FramedTransport>(std::move(workerEnd)),
        tree.edgeCount(), c.lie);
    serve::VectorStream stream(events);
    ShardCoordinator coordinator(tree, kObjects, baseOptions("tree-counters"),
                                 {&link}, "test");
    try {
      (void)coordinator.serve(stream);
      ADD_FAILURE() << "expected serve::Error for " << c.cause;
    } catch (const serve::Error& e) {
      EXPECT_EQ(e.stage(), c.stage) << e.cause();
      EXPECT_NE(e.cause().find("shard 0"), std::string::npos) << e.cause();
      EXPECT_NE(e.cause().find(c.cause), std::string::npos) << e.cause();
    }
    worker.join();
  }
}

/// Runs the real worker as shard 0 of 2 (hash partition) behind a
/// scripted coordinator that sends `epochPayload` as the first epoch;
/// returns the stage of the Error frame the worker ships back.
serve::Stage workerVerdictOn(const std::string& epochPayload,
                             std::string* cause) {
  const net::Tree tree = testTree();
  auto [coordEnd, workerEnd] = makeLoopbackPair();
  FramedTransport coordinator(std::move(coordEnd));
  std::thread worker([end = std::make_shared<FramedTransport>(
                          std::move(workerEnd))] {
    try {
      runWorker(*end);
    } catch (...) {
    }
  });
  HelloMsg hello;
  hello.shardId = 0;
  hello.shardCount = 2;
  hello.numObjects = kObjects;
  hello.epochSize = kEpoch;
  hello.partitionSeed = kSeed;
  hello.policySpec = "tree-counters";
  hello.treeText = net::toText(tree);
  coordinator.send(FrameType::kHello, hello.encode());
  EXPECT_EQ(coordinator.recv().type, FrameType::kHelloAck);
  coordinator.send(FrameType::kEpoch, epochPayload);
  const Frame reply = coordinator.recv();
  worker.join();
  EXPECT_EQ(reply.type, FrameType::kError);
  if (reply.type != FrameType::kError) return serve::Stage::Serve;
  const ErrorMsg err = ErrorMsg::decode(reply.payload);
  *cause = err.cause;
  return static_cast<serve::Stage>(err.stage);
}

TEST(ShardServing, WorkerRejectsMalformedEpochRuns) {
  const Partition partition(Partition::Kind::Hash, 2, kSeed, kObjects);
  std::vector<workload::ObjectId> owned;
  workload::ObjectId foreign = -1;
  for (workload::ObjectId x = 0; x < kObjects; ++x) {
    if (partition.ownerOf(x) == 0) {
      owned.push_back(x);
    } else if (foreign < 0) {
      foreign = x;
    }
  }
  ASSERT_GE(owned.size(), 2u);
  ASSERT_GE(foreign, 0);
  const workload::RequestEvent ev{0, 1, false};
  const auto runs = [&](std::vector<workload::ObjectId> objects) {
    EpochWriter writer(0, objects.size(), objects.size());
    for (const workload::ObjectId x : objects) {
      writer.run(x, std::span(&ev, 1));
    }
    return writer.take();
  };
  // A run count past the payload: the header's counts fit the bytes
  // (three events' worth after it), but the one run claims three events
  // and only one follows its header.
  WireWriter past;
  past.u64(0);
  past.u64(3);
  past.u64(1);
  past.i32(owned[0]);
  past.u32(3);
  past.u32(2);

  const std::pair<std::string, std::string> cases[] = {
      {runs({foreign}), "not owned"},
      {runs({owned[0], owned[0]}), "ascending"},
      {runs({owned[1], owned[0]}), "ascending"},
      {past.take(), "exceeds payload"},
  };
  for (const auto& [payload, expected] : cases) {
    std::string cause;
    EXPECT_EQ(workerVerdictOn(payload, &cause), serve::Stage::Frame)
        << cause;
    EXPECT_NE(cause.find(expected), std::string::npos) << cause;
  }
}

TEST(ShardServing, CoordinatorValidatesOptions) {
  const net::Tree tree = testTree();
  auto cluster = makeLoopbackCluster(1);

  EXPECT_THROW(ShardCoordinator(tree, kObjects, baseOptions("tree-counters"),
                                {}, "test"),
               std::invalid_argument);

  ShardOptions checkpointing = baseOptions("tree-counters");
  checkpointing.serve.checkpointDir = "/tmp/nope";
  EXPECT_THROW(ShardCoordinator(tree, kObjects, checkpointing,
                                cluster->links(), "test"),
               std::invalid_argument);

  // Workers serve on one thread; 0 (all cores) is not 1 either.
  for (const int threads : {2, 0}) {
    ShardOptions threaded = baseOptions("tree-counters");
    threaded.serve.threads = threads;
    EXPECT_THROW(ShardCoordinator(tree, kObjects, threaded, cluster->links(),
                                  "test"),
                 std::invalid_argument)
        << threads;
  }

  cluster->kill();
}

TEST(ShardServing, ServeIsOneShot) {
  const net::Tree tree = testTree();
  const std::vector<workload::RequestEvent> events = makeEvents(tree);
  auto cluster = makeLoopbackCluster(1);
  serve::VectorStream stream(events);
  ShardCoordinator coordinator(tree, kObjects, baseOptions("tree-counters"),
                               cluster->links(), "test");
  (void)coordinator.serve(stream);
  cluster->join();
  serve::VectorStream again(events);
  EXPECT_THROW((void)coordinator.serve(again), std::logic_error);
}

// The aggregate report must be internally consistent: per-shard
// requests sum to the total, cross-shard bytes match the per-shard
// byte counters, every shard reports busy time, and the fields shared
// with the single-process report agree with the epoch log.
TEST(ShardServing, ReportBreakdownIsConsistent) {
  const net::Tree tree = testTree();
  const std::vector<workload::RequestEvent> events = makeEvents(tree);
  auto cluster = makeLoopbackCluster(3);
  serve::VectorStream stream(events);
  ShardCoordinator coordinator(tree, kObjects, baseOptions("adaptive"),
                               cluster->links(), "test");
  const ShardedReport report = coordinator.serve(stream);
  cluster->join();

  EXPECT_EQ(report.workers, 3);
  EXPECT_EQ(report.totalRequests, events.size());
  ASSERT_EQ(report.shards.size(), 3u);
  std::uint64_t requestSum = 0;
  std::uint64_t byteSum = 0;
  for (const ShardBreakdown& shard : report.shards) {
    requestSum += shard.requests;
    byteSum += shard.bytesToWorker + shard.bytesFromWorker;
    EXPECT_GT(shard.busyMs, 0.0);
    EXPECT_GT(shard.bytesToWorker, 0u);
    EXPECT_GT(shard.bytesFromWorker, 0u);
  }
  EXPECT_EQ(requestSum, report.totalRequests);
  EXPECT_EQ(byteSum, report.crossShardBytes);
  EXPECT_GT(report.criticalPathMs, 0.0);
  EXPECT_EQ(report.epochs, coordinator.epochLog().size());
  std::uint64_t loggedRequests = 0;
  for (const serve::EpochRecord& record : coordinator.epochLog()) {
    loggedRequests += record.requests;
  }
  EXPECT_EQ(report.totalRequests, loggedRequests);
}

// A --shard-worker-fd value that is not a whole non-negative int is a
// usage error (exit 2), not a worker on stdin ("") or on fd 3 ("3x").
TEST(ShardServing, MalformedWorkerFdIsUsageError) {
  for (const std::string value : {"", "abc", "-1", "3x"}) {
    std::string arg = "--shard-worker-fd=" + value;
    char program[] = "shard_serving_test";
    char* argv[] = {program, arg.data(), nullptr};
    EXPECT_EQ(maybeRunWorkerMain(2, argv), 2) << arg;
  }
}

}  // namespace
}  // namespace hbn::shard

int main(int argc, char** argv) {
  if (const int code = hbn::shard::maybeRunWorkerMain(argc, argv);
      code >= 0) {
    return code;
  }
  testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
