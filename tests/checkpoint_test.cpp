// Checkpoint/restore conformance: every registered policy spec must
// survive the kill-and-restore property — serve with epoch-boundary
// checkpointing, die mid-epoch (a poisoned event), restore the
// latest snapshot into a fresh server, re-serve the remaining stream,
// and end bit-identical to an uninterrupted run — across thread counts
// and both engines. Plus: checkpointing itself is digest-neutral, a
// restored server equals the server it snapshotted, corrupted or
// truncated snapshots are rejected loudly instead of half-applied, and
// v1 snapshots with nonzero retired stats slots still restore.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "hbn/dynamic/online_policy.h"
#include "hbn/net/generators.h"
#include "hbn/serve/checkpoint.h"
#include "hbn/serve/epoch_server.h"
#include "hbn/serve/error.h"
#include "hbn/serve/request_stream.h"
#include "hbn/workload/generators.h"

namespace hbn::serve {
namespace {

using core::Count;
using workload::ObjectId;

constexpr int kObjects = 64;
constexpr std::size_t kEpochSize = 1 << 10;
constexpr std::uint64_t kRequests = 20'000;
constexpr std::uint64_t kKillEpoch = 10;

/// Every registered policy in its default form plus option-ful variants
/// — registry-driven, so a policy registered tomorrow joins the
/// kill-and-restore suite without edits.
std::vector<std::string> conformanceSpecs() {
  std::vector<std::string> specs =
      dynamic::OnlinePolicyRegistry::global().names();
  std::sort(specs.begin(), specs.end());
  specs.push_back("tree-counters:threshold=3,contract=0");
  specs.push_back("static:placement=extended-nibble");
  specs.push_back("adaptive:members=tree-counters+owner-only,window=3");
  return specs;
}

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

ServeOptions makeOptions(const std::string& spec, int threads,
                         bool pipeline) {
  ServeOptions options;
  options.epochSize = kEpochSize;
  options.threads = threads;
  options.pipeline = pipeline;
  options.replaceDrift = 1.2;  // drift passes in play
  options.policy = spec;
  return options;
}

/// Everything determinism promises: final loads, copy sets, counters.
std::string digest(const EpochServer& server, const ServeReport& report) {
  std::ostringstream oss;
  oss.precision(17);
  oss << report.congestion << '|' << report.replacements << '|'
      << report.replications << '|' << report.invalidations;
  for (const Count load : server.loads().edgeLoads()) oss << ',' << load;
  for (ObjectId x = 0; x < kObjects; ++x) {
    oss << ';';
    for (const net::NodeId v : server.copySet(x)) oss << v << ' ';
  }
  return oss.str();
}

/// Fresh unique checkpoint directory under the test temp root.
std::filesystem::path freshDir(const std::string& tag) {
  static int counter = 0;
  const std::filesystem::path dir = std::filesystem::path(
      ::testing::TempDir()) / ("hbn-checkpoint-" + tag + "-" +
                               std::to_string(counter++));
  std::filesystem::remove_all(dir);
  return dir;
}

std::string serveUninterrupted(
    const net::RootedTree& rooted,
    const std::vector<workload::RequestEvent>& events,
    const ServeOptions& options) {
  EpochServer server(rooted, kObjects, options);
  VectorStream stream({events.begin(), events.end()});
  const ServeReport report = server.serve(stream);
  return digest(server, report);
}

// ---------------------------------------------------------------------------
// The headline property: kill mid-epoch, restore the latest snapshot,
// re-serve the rest — final state bit-identical to the uninterrupted
// run, for every policy × engine × thread count.
// ---------------------------------------------------------------------------
TEST(Checkpoint, KillRestoreIsBitIdentical) {
  const net::Tree tree = net::makeClusterNetwork(3, 4);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  const auto events = makeEvents(tree, 43);
  for (const std::string& spec : conformanceSpecs()) {
    for (const bool pipeline : {false, true}) {
      for (const int threads : {1, 3}) {
        SCOPED_TRACE(spec + (pipeline ? " pipelined" : " barrier") +
                     " threads=" + std::to_string(threads));
        const std::string reference = serveUninterrupted(
            rooted, events, makeOptions(spec, threads, pipeline));

        // The doomed run: checkpoint every epoch, die mid-epoch
        // kKillEpoch on an out-of-range object id.
        const std::filesystem::path dir = freshDir("kill");
        {
          ServeOptions options = makeOptions(spec, threads, pipeline);
          options.checkpointDir = dir.string();
          EpochServer server(rooted, kObjects, options);
          std::vector<workload::RequestEvent> poisoned = events;
          poisoned[kKillEpoch * kEpochSize + kEpochSize / 2].object =
              kObjects + 7;
          VectorStream stream(std::move(poisoned));
          try {
            (void)server.serve(stream);
            FAIL() << "poisoned event did not surface";
          } catch (const Error& e) {
            EXPECT_EQ(e.stage(), Stage::Ingest);
            EXPECT_EQ(e.epoch(), kKillEpoch);
          }
        }

        // Restore the latest snapshot into a fresh server and finish
        // the stream from the checkpoint's cursor.
        const CheckpointData data =
            readCheckpointFile(latestCheckpointPath(dir.string()));
        EXPECT_EQ(data.epochs, kKillEpoch);
        EXPECT_EQ(data.servedTotal, kKillEpoch * kEpochSize);
        EpochServer server(rooted, kObjects,
                           makeOptions(spec, threads, pipeline));
        server.restoreFrom(data);
        VectorStream stream({events.begin(), events.end()});
        skipRequests(stream, data.servedTotal);
        const ServeReport report = server.serve(stream);
        EXPECT_EQ(report.totalRequests, kRequests - data.servedTotal);
        EXPECT_EQ(digest(server, report), reference);
        std::filesystem::remove_all(dir);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Checkpointing must not change what is served: a checkpointed run ends
// with the same digest as a plain one, and a server restored from the
// final snapshot equals the server that wrote it.
// ---------------------------------------------------------------------------
TEST(Checkpoint, CheckpointingIsDigestNeutral) {
  const net::Tree tree = net::makeClusterNetwork(3, 4);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  const auto events = makeEvents(tree, 47);
  for (const std::string& spec : conformanceSpecs()) {
    SCOPED_TRACE(spec);
    const std::string reference =
        serveUninterrupted(rooted, events, makeOptions(spec, 3, true));

    const std::filesystem::path dir = freshDir("neutral");
    ServeOptions options = makeOptions(spec, 3, true);
    options.checkpointDir = dir.string();
    options.checkpointEvery = 3;
    EpochServer server(rooted, kObjects, options);
    VectorStream stream({events.begin(), events.end()});
    const ServeReport report = server.serve(stream);
    EXPECT_GT(report.checkpoints, 0u);
    EXPECT_EQ(digest(server, report), reference);

    // The final snapshot captures end-of-run state exactly.
    const CheckpointData data =
        readCheckpointFile(latestCheckpointPath(dir.string()));
    EXPECT_EQ(data.servedTotal, kRequests);
    EpochServer twin(rooted, kObjects, makeOptions(spec, 3, true));
    twin.restoreFrom(data);
    for (net::EdgeId e = 0; e < tree.edgeCount(); ++e) {
      ASSERT_EQ(twin.loads().edgeLoad(e), server.loads().edgeLoad(e))
          << "edge " << e;
    }
    for (ObjectId x = 0; x < kObjects; ++x) {
      ASSERT_EQ(twin.copySet(x), server.copySet(x)) << "object " << x;
    }
    std::filesystem::remove_all(dir);
  }
}

// ---------------------------------------------------------------------------
// Negatives: corruption, truncation, wrong target, reuse.
// ---------------------------------------------------------------------------

CheckpointData sampleCheckpoint(const net::RootedTree& rooted,
                                const std::vector<workload::RequestEvent>&
                                    events,
                                const std::string& spec,
                                std::filesystem::path& dirOut) {
  dirOut = freshDir("negative");
  ServeOptions options = makeOptions(spec, 1, false);
  options.checkpointDir = dirOut.string();
  EpochServer server(rooted, kObjects, options);
  VectorStream stream({events.begin(), events.end()});
  (void)server.serve(stream);
  return readCheckpointFile(latestCheckpointPath(dirOut.string()));
}

TEST(Checkpoint, CorruptedAndTruncatedSnapshotsAreRejected) {
  const net::Tree tree = net::makeClusterNetwork(3, 4);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  const auto events = makeEvents(tree, 51);
  std::filesystem::path dir;
  (void)sampleCheckpoint(rooted, events, "tree-counters", dir);
  const std::string path = latestCheckpointPath(dir.string());

  std::string text;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream slurp;
    slurp << in.rdbuf();
    text = slurp.str();
  }
  ASSERT_GT(text.size(), 200u);

  // One flipped byte in the middle: checksum mismatch, named as such.
  {
    std::string corrupt = text;
    corrupt[text.size() / 2] ^= 0x20;
    std::istringstream in(corrupt);
    EXPECT_THROW((void)readCheckpoint(in), std::invalid_argument);
  }
  // Truncation drops the checksum line entirely.
  {
    std::istringstream in(text.substr(0, text.size() / 2));
    EXPECT_THROW((void)readCheckpoint(in), std::invalid_argument);
  }
  // Garbage is not a checkpoint.
  {
    std::istringstream in("hello world\n");
    EXPECT_THROW((void)readCheckpoint(in), std::invalid_argument);
  }
  // A v1 snapshot whose two retired stats slots (degraded epochs,
  // handoff retries) are nonzero, as older writers produced, with a
  // valid checksum: the slots are read and discarded, and resuming from
  // it finishes bit-identical to an uninterrupted run.
  {
    std::ifstream in(dir / "checkpoint-10.hbn", std::ios::binary);
    std::ostringstream slurp;
    slurp << in.rdbuf();
    std::string legacy = slurp.str();
    const std::string fresh = "\nstats 0 0 ";
    const std::size_t stats = legacy.find(fresh);
    ASSERT_NE(stats, std::string::npos);
    legacy.replace(stats, fresh.size(), "\nstats 3 2 ");
    legacy.resize(legacy.rfind("checksum "));
    std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a 64
    for (const char c : legacy) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 0x100000001b3ULL;
    }
    std::ostringstream checksum;
    checksum << "checksum " << std::hex << hash << '\n';
    std::istringstream legacyIn(legacy + checksum.str());
    const CheckpointData data = readCheckpoint(legacyIn);
    EXPECT_EQ(data.epochs, 10u);

    const ServeOptions options = makeOptions("tree-counters", 1, false);
    EpochServer server(rooted, kObjects, options);
    server.restoreFrom(data);
    VectorStream stream({events.begin(), events.end()});
    skipRequests(stream, data.servedTotal);
    const ServeReport report = server.serve(stream);
    EXPECT_EQ(digest(server, report),
              serveUninterrupted(rooted, events, options));
  }
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, RestoreValidatesTargetServer) {
  const net::Tree tree = net::makeClusterNetwork(3, 4);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  const auto events = makeEvents(tree, 53);
  std::filesystem::path dir;
  const CheckpointData data =
      sampleCheckpoint(rooted, events, "tree-counters", dir);

  // Wrong policy.
  {
    EpochServer server(rooted, kObjects,
                       makeOptions("full-replication", 1, false));
    EXPECT_THROW(server.restoreFrom(data), std::invalid_argument);
  }
  // Wrong topology.
  {
    const net::Tree other = net::makeClusterNetwork(2, 3);
    const net::RootedTree otherRooted(other, other.defaultRoot());
    EpochServer server(otherRooted, kObjects,
                       makeOptions("tree-counters", 1, false));
    EXPECT_THROW(server.restoreFrom(data), std::invalid_argument);
  }
  // A server that has already served refuses restoration.
  {
    EpochServer server(rooted, kObjects,
                       makeOptions("tree-counters", 1, false));
    VectorStream stream({events.begin(), events.end()});
    (void)server.serve(stream);
    EXPECT_THROW(server.restoreFrom(data), std::logic_error);
  }
  std::filesystem::remove_all(dir);
}

// skipRequests must refuse to resume past the end of a shorter stream —
// the checkpoint and the stream plainly disagree.
TEST(Checkpoint, SkipPastEndOfStreamThrows) {
  std::vector<workload::RequestEvent> few(10,
                                          workload::RequestEvent{0, 0, false});
  VectorStream stream(std::move(few));
  EXPECT_THROW(skipRequests(stream, 11), std::runtime_error);
}

}  // namespace
}  // namespace hbn::serve
