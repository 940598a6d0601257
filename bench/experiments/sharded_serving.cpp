// Experiment E16: multi-process sharded serving. The object space is
// partitioned over N shard workers behind the coordinator/worker wire
// protocol (docs/sharding.md); each worker runs the single-process
// serving stack over its shard and the coordinator merges the
// convergecast stats.
//
// Two claims, per the sharding design:
//   identity     for EVERY registered policy, the merged loads, final
//                congestion/lower bound/ratio, and the
//                replication/invalidation/re-placement counters of a
//                sharded run are bit-identical to the single-process
//                EpochServer — for 1, 2 and 4 workers (the partition
//                only decides who serves, never what is served).
//   transports   the socket transport (exec'd worker processes over
//                Unix sockets) produces the same bits as in-process
//                loopback.
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "experiments.h"
#include "hbn/dynamic/online_policy.h"
#include "hbn/net/generators.h"
#include "hbn/serve/epoch_server.h"
#include "hbn/serve/request_stream.h"
#include "hbn/shard/coordinator.h"
#include "hbn/shard/process.h"
#include "hbn/util/table.h"
#include "hbn/util/timer.h"

namespace hbn::bench {
namespace {

/// Identity-phase stream scale. Small on purpose: the phase runs
/// (1 single-process + 3 sharded) runs per registered policy.
constexpr std::uint64_t kIdentityRequestsFull = 120'000;
constexpr std::uint64_t kIdentityRequestsSmoke = 48'000;
constexpr std::size_t kIdentityEpoch = 8192;
constexpr int kIdentityObjects = 256;

std::vector<workload::RequestEvent> materialize(const net::Tree& tree,
                                                int objects,
                                                std::uint64_t seed,
                                                std::uint64_t total) {
  workload::StreamParams params;
  params.numObjects = objects;
  const auto stream =
      serve::makeGeneratedStream("skewed", tree, params, seed, total);
  std::vector<workload::RequestEvent> events(total);
  std::size_t have = 0;
  while (have < total) {
    const std::size_t got = stream->fill(
        std::span<workload::RequestEvent>(events.data() + have,
                                          total - have));
    if (got == 0) break;
    have += got;
  }
  events.resize(have);
  return events;
}

/// The digest both engines are compared on: every run-level counter the
/// serve layer reports plus the full merged edge-load vector, printed
/// at round-trip precision.
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

class ShardedServingExperiment final : public engine::Experiment {
 public:
  ShardedServingExperiment(std::int64_t requests, std::int64_t epoch,
                           std::int64_t objects)
      : requestsOverride_(requests),
        epochOverride_(epoch),
        objectsOverride_(objects) {}

  [[nodiscard]] std::string_view name() const override {
    return "sharded-serving";
  }

  [[nodiscard]] bool run(engine::ExperimentContext& ctx,
                         engine::BenchReporter& reporter) const override {
    const std::uint64_t seed = ctx.resolveSeed(12);
    const net::Tree tree = net::makeClusterNetwork(4, 8);
    const net::RootedTree rooted(tree, tree.defaultRoot());

    const std::uint64_t identityRequests =
        requestsOverride_ > 0
            ? static_cast<std::uint64_t>(requestsOverride_)
            : (ctx.smoke ? kIdentityRequestsSmoke : kIdentityRequestsFull);
    const std::size_t identityEpoch =
        epochOverride_ > 0 ? static_cast<std::size_t>(epochOverride_)
                           : kIdentityEpoch;
    const int identityObjects =
        objectsOverride_ > 0 ? static_cast<int>(objectsOverride_)
                             : kIdentityObjects;

    ctx.os() << "E16 — multi-process sharded serving: coordinator/worker "
                "protocol vs the single-process engine\nseed="
             << seed << ", identity: " << identityRequests
             << " requests x epoch " << identityEpoch << " x "
             << identityObjects << " objects\n\n";

    const auto singleProcess =
        [&](const std::vector<workload::RequestEvent>& events,
            const std::string& policy, int objects, std::size_t epochSize,
            std::string* digest) {
          serve::VectorStream stream(events);
          serve::ServeOptions options;
          options.epochSize = epochSize;
          options.threads = 1;
          options.policy = policy;
          serve::EpochServer server(rooted, objects, options);
          const serve::ServeReport report = server.serve(stream);
          *digest = digestOf(report, server.loads());
          return report;
        };

    const auto sharded =
        [&](const std::vector<workload::RequestEvent>& events,
            const std::string& policy, int objects, std::size_t epochSize,
            int workers, bool socket, std::string* digest) {
          serve::VectorStream stream(events);
          shard::ShardOptions options;
          options.serve.epochSize = epochSize;
          options.serve.threads = 1;
          options.serve.policy = policy;
          options.partitionSeed = seed;
          // Socket workers re-run the host binary, so every binary that
          // runs this experiment calls shard::maybeRunWorkerMain first.
          std::unique_ptr<shard::ShardCluster> cluster =
              socket ? shard::makeExecCluster(workers)
                     : shard::makeLoopbackCluster(workers);
          shard::ShardCoordinator coordinator(
              tree, objects, options, cluster->links(),
              socket ? "socket" : "loopback");
          const shard::ShardedReport report = coordinator.serve(stream);
          cluster->join();
          *digest = digestOf(report, coordinator.loads());
          return report;
        };

    // --- Phase 1: digest identity for every registered policy. -------
    const std::vector<workload::RequestEvent> identityEvents =
        materialize(tree, identityObjects, seed + 1, identityRequests);
    util::Table identityTable(
        {"policy", "congestion", "ratio", "re-placed", "1w", "2w", "4w"});
    bool identityHeld = true;
    for (const std::string& policy :
         dynamic::OnlinePolicyRegistry::global().names()) {
      std::string reference;
      const serve::ServeReport report = singleProcess(
          identityEvents, policy, identityObjects, identityEpoch,
          &reference);
      std::vector<std::string> verdicts;
      for (const int workers : {1, 2, 4}) {
        std::string shardedDigest;
        util::Timer timer;
        const shard::ShardedReport shardedReport =
            sharded(identityEvents, policy, identityObjects, identityEpoch,
                    workers, /*socket=*/false, &shardedDigest);
        reporter.addTiming(timer.millis());
        const bool match = shardedDigest == reference;
        identityHeld = identityHeld && match;
        verdicts.push_back(match ? "ok" : "DIVERGED");

        reporter.beginRow();
        reporter.field("phase", "identity");
        reporter.field("policy", policy);
        reporter.field("transport", "loopback");
        reporter.field("workers", workers);
        reporter.field("requests", static_cast<std::int64_t>(
                                       shardedReport.totalRequests));
        reporter.field("congestion", shardedReport.congestion);
        reporter.field("lower_bound", shardedReport.lowerBound);
        reporter.field("ratio", shardedReport.ratio);
        reporter.field("replacements", static_cast<std::int64_t>(
                                           shardedReport.replacements));
        reporter.field("cross_shard_bytes",
                       static_cast<std::int64_t>(
                           shardedReport.crossShardBytes));
        reporter.field("bytes_per_request", shardedReport.bytesPerRequest);
        reporter.field("digest_matches_single_process", match);
      }
      identityTable.addRow({policy,
                            util::formatDouble(report.congestion, 1),
                            util::formatDouble(report.ratio, 2),
                            std::to_string(report.replacements),
                            verdicts[0], verdicts[1], verdicts[2]});
    }
    ctx.os() << "digest identity vs single-process engine (merged edge "
                "loads + counters, all registered policies):\n";
    identityTable.print(ctx.os());

    // --- Phase 2: socket transport produces the same bits. -----------
    std::string loopbackDigest;
    std::string socketDigest;
    {
      util::Timer timer;
      (void)sharded(identityEvents, "tree-counters", identityObjects,
                    identityEpoch, 2, /*socket=*/false, &loopbackDigest);
      (void)sharded(identityEvents, "tree-counters", identityObjects,
                    identityEpoch, 2, /*socket=*/true, &socketDigest);
      reporter.addTiming(timer.millis());
    }
    const bool socketHeld = socketDigest == loopbackDigest;
    ctx.os() << "\nsocket transport (2 exec'd worker processes): "
             << (socketHeld ? "bit-identical to loopback" : "DIVERGED")
             << "\n";

    reporter.beginRow("check");
    reporter.field("claim",
                   "sharded serving is bit-identical to the "
                   "single-process engine for every registered policy "
                   "at 1, 2 and 4 workers");
    reporter.field("held", identityHeld);
    reporter.beginRow("check");
    reporter.field("claim",
                   "socket transport produces the same bits as loopback");
    reporter.field("held", socketHeld);
    return identityHeld && socketHeld;
  }

 private:
  std::int64_t requestsOverride_;
  std::int64_t epochOverride_;
  std::int64_t objectsOverride_;
};

}  // namespace

namespace detail {
void registerShardedServing(engine::ExperimentRegistry& registry) {
  registry.add(
      {"sharded-serving",
       "multi-process sharded serving: per-policy digest identity with "
       "the single-process engine at 1, 2 and 4 workers, and "
       "socket-vs-loopback transport equivalence",
       "E16 / docs/sharding.md (coordinator/worker protocol)",
       "requests=N,epoch=N,objects=N"},
      [](engine::StrategyOptions& options) {
        const std::int64_t requests = options.getInt("requests", 0);
        const std::int64_t epoch = options.getInt("epoch", 0);
        const std::int64_t objects = options.getInt("objects", 0);
        return std::make_unique<ShardedServingExperiment>(requests, epoch,
                                                          objects);
      },
      {"e16"});
}
}  // namespace detail

}  // namespace hbn::bench
