// Experiment E15 (robustness extension): fault-tolerant serving.
//
// Measures what fault tolerance costs and proves what it guarantees:
//   * checkpoint overhead — wall-clock of a checkpointed run vs an
//     uncheckpointed baseline (min-of-K timing on both sides, the runs
//     interleaved so host drift hits both alike), as a percentage; the
//     acceptance bound is <= 5%,
//   * recovery — kill the server mid-run with a poisoned request (an
//     out-of-range object id, an ingest-stage failure), restore the
//     latest epoch-boundary snapshot into a fresh server, re-serve the
//     clean remaining stream; reports the recovery wall-clock and
//     checks the final load digest is bit-identical to the
//     uninterrupted run.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "experiments.h"
#include "hbn/net/generators.h"
#include "hbn/serve/checkpoint.h"
#include "hbn/serve/epoch_server.h"
#include "hbn/serve/error.h"
#include "hbn/serve/request_stream.h"
#include "hbn/util/table.h"
#include "hbn/util/timer.h"

namespace hbn::bench {
namespace {

constexpr double kOverheadBoundPct = 5.0;
constexpr int kTimingRuns = 3;  ///< min-of-K on both sides of the overhead

class FaultRecoveryExperiment final : public engine::Experiment {
 public:
  FaultRecoveryExperiment(std::int64_t requests, std::int64_t epoch,
                          std::int64_t objects)
      : requestsOverride_(requests),
        epochOverride_(epoch),
        objectsOverride_(objects) {}

  [[nodiscard]] std::string_view name() const override {
    return "fault-recovery";
  }

  [[nodiscard]] bool run(engine::ExperimentContext& ctx,
                         engine::BenchReporter& reporter) const override {
    namespace fs = std::filesystem;
    const std::uint64_t seed = ctx.resolveSeed(15);
    const std::uint64_t requests =
        requestsOverride_ > 0
            ? static_cast<std::uint64_t>(requestsOverride_)
            : (ctx.smoke ? 2'000'000ULL : 4'000'000ULL);
    const std::size_t epochSize =
        epochOverride_ > 0 ? static_cast<std::size_t>(epochOverride_)
                           : (1u << 14);
    const int objects =
        objectsOverride_ > 0 ? static_cast<int>(objectsOverride_) : 256;
    const std::uint64_t totalEpochs =
        (requests + epochSize - 1) / epochSize;
    const std::uint64_t killEpoch = totalEpochs / 2;

    const net::Tree tree = net::makeClusterNetwork(4, 8);
    const net::RootedTree rooted(tree, tree.defaultRoot());
    ctx.os() << "E15 — fault-tolerant serving: checkpoint overhead and "
                "kill-and-restore recovery\nseed="
             << seed << ", " << requests << " requests, epoch=" << epochSize
             << ", objects=" << objects << ", threads=" << ctx.threads
             << ", kill at epoch " << killEpoch << "\n\n";

    // One materialised stream: every phase serves the same requests.
    std::vector<workload::RequestEvent> events(requests);
    {
      workload::StreamParams params;
      params.numObjects = objects;
      params.readFraction = 0.95;
      const auto stream = serve::makeGeneratedStream("skewed", tree, params,
                                                     seed, requests);
      if (stream->fill(events) != requests) {
        ctx.os() << "stream under-filled\n";
        return false;
      }
    }

    const auto makeOptions = [&] {
      serve::ServeOptions options;
      options.epochSize = epochSize;
      options.threads = ctx.threads;
      options.policy = "tree-counters";
      return options;
    };
    const auto digestOf = [&](const serve::EpochServer& server,
                              const serve::ServeReport& report) {
      std::ostringstream oss;
      oss.precision(17);
      oss << report.congestion << '|' << report.replacements << '|'
          << report.replications << '|' << report.invalidations;
      for (const core::Count load : server.loads().edgeLoads()) {
        oss << ',' << load;
      }
      for (workload::ObjectId x = 0; x < objects; ++x) {
        oss << ';';
        for (const net::NodeId v : server.copySet(x)) oss << v << ' ';
      }
      return oss.str();
    };

    struct Timed {
      double wallMs = 0.0;
      double requestsPerSec = 0.0;
      std::string digest;
      serve::ServeReport report;
    };
    // One timed run, folded into `best` as a min-of-K wall clock (the
    // digest is run-invariant; the first run's will do).
    const auto timedRun = [&](const serve::ServeOptions& options,
                              Timed& best, bool first) {
      serve::EpochServer server(rooted, objects, options);
      serve::VectorStream stream({events.begin(), events.end()});
      util::Timer timer;
      const serve::ServeReport report = server.serve(stream);
      const double wall = timer.millis();
      reporter.addTiming(wall);
      if (first || wall < best.wallMs) {
        best.wallMs = wall;
        best.requestsPerSec = report.requestsPerSec;
      }
      if (first) {
        best.digest = digestOf(server, report);
        best.report = report;
      }
    };

    const fs::path dir =
        fs::temp_directory_path() / ("hbn-e15-" + std::to_string(seed));
    fs::remove_all(dir);

    // --- Phase 1: checkpoint overhead -----------------------------------
    // A checkpoint costs a few milliseconds (rendering the frequency
    // matrix dominates), so its amortised overhead is per-checkpoint
    // cost over inter-checkpoint serve time: the cadence here is the
    // deployment-realistic one the 5% bound is stated for. The recovery
    // phase below uses a much tighter cadence — its job is correctness,
    // not cost. Baseline and checkpointed runs alternate (ABAB...), so
    // a slow stretch of a shared host lands on both sides instead of
    // on one block.
    serve::ServeOptions checkpointed = makeOptions();
    checkpointed.checkpointDir = (dir / "overhead").string();
    checkpointed.checkpointEvery = 128;
    Timed baseline;
    Timed withCkpt;
    for (int i = 0; i < kTimingRuns; ++i) {
      timedRun(makeOptions(), baseline, i == 0);
      timedRun(checkpointed, withCkpt, i == 0);
    }
    const double overheadPct =
        baseline.wallMs > 0.0
            ? (withCkpt.wallMs - baseline.wallMs) / baseline.wallMs * 100.0
            : 0.0;
    const bool checkpointNeutral = withCkpt.digest == baseline.digest;

    // --- Phase 2: kill mid-run, restore, finish -------------------------
    // The kill is a real ingest failure: one request in the middle of
    // epoch killEpoch names an object that does not exist.
    const std::string recoveryDir = (dir / "recovery").string();
    bool killed = false;
    {
      serve::ServeOptions doomed = makeOptions();
      doomed.checkpointDir = recoveryDir;
      doomed.checkpointEvery = 8;
      serve::EpochServer server(rooted, objects, doomed);
      std::vector<workload::RequestEvent> poisoned = events;
      poisoned[std::min(killEpoch * epochSize + epochSize / 2, requests - 1)]
          .object = objects;
      serve::VectorStream stream(std::move(poisoned));
      try {
        (void)server.serve(stream);
      } catch (const serve::Error& e) {
        killed = e.stage() == serve::Stage::Ingest && e.epoch() == killEpoch;
      }
    }
    double recoveryMs = 0.0;
    double restoredFromEpoch = 0.0;
    bool recoveryIdentical = false;
    if (killed) {
      util::Timer timer;
      const serve::CheckpointData data =
          serve::readCheckpointFile(serve::latestCheckpointPath(recoveryDir));
      serve::EpochServer server(rooted, objects, makeOptions());
      server.restoreFrom(data);
      serve::VectorStream stream({events.begin(), events.end()});
      serve::skipRequests(stream, data.servedTotal);
      const serve::ServeReport report = server.serve(stream);
      recoveryMs = timer.millis();
      reporter.addTiming(recoveryMs);
      restoredFromEpoch = static_cast<double>(data.epochs);
      recoveryIdentical = digestOf(server, report) == baseline.digest;
    }

    util::Table table({"phase", "wall ms", "Mreq/s", "notes"});
    table.addRow({"baseline", util::formatDouble(baseline.wallMs, 1),
                  util::formatDouble(baseline.requestsPerSec / 1e6, 2), "-"});
    table.addRow({"checkpointed", util::formatDouble(withCkpt.wallMs, 1),
                  util::formatDouble(withCkpt.requestsPerSec / 1e6, 2),
                  "overhead " + util::formatDouble(overheadPct, 2) + "%, " +
                      std::to_string(withCkpt.report.checkpoints) +
                      " checkpoints"});
    table.addRow({"kill+restore", util::formatDouble(recoveryMs, 1), "-",
                  "restored from epoch " +
                      util::formatDouble(restoredFromEpoch, 0) +
                      (recoveryIdentical ? ", digest identical"
                                         : ", DIGEST DIVERGED")});
    table.print(ctx.os());

    ctx.os() << "\ncheckpoint overhead "
             << util::formatDouble(overheadPct, 2) << "% (bound "
             << util::formatDouble(kOverheadBoundPct, 1)
             << "%); recovery " << util::formatDouble(recoveryMs, 1)
             << " ms, digest "
             << (recoveryIdentical ? "identical" : "DIVERGED") << "\n";

    reporter.beginRow();
    reporter.field("phase", std::string("baseline"));
    reporter.field("wall_ms", baseline.wallMs);
    reporter.field("requests_per_sec", baseline.requestsPerSec);
    reporter.beginRow();
    reporter.field("phase", std::string("checkpointed"));
    reporter.field("wall_ms", withCkpt.wallMs);
    reporter.field("requests_per_sec", withCkpt.requestsPerSec);
    reporter.field("checkpoint_overhead_pct", overheadPct);
    reporter.field("checkpoints",
                   static_cast<std::int64_t>(withCkpt.report.checkpoints));
    reporter.beginRow();
    reporter.field("phase", std::string("kill-restore"));
    reporter.field("kill_epoch", static_cast<std::int64_t>(killEpoch));
    reporter.field("restored_from_epoch", restoredFromEpoch);
    reporter.field("recovery_ms", recoveryMs);
    reporter.field("digest_identical", recoveryIdentical);
    reporter.beginRow("check");
    reporter.field("claim",
                   "restore after a mid-run ingest failure ends "
                   "bit-identical to an uninterrupted run");
    reporter.field("held", killed && recoveryIdentical);
    reporter.beginRow("check");
    reporter.field("claim", "checkpointing is digest-neutral");
    reporter.field("held", checkpointNeutral);
    reporter.beginRow("check");
    reporter.field("claim",
                   "checkpoint overhead stays within 5% of baseline "
                   "throughput");
    reporter.field("value", overheadPct);
    reporter.field("held", overheadPct <= kOverheadBoundPct);

    fs::remove_all(dir);
    return killed && recoveryIdentical && checkpointNeutral &&
           overheadPct <= kOverheadBoundPct;
  }

 private:
  std::int64_t requestsOverride_;
  std::int64_t epochOverride_;
  std::int64_t objectsOverride_;
};

}  // namespace

namespace detail {
void registerFaultRecovery(engine::ExperimentRegistry& registry) {
  registry.add(
      {"fault-recovery",
       "fault-tolerant serving: checkpoint overhead, and digest identity "
       "of a restore after a mid-run ingest failure",
       "E15 / robustness extension (checkpoint/restore after a mid-run "
       "ingest failure)",
       "requests=N,epoch=N,objects=N"},
      [](engine::StrategyOptions& options) {
        const std::int64_t requests = options.getInt("requests", 0);
        const std::int64_t epoch = options.getInt("epoch", 0);
        const std::int64_t objects = options.getInt("objects", 0);
        return std::make_unique<FaultRecoveryExperiment>(requests, epoch,
                                                         objects);
      },
      {"e15"});
}
}  // namespace detail

}  // namespace hbn::bench
