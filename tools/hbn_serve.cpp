// hbn_serve — the streaming request-serving frontend.
//
// Usage:
//   hbn_serve [options] [<tree-file>]
//
// Serves an online stream of read/write requests through the epoch-batched
// serving engine (hbn/serve/epoch_server.h): requests are consumed in
// epochs, sharded over worker threads by object id (bit-identical output
// for any --threads value), and between epochs the engine runs the
// policy's drift-triggered re-placement pass against the analytic
// offline lower bound of the aggregated frequencies.
//
// The serving policy is selected by --policy SPEC from the
// OnlinePolicyRegistry (--list-policies enumerates them), sharing the
// `name[:key=value,...]` grammar of --strategy specs; nested strategy
// specs compose, e.g. --policy static:placement=extended-nibble.
//
// The stream comes either from a trace file (hbn-trace v1, --trace) or
// from one of the generated profiles (--stream skewed|bursty|diurnal,
// bounded by --requests). Without a tree file a two-level cluster network
// is generated (--clusters/--procs).
#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "hbn/dynamic/online_policy.h"
#include "hbn/engine/cli.h"
#include "hbn/net/generators.h"
#include "hbn/net/serialize.h"
#include "hbn/serve/checkpoint.h"
#include "hbn/serve/epoch_server.h"
#include "hbn/serve/error.h"
#include "hbn/serve/request_stream.h"
#include "hbn/shard/coordinator.h"
#include "hbn/shard/partition.h"
#include "hbn/shard/process.h"
#include "hbn/util/json.h"
#include "hbn/util/stats.h"
#include "hbn/util/table.h"

namespace {

/// Cap for every int-typed count flag: without it the uint64→int cast
/// would silently wrap values >= 2^32.
constexpr std::uint64_t kMaxInt = std::numeric_limits<int>::max();

struct ServeCli {
  std::string trace;            ///< trace file; empty = generated stream
  std::string stream = "skewed";
  std::uint64_t requests = 1'000'000;
  std::size_t epoch = 1 << 16;
  int objects = 1024;
  int clusters = 4;
  int procs = 8;                ///< processors per cluster
  double drift = 3.0;
  bool pipeline = true;            ///< pipelined (vs barrier) engine
  std::size_t latencySample = 4096;  ///< latency reservoir capacity
  double reads = 0.9;              ///< stream read fraction
  std::string policy;           ///< policy spec; empty = tree-counters
  bool listPolicies = false;
  std::string jsonOut;          ///< empty = no JSON report
  std::string checkpointDir;    ///< empty = checkpointing off
  std::uint64_t checkpointEvery = 1;
  std::string restoreDir;       ///< resume from this checkpoint dir
  double peerTimeout = 0.0;     ///< shard peer watchdog ms; 0 = forever
  int workers = 0;              ///< sharded workers; 0 = single-process
  std::string transport = "loopback";  ///< loopback | socket
  std::string partition = "hash";      ///< hash | range
  hbn::engine::CliOptions shared;
};

/// Strict double flag parser matching parseUintFlag's discipline: the
/// whole text must be one finite number inside [lo, hi] — '2x', 'nan',
/// and '' are errors, not partial parses.
double parseDoubleFlag(const std::string& flag, const std::string& text,
                       double lo, double hi) {
  double value = 0.0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end || !std::isfinite(value) ||
      value < lo || value > hi) {
    std::ostringstream range;
    range << flag << " expects a number in [" << lo << ", " << hi
          << "], got '" << text << "'";
    throw std::invalid_argument(range.str());
  }
  return value;
}

ServeCli parseServeCli(int argc, char** argv) {
  ServeCli cli;
  std::vector<char*> rest;
  rest.reserve(static_cast<std::size_t>(argc));
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const std::string& flag) -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument(flag + " expects a value");
      }
      return argv[++i];
    };
    if (arg == "--trace") {
      cli.trace = value(arg);
    } else if (arg == "--stream") {
      cli.stream = value(arg);
    } else if (arg == "--requests" || arg == "-n") {
      cli.requests = hbn::engine::parseUintFlag(arg, value(arg));
    } else if (arg == "--epoch" || arg == "-e") {
      const std::uint64_t epoch =
          hbn::engine::parseUintFlag(arg, value(arg));
      if (epoch < 1) throw std::invalid_argument("--epoch expects >= 1");
      cli.epoch = static_cast<std::size_t>(epoch);
    } else if (arg == "--objects") {
      cli.objects = static_cast<int>(
          hbn::engine::parseUintFlag(arg, value(arg), kMaxInt));
    } else if (arg == "--clusters") {
      cli.clusters = static_cast<int>(
          hbn::engine::parseUintFlag(arg, value(arg), kMaxInt));
    } else if (arg == "--procs") {
      cli.procs = static_cast<int>(
          hbn::engine::parseUintFlag(arg, value(arg), kMaxInt));
    } else if (arg == "--reads") {
      cli.reads = parseDoubleFlag(arg, value(arg), 0.0, 1.0);
    } else if (arg == "--policy") {
      cli.policy = value(arg);
    } else if (arg == "--list-policies") {
      cli.listPolicies = true;
    } else if (arg == "--drift") {
      cli.drift = parseDoubleFlag(arg, value(arg), 0.0, 1e9);
    } else if (arg == "--pipeline" || arg.rfind("--pipeline=", 0) == 0) {
      const std::string mode =
          arg == "--pipeline" ? value(arg) : arg.substr(11);
      if (mode == "on") {
        cli.pipeline = true;
      } else if (mode == "off") {
        cli.pipeline = false;
      } else {
        throw std::invalid_argument("--pipeline expects on|off, got '" +
                                    mode + "'");
      }
    } else if (arg == "--latency-sample" ||
               arg.rfind("--latency-sample=", 0) == 0) {
      const std::string text =
          arg == "--latency-sample" ? value(arg) : arg.substr(17);
      cli.latencySample = static_cast<std::size_t>(
          hbn::engine::parseUintFlag("--latency-sample", text));
    } else if (arg == "--json") {
      cli.jsonOut = value(arg);
    } else if (arg == "--checkpoint-dir") {
      cli.checkpointDir = value(arg);
    } else if (arg == "--checkpoint-every") {
      cli.checkpointEvery = hbn::engine::parseUintFlag(arg, value(arg));
      if (cli.checkpointEvery < 1) {
        throw std::invalid_argument("--checkpoint-every expects >= 1");
      }
    } else if (arg == "--restore") {
      cli.restoreDir = value(arg);
    } else if (arg == "--peer-timeout") {
      cli.peerTimeout = parseDoubleFlag(arg, value(arg), 0.0, 1e9);
    } else if (arg == "--workers" || arg.rfind("--workers=", 0) == 0) {
      const std::string text =
          arg == "--workers" ? value(arg) : arg.substr(10);
      cli.workers = static_cast<int>(
          hbn::engine::parseUintFlag("--workers", text, kMaxInt));
    } else if (arg == "--transport" || arg.rfind("--transport=", 0) == 0) {
      cli.transport = arg == "--transport" ? value(arg) : arg.substr(12);
      if (cli.transport != "loopback" && cli.transport != "socket") {
        throw std::invalid_argument(
            "--transport expects loopback|socket, got '" + cli.transport +
            "'");
      }
    } else if (arg == "--partition" || arg.rfind("--partition=", 0) == 0) {
      cli.partition = arg == "--partition" ? value(arg) : arg.substr(12);
      (void)hbn::shard::parsePartitionKind(cli.partition);  // validate
    } else {
      rest.push_back(argv[i]);
    }
  }
  cli.shared = hbn::engine::parseCli(static_cast<int>(rest.size()),
                                     rest.data());
  return cli;
}

void printUsage(std::ostream& os) {
  os << "usage: hbn_serve [options] [<tree-file>]\n"
        "\n"
        "Streams requests through the epoch-batched serving engine and\n"
        "reports throughput, epoch latency, and the realised-congestion\n"
        "ratio against the offline lower bound.\n"
        "\n"
        "options:\n"
        "  --trace FILE      serve a trace file (hbn-trace v1) instead of\n"
        "                    a generated stream\n"
        "  --stream NAME     generated stream profile: skewed | bursty |\n"
        "                    diurnal | phase-shift (default skewed)\n"
        "  --requests N      generated stream length (default 1000000)\n"
        "  --epoch N         requests per epoch (default 65536)\n"
        "  --objects N       shared objects for generated streams\n"
        "                    (default 1024)\n"
        "  --clusters N      generated topology: cluster count (default 4)\n"
        "  --procs N         processors per cluster (default 8)\n"
        "  --reads F         generated stream read fraction (default 0.9)\n"
        "  --policy SPEC     online policy spec (default tree-counters);\n"
        "                    nested strategy specs compose, e.g.\n"
        "                    static:placement=extended-nibble\n"
        "  --list-policies   list registered policies and exit\n"
        "  --drift F         re-place when congestion growth > F x lower-\n"
        "                    bound growth since the last re-placement;\n"
        "                    0 disables (default 3.0)\n"
        "  --pipeline MODE   on (default): threaded double-buffered ingest\n"
        "                    plus lazy per-object re-placement; off:\n"
        "                    barrier engine (same results, spikier tails)\n"
        "  --latency-sample N  request-latency reservoir capacity for the\n"
        "                    p50/p99/p999 metrics; 0 disables (default 4096)\n"
        "  --checkpoint-dir D  write epoch-boundary checkpoints\n"
        "                    (hbn-checkpoint v1) into D; restore with\n"
        "                    --restore D after a crash\n"
        "  --checkpoint-every K  epochs between checkpoints (default 1)\n"
        "  --restore D       resume from the latest checkpoint in D (the\n"
        "                    stream is rebuilt and the served prefix\n"
        "                    skipped; the resumed run's final state is\n"
        "                    bit-identical to an uninterrupted one)\n"
        "  --workers N       shard the object space over N workers and\n"
        "                    serve through the coordinator/worker protocol\n"
        "                    (docs/sharding.md); 0 = single-process engine\n"
        "                    (default). Bit-identical loads and ratio for\n"
        "                    any N. Each worker serves on one thread, so\n"
        "                    --threads must stay 1. Incompatible with\n"
        "                    --checkpoint-dir and --restore.\n"
        "  --transport T     worker transport: loopback (in-process\n"
        "                    threads) | socket (fork+exec'd processes over\n"
        "                    Unix sockets); default loopback\n"
        "  --partition P     object partition: hash (seeded stable hash) |\n"
        "                    range (contiguous blocks); default hash\n"
        "  --peer-timeout MS  with --workers: a worker silent for MS fails\n"
        "                    the run with exit 17; 0 waits forever\n"
        "                    (default)\n"
        "  --json FILE       also write the serve report as JSON records\n"
        "  --threads N       worker threads (0 = all cores)\n"
        "  --seed N          stream RNG seed\n"
        "  --help            show this text\n"
        "\n"
        "exit codes: 0 ok, 1 error, 2 usage/bad input; stage failures:\n"
        "  10 ingest, 11 serve, 12 handoff, 13 checkpoint, 14 restore,\n"
        "  15 connect, 16 frame, 17 peer (see docs/robustness.md)\n"
        "\n"
        "policies:\n"
     << hbn::dynamic::OnlinePolicyRegistry::global().helpText();
}

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream oss;
  oss << in.rdbuf();
  return oss.str();
}

/// Prints a finished run's epoch table and text summary and, with
/// --json, writes its epoch and summary records. `sharded` is `report`
/// itself for a sharded run (null otherwise), which adds the shard
/// table, the traffic line and the sharded summary keys.
void printReport(const ServeCli& cli, const hbn::serve::ServeOptions& options,
                 std::uint64_t seed, const hbn::serve::ServeReport& report,
                 const std::vector<hbn::serve::EpochRecord>& log,
                 const hbn::shard::ShardedReport* sharded) {
  using namespace hbn;
  util::Table epochs({"epoch", "requests", "ms", "congestion", "lower bound",
                      "ratio", "re-placed", "ckpt"});
  // The log can run to thousands of epochs; print the first and last
  // few, eliding the middle.
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (log.size() > 12 && i == 6) {
      epochs.addRow(
          {"...", "...", "...", "...", "...", "...", "...", "..."});
    }
    if (log.size() > 12 && i >= 6 && i + 6 < log.size()) continue;
    const serve::EpochRecord& r = log[i];
    epochs.addRow({std::to_string(r.index), std::to_string(r.requests),
                   util::formatDouble(r.wallMs, 1),
                   util::formatDouble(r.congestion, 1),
                   util::formatDouble(r.lowerBound, 1),
                   util::formatDouble(r.ratio, 2), r.replaced ? "yes" : "",
                   r.checkpointed ? "yes" : ""});
  }
  epochs.print(std::cout);

  if (sharded != nullptr) {
    util::Table shardsTable({"shard", "requests", "busy ms", "replications",
                             "invalidations", "bytes in", "bytes out"});
    for (const shard::ShardBreakdown& b : sharded->shards) {
      shardsTable.addRow(
          {std::to_string(b.shard), std::to_string(b.requests),
           util::formatDouble(b.busyMs, 1), std::to_string(b.replications),
           std::to_string(b.invalidations), std::to_string(b.bytesToWorker),
           std::to_string(b.bytesFromWorker)});
    }
    std::cout << "\n";
    shardsTable.print(std::cout);
  }

  std::cout << "\nserved " << report.totalRequests << " requests in "
            << report.epochs << " epochs, "
            << util::formatDouble(report.wallMs, 1) << " ms ("
            << util::formatDouble(report.requestsPerSec / 1e6, 2)
            << " M req/s)\n"
            << "epoch latency p50/p99/p999: "
            << util::formatDouble(report.epochMsP50, 2) << " / "
            << util::formatDouble(report.epochMsP99, 2) << " / "
            << util::formatDouble(report.epochMsP999, 2) << " ms\n"
            << "request latency p50/p99/p999: "
            << util::formatDouble(report.latencyMsP50, 2) << " / "
            << util::formatDouble(report.latencyMsP99, 2) << " / "
            << util::formatDouble(report.latencyMsP999, 2) << " ms ("
            << report.latencySamples << " sampled)\n"
            << "congestion " << util::formatDouble(report.congestion, 1)
            << " vs offline lower bound "
            << util::formatDouble(report.lowerBound, 1) << " — ratio "
            << util::formatDouble(report.ratio, 2) << "\n"
            << report.replacements << " re-placements, "
            << report.replications << " replications, "
            << report.invalidations << " invalidations\n"
            << report.checkpoints << " checkpoints\n";
  if (sharded != nullptr) {
    std::cout << "cross-shard traffic " << sharded->crossShardBytes
              << " bytes (" << util::formatDouble(sharded->bytesPerRequest, 1)
              << " bytes/request), critical path "
              << util::formatDouble(sharded->criticalPathMs, 1) << " ms\n";
  }

  if (cli.jsonOut.empty()) return;
  // Ratio fields may be +inf (positive congestion against a zero lower
  // bound); JsonRecords emits non-finite doubles as null and parses null
  // back to NaN, so emit→parse→emit of such records is a fixed point
  // (pinned by tests/serve_test.cpp).
  util::JsonRecords records;
  for (const serve::EpochRecord& r : log) {
    records.beginRecord();
    records.field("kind", "epoch");
    records.field("epoch", static_cast<std::int64_t>(r.index));
    records.field("requests", static_cast<std::int64_t>(r.requests));
    records.field("wall_ms", r.wallMs);
    records.field("congestion", r.congestion);
    records.field("lower_bound", r.lowerBound);
    records.field("ratio", r.ratio);
    records.field("latency_ms_p50", r.latencyMsP50);
    records.field("latency_ms_p99", r.latencyMsP99);
    records.field("latency_ms_p999", r.latencyMsP999);
    records.field("replaced", r.replaced);
    records.field("checkpointed", r.checkpointed);
  }
  if (sharded != nullptr) {
    for (const shard::ShardBreakdown& b : sharded->shards) {
      records.beginRecord();
      records.field("kind", "shard");
      records.field("shard", static_cast<std::int64_t>(b.shard));
      records.field("requests", static_cast<std::int64_t>(b.requests));
      records.field("busy_ms", b.busyMs);
      records.field("replications",
                    static_cast<std::int64_t>(b.replications));
      records.field("invalidations",
                    static_cast<std::int64_t>(b.invalidations));
      records.field("bytes_to_worker",
                    static_cast<std::int64_t>(b.bytesToWorker));
      records.field("bytes_from_worker",
                    static_cast<std::int64_t>(b.bytesFromWorker));
      for (const auto& [key, value] : b.policyMetrics) {
        records.field(key, value);
      }
    }
  }
  records.beginRecord();
  records.field("kind", "summary");
  records.field("policy", report.policy);
  records.field("pipeline", report.pipeline);
  records.field("latency_sample",
                static_cast<std::int64_t>(cli.latencySample));
  records.field("requests", static_cast<std::int64_t>(report.totalRequests));
  records.field("epochs", static_cast<std::int64_t>(report.epochs));
  records.field("wall_ms", report.wallMs);
  records.field("requests_per_sec", report.requestsPerSec);
  records.field("epoch_ms_p50", report.epochMsP50);
  records.field("epoch_ms_p99", report.epochMsP99);
  records.field("epoch_ms_p999", report.epochMsP999);
  records.field("latency_ms_p50", report.latencyMsP50);
  records.field("latency_ms_p99", report.latencyMsP99);
  records.field("latency_ms_p999", report.latencyMsP999);
  records.field("latency_samples",
                static_cast<std::int64_t>(report.latencySamples));
  records.field("congestion", report.congestion);
  records.field("lower_bound", report.lowerBound);
  records.field("ratio", report.ratio);
  records.field("replacements",
                static_cast<std::int64_t>(report.replacements));
  records.field("replications",
                static_cast<std::int64_t>(report.replications));
  records.field("invalidations",
                static_cast<std::int64_t>(report.invalidations));
  records.field("checkpoints", static_cast<std::int64_t>(report.checkpoints));
  records.field("seed", static_cast<std::int64_t>(seed));
  records.field("threads", options.threads);
  if (sharded != nullptr) {
    records.field("transport", sharded->transport);
    records.field("partition", sharded->partition);
    records.field("workers", static_cast<std::int64_t>(sharded->workers));
    records.field("critical_path_ms", sharded->criticalPathMs);
    records.field("cross_shard_bytes",
                  static_cast<std::int64_t>(sharded->crossShardBytes));
    records.field("bytes_per_request", sharded->bytesPerRequest);
  }
  // The policy's own diagnostics, keys already "policy."-prefixed.
  for (const auto& [key, value] : report.policyMetrics) {
    records.field(key, value);
  }
  records.writeFile(cli.jsonOut);
  std::cout << "wrote " << cli.jsonOut << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hbn;
  // Worker mode: when spawned by an exec cluster with
  // --shard-worker-fd=K this process IS a shard worker; it speaks the
  // wire protocol over fd K and exits with the stage code on failure.
  if (const int code = shard::maybeRunWorkerMain(argc, argv); code >= 0) {
    return code;
  }
  try {
    const ServeCli cli = parseServeCli(argc, argv);
    if (cli.shared.help) {
      printUsage(std::cout);
      return 0;
    }
    if (cli.listPolicies) {
      std::cout << "policies:\n"
                << dynamic::OnlinePolicyRegistry::global().helpText();
      return 0;
    }
    if (cli.shared.positional.size() > 1) {
      printUsage(std::cerr);
      return 2;
    }
    if (!cli.shared.strategies.empty()) {
      throw std::invalid_argument(
          "hbn_serve serves through --policy; --strategy is not accepted "
          "(nest it: --policy static:placement=SPEC)");
    }
    if (cli.workers > 0 &&
        (!cli.checkpointDir.empty() || !cli.restoreDir.empty())) {
      throw std::invalid_argument(
          "--workers is incompatible with --checkpoint-dir/--restore: "
          "checkpointing is a single-process feature (see "
          "docs/sharding.md)");
    }
    if (cli.workers == 0 && cli.peerTimeout > 0.0) {
      throw std::invalid_argument(
          "--peer-timeout needs --workers: it is the shard coordinator's "
          "peer watchdog");
    }
    // When resuming, load the snapshot before anything else: it decides
    // the policy (absent --policy) and the object count for
    // generated streams, so a bare `--restore D` resumes faithfully.
    std::optional<serve::CheckpointData> restored;
    if (!cli.restoreDir.empty()) {
      try {
        restored = serve::readCheckpointFile(
            serve::latestCheckpointPath(cli.restoreDir));
      } catch (const serve::Error&) {
        throw;
      } catch (const std::exception& e) {
        throw serve::Error(serve::Stage::Restore, 0, e.what());
      }
    }

    const std::string policySpec = !cli.policy.empty() ? cli.policy
                                   : restored          ? restored->policySpec
                                                       : "tree-counters";

    const net::Tree tree =
        cli.shared.positional.empty()
            ? net::makeClusterNetwork(cli.clusters, cli.procs)
            : net::parseText(readFile(cli.shared.positional.front()));
    const net::RootedTree rooted(tree, tree.defaultRoot());
    const std::uint64_t seed = cli.shared.seedSet ? cli.shared.seed : 12;

    std::unique_ptr<serve::RequestStream> stream;
    int numObjects = restored ? restored->numObjects : cli.objects;
    if (!cli.trace.empty()) {
      auto traceStream = std::make_unique<serve::TraceFileStream>(cli.trace);
      if (traceStream->numNodes() != tree.nodeCount()) {
        throw std::runtime_error("trace node count does not match tree");
      }
      numObjects = traceStream->numObjects();
      stream = std::move(traceStream);
    } else {
      workload::StreamParams params;
      params.numObjects = numObjects;
      params.readFraction = cli.reads;
      stream = serve::makeGeneratedStream(cli.stream, tree, params, seed,
                                          cli.requests);
    }

    serve::ServeOptions options;
    options.epochSize = cli.epoch;
    options.threads = cli.shared.threads;
    options.replaceDrift = cli.drift;
    options.policy = policySpec;
    options.pipeline = cli.pipeline;
    options.latencySample = cli.latencySample;
    options.checkpointDir = cli.checkpointDir;
    options.checkpointEvery = cli.checkpointEvery;

    if (cli.workers > 0) {
      // Sharded mode: fan the stream out over a worker cluster through
      // the coordinator/worker wire protocol (docs/sharding.md). The
      // merged loads and ratio are bit-identical to the single-process
      // engine below for any worker count.
      shard::ShardOptions sharded;
      sharded.serve = options;
      sharded.partition = shard::parsePartitionKind(cli.partition);
      sharded.partitionSeed = seed;
      sharded.peerTimeoutMs = cli.peerTimeout;
      std::unique_ptr<shard::ShardCluster> cluster =
          cli.transport == "loopback"
              ? shard::makeLoopbackCluster(cli.workers)
              : shard::makeExecCluster(cli.workers);
      shard::ShardCoordinator coordinator(tree, numObjects, sharded,
                                          cluster->links(), cli.transport);

      std::cout << "serving "
                << (cli.trace.empty() ? "stream '" + cli.stream + "'"
                                      : "trace " + cli.trace)
                << " over " << tree.processorCount() << " processors, "
                << numObjects << " objects, " << cli.workers
                << " shard workers (policy=" << policySpec
                << ", transport=" << cli.transport
                << ", partition=" << cli.partition
                << ", epoch=" << cli.epoch << ", seed=" << seed
                << ", drift=" << cli.drift << ")\n\n";

      const shard::ShardedReport report = coordinator.serve(*stream);
      cluster->join();
      printReport(cli, options, seed, report, coordinator.epochLog(),
                  &report);
      return 0;
    }

    serve::EpochServer server(rooted, numObjects, options);

    if (restored) {
      try {
        server.restoreFrom(*restored);
        serve::skipRequests(*stream, restored->servedTotal);
      } catch (const serve::Error&) {
        throw;
      } catch (const std::exception& e) {
        throw serve::Error(serve::Stage::Restore, restored->epochs, e.what());
      }
      std::cout << "restored from " << cli.restoreDir << ": epoch "
                << restored->epochs << ", " << restored->servedTotal
                << " requests already served\n";
    }

    std::cout << "serving "
              << (cli.trace.empty() ? "stream '" + cli.stream + "'"
                                    : "trace " + cli.trace)
              << " over " << tree.processorCount() << " processors, "
              << numObjects << " objects (policy=" << policySpec
              << ", epoch=" << cli.epoch
              << ", threads=" << options.threads << ", seed=" << seed
              << ", drift=" << cli.drift
              << ", pipeline=" << (cli.pipeline ? "on" : "off") << ")\n\n";

    const serve::ServeReport report = server.serve(*stream);
    printReport(cli, options, seed, report, server.epochLog(), nullptr);
    return 0;
  } catch (const serve::Error& e) {
    // Stage failures carry their own exit code (10-14, one per stage —
    // see docs/robustness.md) so supervisors can tell a corrupt trace
    // from a failed checkpoint without parsing stderr.
    std::cerr << "error: " << e.what() << "\n";
    return e.exitCode();
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
