#include "runner.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>

#include "hbn/core/parallel.h"
#include "hbn/net/rooted.h"
#include "hbn/serve/epoch_server.h"
#include "hbn/serve/error.h"
#include "hbn/shard/coordinator.h"
#include "hbn/shard/process.h"
#include "replay.h"
#include "streams.h"
#include "trace.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

using hbn::core::Count;
using hbn::workload::RequestEvent;
namespace fs = std::filesystem;

double secondsSince(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

/// `pct` percentile (0..100) of `values` by nearest rank; 0 when empty.
double percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = pct / 100.0 * static_cast<double>(values.size());
  auto index = static_cast<std::size_t>(std::ceil(rank));
  index = std::clamp<std::size_t>(index, 1, values.size());
  return values[index - 1];
}

// ---------------------------------------------------------------------------
// Resident memory, from /proc.
// ---------------------------------------------------------------------------

/// A "<key>:   N kB" field of /proc/<pid>/status; 0 when unreadable
/// (e.g. the process has exited).
double statusKb(const std::string& pid, const std::string& key) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      return std::strtod(line.c_str() + key.size() + 1, nullptr);
    }
  }
  return 0.0;
}

/// Makes VmHWM restart from the current resident size, so the peak
/// measures one serve run rather than the process lifetime.
void resetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

/// Host CPU time so far, from the first line of /proc/stat: the total
/// and the part the hypervisor gave to other guests (steal).
struct CpuTimes {
  double total = 0.0;
  double steal = 0.0;
};

CpuTimes hostCpuTimes() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTimes times;
  for (int field = 0; field < 8; ++field) {
    double ticks = 0.0;
    if (!(in >> ticks)) break;
    times.total += ticks;
    if (field == 7) times.steal = ticks;
  }
  return times;
}

/// Live child processes of this process (the exec'd shard workers).
std::vector<std::string> childPids() {
  const std::string self = std::to_string(::getpid());
  std::vector<std::string> pids;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator("/proc", ec)) {
    const std::string name = entry.path().filename().string();
    if (name.empty() ||
        !std::all_of(name.begin(), name.end(),
                     [](char c) { return c >= '0' && c <= '9'; })) {
      continue;
    }
    std::ifstream in(entry.path() / "stat");
    std::string stat;
    std::getline(in, stat);
    // pid (comm) state ppid ...: comm may hold spaces, so parse after ')'.
    const std::size_t close = stat.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream rest(stat.substr(close + 1));
    std::string state;
    std::string ppid;
    rest >> state >> ppid;
    if (ppid == self) pids.push_back(name);
  }
  return pids;
}

// ---------------------------------------------------------------------------
// One serve of the whole input.
// ---------------------------------------------------------------------------

/// Records a span around every fill the engine makes on the stream.
class TracingStream final : public hbn::serve::RequestStream {
 public:
  TracingStream(hbn::serve::RequestStream& inner, Tracer& tracer, int parent)
      : inner_(inner), tracer_(tracer), parent_(parent) {}
  [[nodiscard]] std::size_t fill(std::span<RequestEvent> out) override {
    Tracer::Scope span(tracer_, "serve.fill", parent_);
    return inner_.fill(out);
  }

 private:
  hbn::serve::RequestStream& inner_;
  Tracer& tracer_;
  int parent_;
};

struct ServeOutcome {
  bool ok = false;
  std::string error;
  std::uint64_t served = 0;     ///< requests the engine reports served
  std::uint64_t handedOut = 0;  ///< requests the stream handed out
  double setupS = 0.0;
  double wallS = 0.0;
  double rssMb = 0.0;
  double latencyP50 = 0.0;
  double latencyP99 = 0.0;
  std::uint64_t latencySamples = 0;
  double lagP99 = 0.0;
  double lagMaxMs = 0.0;
  double lagEndMs = 0.0;  ///< lag of the last event
  std::uint64_t lagSamples = 0;
  double congestion = 0.0;
  std::vector<Count> loads;
  Count replications = 0;
  Count invalidations = 0;
  std::vector<hbn::serve::EpochRecord> epochLog;
  std::uint64_t replacements = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t degradedEpochs = 0;
  double launchMs = 0.0;
  double bytesPerRequest = 0.0;
  double criticalPathMs = 0.0;
  double busyImbalance = 0.0;
};

enum class EngineKind {
  /// Untimed reference: barrier engine, one thread, unpaced, in-process.
  Reference,
  /// The workload's own configuration.
  Workload,
};

hbn::serve::ServeOptions serveOptions(const WorkloadSpec& spec,
                                      EngineKind kind,
                                      const std::string& checkpointDir) {
  hbn::serve::ServeOptions options;
  options.epochSize = spec.epochSize;
  options.policy = spec.policy;
  options.threads = kind == EngineKind::Reference ? 1 : spec.threads;
  options.pipeline = kind != EngineKind::Reference;
  if (spec.checkpointEvery > 0 && spec.shardWorkers == 0) {
    options.checkpointDir = checkpointDir;
    options.checkpointEvery = spec.checkpointEvery;
  }
  return options;
}

ServeOutcome serveOnce(const WorkloadSpec& spec,
                       std::span<const RequestEvent> input,
                       std::uint64_t seed, EngineKind kind,
                       const std::string& checkpointDir, Tracer* tracer) {
  ServeOutcome out;
  const bool sharded = kind == EngineKind::Workload && spec.shardWorkers > 0;
  const bool paced = kind == EngineKind::Workload && spec.offeredRate > 0.0;
  std::optional<PrebuiltStream> prebuilt;
  std::optional<PacedStream> pacedStream;
  hbn::serve::RequestStream* stream = nullptr;
  if (paced) {
    stream = &pacedStream.emplace(input, spec.offeredRate);
  } else {
    stream = &prebuilt.emplace(input);
  }
  std::error_code ec;
  fs::remove_all(checkpointDir, ec);

  ::malloc_trim(0);
  const double baseKb = statusKb("self", "VmRSS");
  resetPeakRss();
  double workerKb = 0.0;
  try {
    const Clock::time_point setupStart = Clock::now();
    const int setupSpan = tracer ? tracer->begin("run.setup") : -1;
    const hbn::net::Tree tree = benchTopology();
    const hbn::net::RootedTree rooted(tree, tree.defaultRoot());
    const hbn::serve::ServeOptions options =
        serveOptions(spec, kind, checkpointDir);
    if (sharded) {
      const Clock::time_point launchStart = Clock::now();
      const int launchSpan =
          tracer ? tracer->begin("shard.launch", setupSpan) : -1;
      std::unique_ptr<hbn::shard::ShardCluster> cluster =
          hbn::shard::makeExecCluster(spec.shardWorkers);
      if (tracer) tracer->end(launchSpan);
      out.launchMs = secondsSince(launchStart) * 1e3;
      hbn::shard::ShardOptions shardOptions;
      shardOptions.serve = options;
      shardOptions.partition = hbn::shard::Partition::Kind::Hash;
      shardOptions.partitionSeed = seed;
      hbn::shard::ShardCoordinator coordinator(tree, spec.numObjects,
                                               shardOptions, cluster->links(),
                                               "socket");
      if (tracer) tracer->end(setupSpan);
      out.setupS = secondsSince(setupStart);

      // Worker peaks are read while the workers are still connected:
      // when the coordinator first finds the input exhausted.
      const std::vector<std::string> workers = childPids();
      prebuilt->onExhausted([&workers, &workerKb] {
        for (const std::string& pid : workers) {
          workerKb += statusKb(pid, "VmHWM");
        }
      });
      const int serveSpan = tracer ? tracer->begin("serve.serve") : -1;
      std::optional<TracingStream> traced;
      if (tracer) stream = &traced.emplace(*stream, *tracer, serveSpan);
      const Clock::time_point serveStart = Clock::now();
      const hbn::shard::ShardedReport report = coordinator.serve(*stream);
      cluster->join();
      out.wallS = secondsSince(serveStart);
      if (tracer) tracer->end(serveSpan);
      out.served = report.totalRequests;
      out.latencyP50 = report.epochMsP50;
      out.latencyP99 = report.epochMsP99;
      out.latencySamples = report.epochs;
      out.congestion = report.congestion;
      out.loads.assign(coordinator.loads().edgeLoads().begin(),
                       coordinator.loads().edgeLoads().end());
      out.replications = report.replications;
      out.invalidations = report.invalidations;
      out.epochLog = coordinator.epochLog();
      out.replacements = report.replacements;
      out.bytesPerRequest = report.bytesPerRequest;
      out.criticalPathMs = report.criticalPathMs;
      double busiest = 0.0;
      double busySum = 0.0;
      for (const hbn::shard::ShardBreakdown& shard : report.shards) {
        busiest = std::max(busiest, shard.busyMs);
        busySum += shard.busyMs;
      }
      out.busyImbalance =
          busySum > 0.0 ? busiest * static_cast<double>(report.shards.size()) /
                              busySum
                        : 0.0;
    } else {
      hbn::serve::EpochServer server(rooted, spec.numObjects, options);
      if (tracer) tracer->end(setupSpan);
      out.setupS = secondsSince(setupStart);
      const int serveSpan = tracer ? tracer->begin("serve.serve") : -1;
      std::optional<TracingStream> traced;
      if (tracer) stream = &traced.emplace(*stream, *tracer, serveSpan);
      const Clock::time_point serveStart = Clock::now();
      const hbn::serve::ServeReport report = server.serve(*stream);
      out.wallS = secondsSince(serveStart);
      if (tracer) tracer->end(serveSpan);
      out.served = report.totalRequests;
      out.latencyP50 = report.latencyMsP50;
      out.latencyP99 = report.latencyMsP99;
      out.latencySamples = report.latencySamples;
      out.congestion = report.congestion;
      out.loads.assign(server.loads().edgeLoads().begin(),
                       server.loads().edgeLoads().end());
      out.replications = report.replications;
      out.invalidations = report.invalidations;
      out.epochLog = server.epochLog();
      out.replacements = report.replacements;
      out.checkpoints = report.checkpoints;
      out.degradedEpochs = report.degradedEpochs;
    }
    out.rssMb = (statusKb("self", "VmHWM") - baseKb + workerKb) / 1024.0;
    out.ok = true;
  } catch (const hbn::serve::Error& e) {
    out.error = std::string("serve::Error: ") + e.what();
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  out.handedOut = paced ? pacedStream->handedOut() : prebuilt->handedOut();
  if (paced) {
    const std::span<const float> lag = pacedStream->lagMs();
    out.lagP99 = percentile(std::vector<double>(lag.begin(), lag.end()), 99.0);
    if (!lag.empty()) {
      out.lagMaxMs = *std::max_element(lag.begin(), lag.end());
      out.lagEndMs = lag.back();
    }
    out.lagSamples = lag.size();
  }
  fs::remove_all(checkpointDir, ec);
  return out;
}

/// Why `run` does not reproduce `reference`; empty when it does.
std::string outputMismatch(const ServeOutcome& run,
                           const ServeOutcome& reference,
                           std::uint64_t offered) {
  if (!run.ok) return run.error;
  if (run.served != offered || run.handedOut != offered) {
    return "served " + std::to_string(run.served) + " / handed out " +
           std::to_string(run.handedOut) + " of " + std::to_string(offered);
  }
  if (run.loads != reference.loads) return "final loads differ from reference";
  if (run.congestion != reference.congestion) {
    return "congestion differs from reference";
  }
  if (run.replications != reference.replications ||
      run.invalidations != reference.invalidations) {
    return "replication/invalidation counts differ from reference";
  }
  return {};
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return os.str();
}

std::string jsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i ? ", " : "") + jsonNumber(values[i]);
  }
  return out + "]";
}

struct Metric {
  double value;
  const char* unit;
};

std::string metricsJson(const std::vector<std::string>& names,
                        const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  for (const std::string& name : names) {
    const Metric& m = metrics.at(name);
    if (out.size() > 1) out += ", ";
    out += jsonString(name) + ": {\"value\": " + jsonNumber(m.value) +
           ", \"unit\": " + jsonString(m.unit) + "}";
  }
  return out + "}";
}

const WorkloadSpec& findWorkload(const std::vector<WorkloadSpec>& all,
                                 const std::string& name) {
  for (const WorkloadSpec& spec : all) {
    if (spec.name == name) return spec;
  }
  std::string known;
  for (const WorkloadSpec& spec : all) known += " " + spec.name;
  throw std::invalid_argument("unknown workload '" + name + "'; known:" +
                              known);
}

int hostCores() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

const char* const kReplayStages[] = {
    "serve.bucket",       "dynamic.serve",   "core.lower_bound",
    "workload.aggregate", "core.congestion", "dynamic.handoff",
    "serve.checkpoint"};

/// Offered and failed request counts and output-check problems.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  /// Counts one engine run of `offered` requests against the reference.
  void check(const std::string& label, const ServeOutcome& run,
             const ServeOutcome& reference, std::uint64_t offered) {
    attempted += offered;
    const std::string mismatch = outputMismatch(run, reference, offered);
    if (!mismatch.empty()) {
      failed += offered;
      problems.push_back(label + ": " + mismatch);
    }
  }
};

/// What the traced run takes from the rest of the run.
struct TraceInputs {
  const WorkloadSpec& spec;
  std::span<const RequestEvent> input;
  std::uint64_t seed;
  const ServeOutcome& reference;
  double medianWallS;  ///< median serve wall of the timed reps
  double generateMreqS;
  std::string checkpointDir;
  std::string traceFile;  ///< where the Chrome trace is written
};

/// The traced run: the engine once more with spans around every fill and
/// the serve call, then the outside-in layer replay and the probes.
std::map<std::string, Metric> tracedMetrics(const TraceInputs& in,
                                            Tally& tally) {
  Tracer tracer;
  const ServeOutcome traced =
      serveOnce(in.spec, in.input, in.seed, EngineKind::Workload,
                in.checkpointDir, &tracer);
  tally.check("traced run", traced, in.reference, in.input.size());
  const hbn::net::Tree tree = benchTopology();
  const hbn::net::RootedTree rooted(tree, tree.defaultRoot());
  const int replaySpan = tracer.begin("replay");
  const ReplayOutcome replay =
      replayLayers(rooted, in.spec, in.input, traced.epochLog,
                   in.checkpointDir, tracer, replaySpan);
  tracer.end(replaySpan);
  std::error_code ec;
  fs::remove_all(in.checkpointDir, ec);
  const bool replayVerified =
      replay.loads == in.reference.loads &&
      replay.replications == in.reference.replications &&
      replay.invalidations == in.reference.invalidations &&
      replay.handoffs == traced.replacements &&
      (in.spec.shardWorkers > 0 || replay.checkpoints == traced.checkpoints);
  if (!replayVerified) {
    tally.problems.push_back("layer replay does not reproduce the engine");
  }

  std::map<std::string, Metric> metrics;
  std::vector<double> fanoutUs;
  for (int i = 0; i < 11; ++i) {
    Tracer::Scope span(tracer, "core.fanout");
    const Clock::time_point start = Clock::now();
    hbn::core::parallelForObjects(
        in.spec.numObjects, in.spec.threads,
        [](hbn::workload::ObjectId x, int) { asm volatile("" : : "r"(x)); });
    fanoutUs.push_back(secondsSince(start) * 1e6);
  }

  std::vector<double> epochMs;
  for (const hbn::serve::EpochRecord& r : traced.epochLog) {
    epochMs.push_back(r.wallMs);
  }
  double replayStagesMs = 0.0;
  for (const char* stage : kReplayStages) {
    replayStagesMs += tracer.totalMs(stage);
  }
  const double serveMs = tracer.totalMs("dynamic.serve");
  metrics["workload.generate_mreq_s"] = {in.generateMreqS, "Mreq/s"};
  metrics["workload.aggregate_ms"] = {tracer.totalMs("workload.aggregate"),
                                      "ms"};
  metrics["serve.epochs"] = {static_cast<double>(traced.epochLog.size()),
                             "count"};
  metrics["serve.epoch_ms_p50"] = {percentile(epochMs, 50.0), "ms"};
  metrics["serve.epoch_ms_p99"] = {percentile(epochMs, 99.0), "ms"};
  metrics["serve.fill_calls"] = {
      static_cast<double>(tracer.count("serve.fill")), "count"};
  metrics["serve.fill_ms"] = {tracer.totalMs("serve.fill"), "ms"};
  metrics["serve.bucket_ms"] = {tracer.totalMs("serve.bucket"), "ms"};
  metrics["serve.checkpoint_ms"] = {tracer.totalMs("serve.checkpoint"),
                                    "ms"};
  metrics["serve.checkpoint_bytes"] = {replay.checkpointBytes, "bytes"};
  metrics["serve.replacements"] = {
      static_cast<double>(traced.replacements), "count"};
  metrics["serve.checkpoints"] = {static_cast<double>(traced.checkpoints),
                                  "count"};
  metrics["serve.degraded_epochs"] = {
      static_cast<double>(traced.degradedEpochs), "count"};
  metrics["serve.unattributed_ms"] = {
      in.reference.wallS * 1e3 - replayStagesMs, "ms"};
  metrics["serve.parallel_speedup"] = {
      in.medianWallS > 0.0 ? in.reference.wallS / in.medianWallS : 0.0, "x"};
  metrics["serve.lag_ms_p99"] = {traced.lagP99, "ms"};
  metrics["dynamic.serve_ms"] = {serveMs, "ms"};
  const auto requests =
      static_cast<double>(std::max<std::size_t>(in.input.size(), 1));
  metrics["dynamic.serve_ns_per_req"] = {serveMs * 1e6 / requests, "ns"};
  metrics["dynamic.replications"] = {
      static_cast<double>(replay.replications), "count"};
  metrics["dynamic.invalidations"] = {
      static_cast<double>(replay.invalidations), "count"};
  metrics["dynamic.handoff_ms"] = {tracer.totalMs("dynamic.handoff"), "ms"};
  metrics["core.lower_bound_ms"] = {tracer.totalMs("core.lower_bound"),
                                    "ms"};
  metrics["core.congestion_ms"] = {tracer.totalMs("core.congestion"), "ms"};
  metrics["core.fanout_us"] = {median(fanoutUs), "us"};
  metrics["core.worker_imbalance"] = {replay.workerImbalance, "x"};
  metrics["core.touched_frac"] = {replay.touchedFrac, "fraction"};
  metrics["shard.launch_ms"] = {traced.launchMs, "ms"};
  metrics["shard.bytes_per_req"] = {traced.bytesPerRequest, "bytes"};
  metrics["shard.critical_path_ms"] = {traced.criticalPathMs, "ms"};
  metrics["shard.busy_imbalance"] = {traced.busyImbalance, "x"};
  metrics["shard.encode_ms"] = {tracer.totalMs("shard.encode"), "ms"};
  metrics["shard.decode_ms"] = {tracer.totalMs("shard.decode"), "ms"};
  metrics["trace.overhead"] = {
      in.medianWallS > 0.0 ? traced.wallS / in.medianWallS : 0.0, "x"};
  metrics["trace.replay_verified"] = {replayVerified ? 1.0 : 0.0, "bool"};

  fs::create_directories(fs::path(in.traceFile).parent_path(), ec);
  std::ofstream traceOut(in.traceFile);
  tracer.writeChromeJson(traceOut);
  std::cerr << "perfbench: self time by span (ms):";
  for (const auto& [name, ms] : tracer.selfTimeMs()) {
    std::cerr << " " << name << "=" << std::fixed << std::setprecision(2)
              << ms;
  }
  std::cerr << "\n";
  return metrics;
}

}  // namespace

const std::vector<std::string>& endToEndMetricNames() {
  static const std::vector<std::string> names = {
      "throughput_mreq_s", "latency_ms_p50", "setup_s", "state_rss_mb",
      "congestion"};
  return names;
}

const std::vector<std::string>& perLayerMetricNames() {
  static const std::vector<std::string> names = {
      "workload.generate_mreq_s", "workload.aggregate_ms",
      "serve.epochs",             "serve.epoch_ms_p50",
      "serve.epoch_ms_p99",       "serve.fill_calls",
      "serve.fill_ms",            "serve.bucket_ms",
      "serve.checkpoint_ms",      "serve.checkpoint_bytes",
      "serve.replacements",       "serve.checkpoints",
      "serve.degraded_epochs",    "serve.unattributed_ms",
      "serve.parallel_speedup",   "serve.lag_ms_p99",
      "dynamic.serve_ms",         "dynamic.serve_ns_per_req",
      "dynamic.replications",     "dynamic.invalidations",
      "dynamic.handoff_ms",       "core.lower_bound_ms",
      "core.congestion_ms",       "core.fanout_us",
      "core.worker_imbalance",    "core.touched_frac",
      "shard.launch_ms",          "shard.bytes_per_req",
      "shard.critical_path_ms",   "shard.busy_imbalance",
      "shard.encode_ms",          "shard.decode_ms",
      "trace.overhead",           "trace.replay_verified"};
  return names;
}

int runWorkload(const RunArgs& args) {
  const int cores = hostCores();
  const std::vector<WorkloadSpec> catalogue = workloadCatalogue(cores);
  const WorkloadSpec& spec = findWorkload(catalogue, args.workload);
  const std::string buildType = PERFBENCH_BUILD_TYPE;
  if (buildType != "Release") {
    std::cerr << "perfbench: WARNING: " << buildType
              << " build; timings are not comparable to Release\n";
  }
  const std::string checkpointDir =
      (fs::path(args.workDir) / ("checkpoints-" + std::to_string(::getpid())))
          .string();

  const hbn::net::Tree tree = benchTopology();
  double generateMreqS = 0.0;
  const std::vector<RequestEvent> input =
      generateInput(tree, spec, args.seed, generateMreqS);
  const std::uint64_t offered = input.size();

  // Untimed reference (also the single-thread baseline): every timed run
  // must reproduce its final loads, congestion and counters exactly.
  const ServeOutcome reference = serveOnce(
      spec, input, args.seed, EngineKind::Reference, checkpointDir, nullptr);
  Tally tally;
  if (!reference.ok || reference.served != offered) {
    tally.problems.push_back("reference: served " +
                             std::to_string(reference.served) + " of " +
                             std::to_string(offered) + " " + reference.error);
  }

  // One warm-up rep (checked, not reported: the reference run warms only
  // the in-process path), then reps until the next one would end past
  // --seconds (at least one).
  tally.check("warm-up",
              serveOnce(spec, input, args.seed, EngineKind::Workload,
                        checkpointDir, nullptr),
              reference, offered);
  std::vector<ServeOutcome> reps;
  const CpuTimes cpuBefore = hostCpuTimes();
  const Clock::time_point measureStart = Clock::now();
  double repSeconds = 0.0;
  do {
    const Clock::time_point repStart = Clock::now();
    reps.push_back(serveOnce(spec, input, args.seed, EngineKind::Workload,
                             checkpointDir, nullptr));
    tally.check("rep " + std::to_string(reps.size()), reps.back(), reference,
                offered);
    repSeconds = secondsSince(repStart);
  } while (secondsSince(measureStart) + repSeconds <= args.seconds);
  // Share of the host's CPU time other guests took while the reps ran: a
  // slow run on a contended host shows here, not in the code.
  const CpuTimes cpuAfter = hostCpuTimes();
  const double cpuTicks = cpuAfter.total - cpuBefore.total;
  const double stealFrac =
      cpuTicks > 0.0 ? (cpuAfter.steal - cpuBefore.steal) / cpuTicks : 0.0;

  std::vector<double> throughput, latP50, latP99, setup, rss, congestion,
      lagP99, walls;
  std::uint64_t latencySamples = 0;
  std::uint64_t lagSamples = 0;
  for (const ServeOutcome& rep : reps) {
    if (!rep.ok) continue;
    throughput.push_back(static_cast<double>(rep.served) / rep.wallS / 1e6);
    walls.push_back(rep.wallS);
    latP50.push_back(rep.latencyP50);
    latP99.push_back(rep.latencyP99);
    setup.push_back(rep.setupS);
    rss.push_back(rep.rssMb);
    congestion.push_back(rep.congestion);
    lagP99.push_back(rep.lagP99);
    latencySamples += rep.latencySamples;
    lagSamples += rep.lagSamples;
  }

  std::map<std::string, Metric> metrics;
  std::string traceFile;
  if (args.trace) {
    traceFile = (fs::path(args.workDir) /
                 ("trace-" + spec.name + "-seed" + std::to_string(args.seed) +
                  ".json"))
                    .string();
    metrics = tracedMetrics({spec, input, args.seed, reference, median(walls),
                             generateMreqS, checkpointDir, traceFile},
                            tally);
  } else {
    metrics["throughput_mreq_s"] = {median(throughput), "Mreq/s"};
    metrics["latency_ms_p50"] = {median(latP50), "ms"};
    metrics["setup_s"] = {median(setup), "s"};
    metrics["state_rss_mb"] = {median(rss), "MB"};
    metrics["congestion"] = {median(congestion), "load"};
  }

  // Detail line: run metadata, the figures the result line does not carry
  // and per-rep samples.
  std::ostringstream detail;
  detail << "{\"detail\": {\"workload\": " << jsonString(spec.name)
         << ", \"seed\": " << args.seed << ", \"nproc\": " << cores
         << ", \"threads\": " << spec.threads
         << ", \"shard_workers\": " << spec.shardWorkers
         << ", \"build_type\": " << jsonString(buildType)
         << ", \"non_release_build\": "
         << (buildType == "Release" ? "false" : "true")
         << ", \"compiler\": " << jsonString(PERFBENCH_COMPILER)
         << ", \"git_rev\": " << jsonString(args.gitRev)
         << ", \"requests_per_rep\": " << offered
         << ", \"offered_rate_req_s\": " << jsonNumber(spec.offeredRate)
         << ", \"reps\": " << reps.size()
         << ", \"latency_samples\": " << latencySamples
         << ", \"latency_source\": "
         << jsonString(spec.shardWorkers > 0 ? "coordinator epoch latency"
                                             : "engine request latency")
         << ", \"latency_ms_p99\": " << jsonNumber(median(latP99))
         << ", \"lag_ms_p99\": " << jsonNumber(median(lagP99))
         << ", \"lag_samples\": " << lagSamples
         << ", \"failed_frac\": "
         << jsonNumber(tally.attempted > 0
                           ? static_cast<double>(tally.failed) /
                                 static_cast<double>(tally.attempted)
                           : 1.0)
         << ", \"host_steal_frac\": " << jsonNumber(stealFrac)
         << ", \"reference_wall_s\": " << jsonNumber(reference.wallS)
         << ", \"throughput_reps\": " << jsonArray(throughput)
         << ", \"latency_ms_p99_reps\": " << jsonArray(latP99)
         << ", \"setup_s_reps\": " << jsonArray(setup)
         << ", \"trace_file\": " << jsonString(traceFile)
         << ", \"problems\": [";
  for (std::size_t i = 0; i < tally.problems.size(); ++i) {
    detail << (i ? ", " : "") << jsonString(tally.problems[i]);
  }
  detail << "]}}";
  std::cout << detail.str() << "\n";

  const std::vector<std::string>& names =
      args.trace ? perLayerMetricNames() : endToEndMetricNames();
  std::cout << "{\"correct\": "
            << (tally.problems.empty() ? "true" : "false")
            << ", \"attempted\": " << tally.attempted
            << ", \"failed\": " << tally.failed
            << ", \"metrics\": " << metricsJson(names, metrics) << "}"
            << std::endl;
  return 0;
}

int runRateSweep(const RunArgs& args, const std::vector<double>& rates) {
  const std::vector<WorkloadSpec> catalogue = workloadCatalogue(hostCores());
  const WorkloadSpec base = findWorkload(catalogue, "phase-shift-paced");
  const hbn::net::Tree tree = benchTopology();
  double generateMreqS = 0.0;
  const std::vector<RequestEvent> input =
      generateInput(tree, base, args.seed, generateMreqS);
  const std::string checkpointDir =
      (fs::path(args.workDir) / ("sweep-" + std::to_string(::getpid())))
          .string();
  std::cout << "rate_mreq_s  served_mreq_s  latency_p50_ms  latency_p99_ms"
               "  lag_p99_ms  lag_max_ms  lag_end_ms\n";
  for (const double rate : rates) {
    WorkloadSpec spec = base;
    spec.offeredRate = rate;
    const ServeOutcome run = serveOnce(spec, input, args.seed,
                                       EngineKind::Workload, checkpointDir,
                                       nullptr);
    if (!run.ok) {
      std::cout << rate / 1e6 << "  failed: " << run.error << "\n";
      continue;
    }
    // A lump (checkpoint, handoff burst) raises the maximum lag and
    // recovers; a backlog that grows ends the run at its worst lag.
    std::cout << std::fixed << std::setprecision(3) << rate / 1e6 << "  "
              << static_cast<double>(run.served) / run.wallS / 1e6 << "  "
              << run.latencyP50 << "  " << run.latencyP99 << "  "
              << run.lagP99 << "  " << run.lagMaxMs << "  " << run.lagEndMs
              << "\n";
  }
  return 0;
}

}  // namespace perfbench
