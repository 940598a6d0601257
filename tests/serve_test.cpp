// Tests for the streaming serving engine: request streams, epoch
// batching, shard determinism (1 vs N threads bit-identical), the
// adaptive re-placement pass, and the memory bound that proves streams
// are never materialised.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "hbn/dynamic/online_strategy.h"
#include "hbn/net/generators.h"
#include "hbn/serve/epoch_server.h"
#include "hbn/serve/request_stream.h"
#include "hbn/util/json.h"
#include "hbn/util/rng.h"
#include "hbn/workload/serialize.h"

namespace hbn::serve {
namespace {

long maxRssKb() {
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // kilobytes on Linux
}

/// Every deterministic observable of a server, rendered through the JSON
/// emitter: copy sets, cumulative edge loads, counters. Two runs are
/// bit-identical iff these strings are.
std::string stateJson(const EpochServer& server,
                      const ServeReport& report) {
  util::JsonRecords records;
  records.beginRecord();
  records.field("requests", static_cast<std::int64_t>(report.totalRequests));
  records.field("epochs", static_cast<std::int64_t>(report.epochs));
  records.field("congestion", report.congestion);
  records.field("lower_bound", report.lowerBound);
  records.field("ratio", report.ratio);
  records.field("replacements",
                static_cast<std::int64_t>(report.replacements));
  records.field("replications",
                static_cast<std::int64_t>(report.replications));
  records.field("invalidations",
                static_cast<std::int64_t>(report.invalidations));
  for (workload::ObjectId x = 0; x < server.numObjects(); ++x) {
    records.beginRecord();
    std::ostringstream copies;
    for (const net::NodeId v : server.copySet(x)) copies << v << ' ';
    records.field("object", static_cast<std::int64_t>(x));
    records.field("copies", copies.str());
  }
  records.beginRecord();
  std::ostringstream loads;
  for (const core::Count load : server.loads().edgeLoads()) {
    loads << load << ' ';
  }
  records.field("edge_loads", loads.str());
  std::ostringstream oss;
  records.write(oss);
  return oss.str();
}

TEST(RequestStream, GeneratorStreamIsBoundedAndBatched) {
  int counter = 0;
  GeneratorStream stream(
      [&] {
        return RequestEvent{counter++ % 3, 1, false};
      },
      1000);
  std::vector<RequestEvent> batch(256);
  std::size_t total = 0;
  std::size_t fills = 0;
  while (const std::size_t n = stream.fill(batch)) {
    total += n;
    ++fills;
    ASSERT_LE(n, batch.size());
  }
  EXPECT_EQ(total, 1000u);
  EXPECT_EQ(fills, 4u);  // 256 + 256 + 256 + 232
  EXPECT_EQ(stream.fill(batch), 0u);  // stays exhausted
}

TEST(RequestStream, GeneratedStreamsAreSeedDeterministicAndInRange) {
  const net::Tree tree = net::makeClusterNetwork(3, 4);
  workload::StreamParams params;
  params.numObjects = 17;
  for (const char* name : {"skewed", "bursty", "diurnal", "phase-shift"}) {
    const auto a = makeGeneratedStream(name, tree, params, 5, 500);
    const auto b = makeGeneratedStream(name, tree, params, 5, 500);
    std::vector<RequestEvent> batchA(500);
    std::vector<RequestEvent> batchB(500);
    ASSERT_EQ(a->fill(batchA), 500u) << name;
    ASSERT_EQ(b->fill(batchB), 500u) << name;
    for (std::size_t i = 0; i < batchA.size(); ++i) {
      EXPECT_EQ(batchA[i].object, batchB[i].object) << name;
      EXPECT_EQ(batchA[i].origin, batchB[i].origin) << name;
      EXPECT_EQ(batchA[i].isWrite, batchB[i].isWrite) << name;
      EXPECT_GE(batchA[i].object, 0) << name;
      EXPECT_LT(batchA[i].object, params.numObjects) << name;
      EXPECT_TRUE(tree.isProcessor(batchA[i].origin)) << name;
    }
  }
  EXPECT_THROW((void)makeGeneratedStream("nope", tree, params, 1, 10),
               std::invalid_argument);
}

TEST(RequestStream, PhaseShiftFollowsTheRegimeSchedule) {
  using workload::PhaseShiftStream;
  const net::Tree tree = net::makeClusterNetwork(3, 4);
  workload::StreamParams params;
  params.numObjects = 32;
  params.readFraction = 0.5;
  params.phaseLength = 1'000;
  // One full [skew, skew, churn, burst] cycle plus one slot of wrap.
  const std::uint64_t total =
      params.phaseLength * (PhaseShiftStream::kCycleSlots + 1);
  const auto stream =
      makeGeneratedStream("phase-shift", tree, params, 9, total);
  std::vector<workload::RequestEvent> events(total);
  ASSERT_EQ(stream->fill(events), total);

  // regimeAt is pure slot arithmetic: boundaries sit exactly on
  // phaseLength multiples and the schedule wraps around the cycle.
  for (std::uint64_t slot = 0; slot <= PhaseShiftStream::kCycleSlots;
       ++slot) {
    const int expected =
        PhaseShiftStream::kCycle[slot % PhaseShiftStream::kCycleSlots];
    const std::uint64_t begin = slot * params.phaseLength;
    EXPECT_EQ(PhaseShiftStream::regimeAt(begin, params.phaseLength),
              expected);
    EXPECT_EQ(PhaseShiftStream::regimeAt(begin + params.phaseLength - 1,
                                         params.phaseLength),
              expected);
  }

  // Realised write fractions flip with the regime: the skew slots are
  // read-heavy, the churn slot write-heavy, the burst slot near the
  // base readFraction. Generous brackets — this asserts the regime
  // identity, not the RNG.
  const auto writeFraction = [&](std::uint64_t slot) {
    std::uint64_t writes = 0;
    for (std::uint64_t i = slot * params.phaseLength;
         i < (slot + 1) * params.phaseLength; ++i) {
      writes += events[i].isWrite ? 1 : 0;
    }
    return static_cast<double>(writes) /
           static_cast<double>(params.phaseLength);
  };
  EXPECT_LT(writeFraction(0), 0.1);  // skew: 1 - kSkewReadFraction
  EXPECT_LT(writeFraction(1), 0.1);
  EXPECT_GT(writeFraction(2), 0.7);  // churn: 1 - kChurnReadFraction
  EXPECT_GT(writeFraction(3), 0.3);  // burst: 1 - readFraction
  EXPECT_LT(writeFraction(3), 0.7);
  EXPECT_LT(writeFraction(4), 0.1);  // wrap: skew again

  // The burst regime pins runs of burstLength to one (object, origin).
  const std::uint64_t burstBegin = 3 * params.phaseLength;
  bool sawRepeat = false;
  for (std::uint64_t i = burstBegin + 1; i < burstBegin + 200; ++i) {
    sawRepeat = sawRepeat || (events[i].object == events[i - 1].object &&
                              events[i].origin == events[i - 1].origin);
  }
  EXPECT_TRUE(sawRepeat);
}

TEST(RequestStream, TraceFileStreamReadsWhatWasWritten) {
  const net::Tree tree = net::makeStar(4);
  std::vector<RequestEvent> events;
  util::Rng rng(77);
  for (int i = 0; i < 200; ++i) {
    events.push_back(RequestEvent{
        static_cast<workload::ObjectId>(rng.nextBelow(3)),
        tree.processors()[static_cast<std::size_t>(
            rng.nextBelow(tree.processors().size()))],
        rng.nextBool(0.3)});
  }
  const std::string path = testing::TempDir() + "serve_test_trace.txt";
  {
    std::ofstream out(path);
    workload::writeTraceHeader(out, 3, tree.nodeCount());
    for (const RequestEvent& ev : events) workload::writeTraceEvent(out, ev);
  }
  TraceFileStream stream(path);
  EXPECT_EQ(stream.numObjects(), 3);
  EXPECT_EQ(stream.numNodes(), tree.nodeCount());
  std::vector<RequestEvent> batch(64);
  std::vector<RequestEvent> all;
  while (const std::size_t n = stream.fill(batch)) {
    all.insert(all.end(), batch.begin(),
               batch.begin() + static_cast<std::ptrdiff_t>(n));
  }
  ASSERT_EQ(all.size(), events.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].object, events[i].object);
    EXPECT_EQ(all[i].origin, events[i].origin);
    EXPECT_EQ(all[i].isWrite, events[i].isWrite);
  }
  std::remove(path.c_str());
  EXPECT_THROW(TraceFileStream("/nonexistent/trace.txt"),
               std::runtime_error);
}

TEST(EpochServer, MatchesSequentialOnlineStrategy) {
  // With re-placement disabled, epoch-batched sharded serving is exactly
  // the sequential online strategy: same loads, same copy sets, same
  // counters — for an epoch size that slices the stream mid-object.
  util::Rng rng(31);
  const net::Tree tree = net::makeClusterNetwork(2, 3);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  const int numObjects = 5;
  std::vector<RequestEvent> events;
  for (int i = 0; i < 2000; ++i) {
    events.push_back(RequestEvent{
        static_cast<workload::ObjectId>(rng.nextBelow(numObjects)),
        tree.processors()[static_cast<std::size_t>(
            rng.nextBelow(tree.processors().size()))],
        rng.nextBool(0.25)});
  }

  dynamic::OnlineTreeStrategy sequential(rooted, numObjects,
                                         tree.processors().front());
  for (const RequestEvent& ev : events) sequential.serve(ev);

  ServeOptions options;
  options.epochSize = 37;  // deliberately odd, crossing object runs
  options.replaceDrift = 0.0;
  EpochServer server(rooted, numObjects, options);
  VectorStream stream(events);
  const ServeReport report = server.serve(stream);

  EXPECT_EQ(report.totalRequests, events.size());
  EXPECT_EQ(report.replications, sequential.replications());
  EXPECT_EQ(report.invalidations, sequential.invalidations());
  for (net::EdgeId e = 0; e < tree.edgeCount(); ++e) {
    EXPECT_EQ(server.loads().edgeLoad(e), sequential.loads().edgeLoad(e))
        << "edge " << e;
  }
  for (workload::ObjectId x = 0; x < numObjects; ++x) {
    EXPECT_EQ(server.copySet(x), sequential.copySet(x)) << "object " << x;
  }
  EXPECT_EQ(server.aggregated().grandTotal(),
            static_cast<workload::Count>(events.size()));
}

TEST(EpochServer, BitIdenticalAcrossThreadCounts) {
  const net::Tree tree = net::makeClusterNetwork(4, 8);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  workload::StreamParams params;
  params.numObjects = 96;
  const auto run = [&](int threads) {
    const auto stream = makeGeneratedStream("skewed", tree, params, 21,
                                            60'000);
    ServeOptions options;
    options.epochSize = 1 << 12;
    options.threads = threads;
    options.replaceDrift = 1.5;  // exercise the re-placement path too
    EpochServer server(rooted, params.numObjects, options);
    const ServeReport report = server.serve(*stream);
    return stateJson(server, report);
  };
  const std::string sequential = run(1);
  EXPECT_EQ(sequential, run(2));
  EXPECT_EQ(sequential, run(5));
  EXPECT_EQ(sequential, run(0));  // hardware concurrency
}

TEST(EpochServer, ReplacementFiresUnderSlowAdaptationAndHelps) {
  const net::Tree tree = net::makeClusterNetwork(4, 8);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  workload::StreamParams params;
  params.numObjects = 64;
  params.readFraction = 0.995;
  struct Outcome {
    ServeReport report;
    std::uint64_t markedEpochs = 0;
  };
  const auto run = [&](double drift) {
    const auto stream =
        makeGeneratedStream("skewed", tree, params, 9, 120'000);
    ServeOptions options;
    options.epochSize = 1 << 13;
    options.replaceDrift = drift;
    options.policy = "tree-counters:threshold=64";  // slow online adaptation
    EpochServer server(rooted, params.numObjects, options);
    Outcome outcome{server.serve(*stream), 0};
    for (const EpochRecord& record : server.epochLog()) {
      outcome.markedEpochs += record.replaced ? 1 : 0;
    }
    return outcome;
  };
  const Outcome off = run(0.0);
  const Outcome on = run(2.0);
  EXPECT_EQ(off.report.replacements, 0u);
  EXPECT_GT(on.report.replacements, 0u);
  EXPECT_LE(on.report.congestion, off.report.congestion);
  // The epoch log marks exactly the re-placed epochs.
  EXPECT_EQ(on.markedEpochs, on.report.replacements);
}

TEST(EpochServer, EpochLogIsConsistent) {
  const net::Tree tree = net::makeClusterNetwork(2, 4);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  workload::StreamParams params;
  params.numObjects = 8;
  const auto stream = makeGeneratedStream("bursty", tree, params, 3, 10'000);
  ServeOptions options;
  options.epochSize = 1 << 10;
  EpochServer server(rooted, params.numObjects, options);
  const ServeReport report = server.serve(*stream);
  EXPECT_EQ(report.epochs, server.epochLog().size());
  std::uint64_t total = 0;
  for (const EpochRecord& record : server.epochLog()) {
    total += record.requests;
    EXPECT_GT(record.requests, 0u);
    EXPECT_LE(record.requests, options.epochSize);
    EXPECT_GE(record.ratio, 0.0);
  }
  EXPECT_EQ(total, report.totalRequests);
  EXPECT_EQ(report.totalRequests, 10'000u);
}

TEST(EpochServer, InfiniteRatioIsAFixedPointThroughJson) {
  // Reads with zero write contention: the analytic lower bound is 0
  // while the online strategy pays for the remote read, so the epoch
  // ratio is +inf. The JSON pipeline must carry that stably:
  // JsonRecords emits non-finite doubles as null, parses null back as
  // NaN, and NaN re-emits as null — emit→parse→emit is a fixed point.
  const net::Tree tree = net::makeStar(3);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  ServeOptions options;
  options.epochSize = 8;
  EpochServer server(rooted, 1, options);
  // The initial copy sits on the first processor; read from another.
  const net::NodeId reader = tree.processors().back();
  ASSERT_NE(reader, tree.processors().front());
  VectorStream stream({RequestEvent{0, reader, false}});
  const ServeReport report = server.serve(stream);
  ASSERT_EQ(report.lowerBound, 0.0);
  ASSERT_GT(report.congestion, 0.0);
  ASSERT_TRUE(std::isinf(report.ratio));
  ASSERT_EQ(server.epochLog().size(), 1u);
  ASSERT_TRUE(std::isinf(server.epochLog().front().ratio));

  // Emit the epoch record the way hbn_serve --json does (wall-clock
  // zeroed: it is the one nondeterministic field and not under test).
  EpochRecord record = server.epochLog().front();
  record.wallMs = 0.0;
  const auto emitEpoch = [](const EpochRecord& r) {
    util::JsonRecords records;
    records.beginRecord();
    records.field("kind", "epoch");
    records.field("epoch", static_cast<std::int64_t>(r.index));
    records.field("requests", static_cast<std::int64_t>(r.requests));
    records.field("wall_ms", r.wallMs);
    records.field("congestion", r.congestion);
    records.field("lower_bound", r.lowerBound);
    records.field("ratio", r.ratio);
    records.field("replaced", r.replaced);
    std::ostringstream oss;
    records.write(oss);
    return oss.str();
  };
  const std::string emitted = emitEpoch(record);
  EXPECT_NE(emitted.find("\"ratio\": null"), std::string::npos) << emitted;

  const std::vector<util::ParsedRecord> parsed = util::parseRecords(emitted);
  ASSERT_EQ(parsed.size(), 1u);
  util::JsonRecords reEmitted;
  reEmitted.beginRecord();
  for (const util::ParsedField& field : parsed.front()) {
    switch (field.kind) {
      case util::ParsedField::Kind::string:
        reEmitted.field(field.key, field.text);
        break;
      case util::ParsedField::Kind::boolean:
        reEmitted.field(field.key, field.number == 1.0);
        break;
      case util::ParsedField::Kind::number:
      case util::ParsedField::Kind::null:
        // null parses as NaN; re-emitting NaN produces null again.
        reEmitted.field(field.key, field.number);
        break;
    }
  }
  std::ostringstream second;
  reEmitted.write(second);
  EXPECT_EQ(emitted, second.str());
}

TEST(EpochServer, PipelinedMatchesBarrierBitForBit) {
  // The pipelined engine (threaded ingest + lazy per-object handoff
  // application) must produce exactly the barrier engine's deterministic
  // state: counters, copy sets, edge loads, handoff count — on a skewed
  // drift workload that actually fires re-placements, for 1 and N
  // worker threads. Only wall-clock observables may differ.
  const net::Tree tree = net::makeClusterNetwork(4, 8);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  workload::StreamParams params;
  params.readFraction = 0.995;
  struct Outcome {
    std::string digest;
    std::vector<bool> replaced;
    std::uint64_t replacements = 0;
    double handoffs = 0.0;
  };
  const auto run = [&](int numObjects, std::size_t epochSize, bool pipeline,
                       int threads) {
    params.numObjects = numObjects;
    const auto stream =
        makeGeneratedStream("skewed", tree, params, 9, 120'000);
    ServeOptions options;
    options.epochSize = epochSize;
    options.threads = threads;
    options.replaceDrift = 2.0;
    options.pipeline = pipeline;
    options.policy = "tree-counters:threshold=64";  // slow adaptation
    EpochServer server(rooted, params.numObjects, options);
    const ServeReport report = server.serve(*stream);
    Outcome outcome;
    outcome.digest = stateJson(server, report);
    for (const EpochRecord& record : server.epochLog()) {
      outcome.replaced.push_back(record.replaced);
    }
    outcome.replacements = report.replacements;
    outcome.handoffs = report.policyMetrics.at("policy.handoffs");
    return outcome;
  };
  // Dense: 64 objects, most touched every epoch. Sparse: 4096 objects
  // in 1024-event epochs re-place almost every epoch while most objects
  // go untouched between passes, so an object chains through several
  // pending passes on its next touch and passes retire at the drain.
  for (const auto& [numObjects, epochSize] :
       {std::pair<int, std::size_t>{64, 1 << 13}, {4096, 1 << 10}}) {
    const Outcome barrier = run(numObjects, epochSize, false, 1);
    ASSERT_GT(barrier.replacements, 0u)
        << "drift never fired; the test is not exercising the handoff path";
    for (const int threads : {1, 3}) {
      const Outcome pipelined = run(numObjects, epochSize, true, threads);
      const std::string where = std::to_string(numObjects) +
                                " objects, threads " + std::to_string(threads);
      EXPECT_EQ(pipelined.digest, barrier.digest) << where;
      // The serve-only drift trigger makes the schedule mode-independent:
      // the same epochs are marked replaced even though migration traffic
      // lands at different times.
      EXPECT_EQ(pipelined.replaced, barrier.replaced) << where;
      EXPECT_EQ(pipelined.handoffs, barrier.handoffs) << where;
    }
  }
  params.numObjects = 64;
  // And the static policy (memoised monolithic handoff pass) agrees too.
  const auto runStatic = [&](bool pipeline) {
    const auto stream =
        makeGeneratedStream("skewed", tree, params, 9, 120'000);
    ServeOptions options;
    options.epochSize = 1 << 13;
    options.replaceDrift = 2.0;
    options.pipeline = pipeline;
    options.policy = "static:placement=nibble";
    EpochServer server(rooted, params.numObjects, options);
    const ServeReport report = server.serve(*stream);
    return stateJson(server, report);
  };
  EXPECT_EQ(runStatic(true), runStatic(false));
}

TEST(EpochServer, LatencyPercentilesAreSampledAndOrdered) {
  const net::Tree tree = net::makeClusterNetwork(2, 4);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  workload::StreamParams params;
  params.numObjects = 16;
  const auto run = [&](std::size_t latencySample) {
    const auto stream =
        makeGeneratedStream("bursty", tree, params, 5, 20'000);
    ServeOptions options;
    options.epochSize = 1 << 10;
    options.latencySample = latencySample;
    EpochServer server(rooted, params.numObjects, options);
    return server.serve(*stream);
  };
  const ServeReport on = run(1024);
  EXPECT_GT(on.latencySamples, 0u);
  EXPECT_GE(on.latencyMsP50, 0.0);
  EXPECT_LE(on.latencyMsP50, on.latencyMsP99);
  EXPECT_LE(on.latencyMsP99, on.latencyMsP999);
  EXPECT_LE(on.epochMsP50, on.epochMsP99);
  EXPECT_LE(on.epochMsP99, on.epochMsP999);

  const ServeReport off = run(0);
  EXPECT_EQ(off.latencySamples, 0u);
  EXPECT_EQ(off.latencyMsP50, 0.0);
  EXPECT_EQ(off.latencyMsP99, 0.0);
  EXPECT_EQ(off.latencyMsP999, 0.0);
}

TEST(EpochServer, MillionRequestStreamNeverMaterialises) {
  // Two million requests through a small epoch buffer: RSS must grow by
  // far less than the ~24 MB the materialised stream would take, and the
  // server's own per-request buffering stays at two epochs.
  const net::Tree tree = net::makeClusterNetwork(4, 8);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  workload::StreamParams params;
  params.numObjects = 256;
  constexpr std::uint64_t kRequests = 2'000'000;
  const auto stream =
      makeGeneratedStream("skewed", tree, params, 17, kRequests);
  ServeOptions options;
  options.epochSize = 1 << 14;
  options.threads = 2;
  EpochServer server(rooted, params.numObjects, options);

  const long rssBefore = maxRssKb();
  const ServeReport report = server.serve(*stream);
  const long rssAfter = maxRssKb();

  EXPECT_EQ(report.totalRequests, kRequests);
  EXPECT_GE(report.epochs, kRequests / options.epochSize);
  // Buffering: two pipeline slots, each one arrival-order epoch + one
  // bucketed epoch + CSR offsets + a handful of arrival stamps.
  EXPECT_LT(report.epochBufferBytes,
            2 * (2 * options.epochSize * sizeof(RequestEvent) +
                 (static_cast<std::uint64_t>(params.numObjects) + 320) *
                     sizeof(std::size_t)));
  EXPECT_LT(rssAfter - rssBefore, 16 * 1024)  // < 16 MB growth
      << "serving resident set grew as if the stream were materialised";
}

TEST(EpochServer, HugeDeclaredEpochBuffersOnlyTheTraffic) {
  // Past kIngestChunks full fill chunks the per-request buffers grow
  // with the events actually read: a 2^32-event epoch neither allocates
  // the declared epoch nor fails, and serves exactly what an epoch sized
  // to the stream serves, in both engine modes.
  const net::Tree tree = net::makeClusterNetwork(2, 4);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  std::vector<RequestEvent> events;
  for (int i = 0; i < 20'000; ++i) {
    events.push_back(
        RequestEvent{i % 4, tree.processors()[i * 5 % 8], i % 3 == 0});
  }
  for (const std::size_t count : {std::size_t{10}, events.size()}) {
    const std::vector<RequestEvent> prefix(events.begin(),
                                           events.begin() + count);
    for (const bool pipeline : {true, false}) {
      const auto serveIn = [&](std::size_t epochSize) {
        ServeOptions options;
        options.epochSize = epochSize;
        options.pipeline = pipeline;
        EpochServer server(rooted, 4, options);
        VectorStream stream(prefix);
        const ServeReport report = server.serve(stream);
        return std::make_pair(report, stateJson(server, report));
      };
      SCOPED_TRACE(testing::Message() << count << " events, pipeline "
                                      << pipeline);
      const auto [huge, digest] = serveIn(std::size_t{1} << 32);
      EXPECT_EQ(digest, serveIn(count).second);
      EXPECT_EQ(huge.totalRequests, count);
      EXPECT_LT(huge.epochBufferBytes, 1u << 20);
    }
  }
}

/// stateJson plus everything else the per-object epoch body writes:
/// the per-epoch lower bound and re-placement marks, and the aggregated
/// frequency matrix itself.
std::string fullDigest(const EpochServer& server, const ServeReport& report) {
  std::ostringstream oss;
  oss.precision(17);
  oss << stateJson(server, report);
  for (const EpochRecord& record : server.epochLog()) {
    oss << record.index << ':' << record.lowerBound << ':' << record.replaced
        << ':' << record.checkpointed << ' ';
  }
  oss << '\n' << workload::toText(server.aggregated());
  return oss.str();
}

TEST(EpochServer, WeightedSplitIsBitIdenticalOnAdversarialStreams) {
  // Two streams aimed at the request-weighted split over touched
  // objects: a Zipf stream whose hottest object is the HIGHEST id (the
  // last chunk carries the hot spot), and a stream that touches fewer
  // objects per epoch than there are workers (most chunks are empty).
  // Both run with drift handoffs (slow adaptation, low drift factor)
  // and a checkpoint cadence; every thread count and both engines must
  // produce the same counters, loads, copy sets, per-epoch bounds and
  // aggregated matrix.
  const net::Tree tree = net::makeClusterNetwork(4, 8);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  constexpr int kObjects = 64;
  workload::StreamParams params;
  params.numObjects = kObjects;
  params.readFraction = 0.995;

  std::vector<RequestEvent> hotLast(120'000);
  {
    const auto stream =
        makeGeneratedStream("skewed", tree, params, 9, hotLast.size());
    ASSERT_EQ(stream->fill(hotLast), hotLast.size());
    for (RequestEvent& ev : hotLast) ev.object = kObjects - 1 - ev.object;
  }
  std::vector<RequestEvent> sparse;
  {
    util::Rng rng(77);
    const auto leaves = tree.processors();
    for (int i = 0; i < 60'000; ++i) {
      // Two objects per phase, a new pair every 10k requests.
      const auto phase = static_cast<workload::ObjectId>(i / 10'000);
      const auto x = static_cast<workload::ObjectId>(
          (phase * 11 + static_cast<int>(rng.nextBelow(2)) * 29) % kObjects);
      // Skewed origins so the copy configuration goes stale.
      const auto leaf = rng.nextBelow(4) == 0
                            ? rng.nextBelow(leaves.size())
                            : static_cast<std::uint64_t>(phase) % 3;
      sparse.push_back(RequestEvent{x, leaves[leaf], rng.nextBool(0.01)});
    }
  }

  const std::string dir = ::testing::TempDir() + "hbn_weighted_split";
  const auto run = [&](const std::vector<RequestEvent>& events,
                       bool pipeline, int threads, std::uint64_t* handoffs) {
    std::filesystem::remove_all(dir);
    ServeOptions options;
    options.epochSize = 1 << 12;
    options.threads = threads;
    options.replaceDrift = 2.0;
    options.pipeline = pipeline;
    options.policy = "tree-counters:threshold=64";
    options.checkpointDir = dir;
    options.checkpointEvery = 5;
    EpochServer server(rooted, kObjects, options);
    VectorStream stream(events);
    const ServeReport report = server.serve(stream);
    if (handoffs != nullptr) *handoffs = report.replacements;
    EXPECT_GT(report.checkpoints, 1u);
    return fullDigest(server, report);
  };
  for (const auto* events : {&hotLast, &sparse}) {
    const std::string name = events == &hotLast ? "hot-last" : "sparse";
    std::uint64_t handoffs = 0;
    const std::string reference = run(*events, false, 1, &handoffs);
    EXPECT_GT(handoffs, 0u) << name << ": no drift handoff fired";
    EXPECT_EQ(run(*events, true, 1, nullptr), reference) << name;
    for (const int threads : {2, 3, 4, 7}) {
      EXPECT_EQ(run(*events, true, threads, nullptr), reference)
          << name << " pipelined, threads " << threads;
      EXPECT_EQ(run(*events, false, threads, nullptr), reference)
          << name << " barrier, threads " << threads;
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace hbn::serve
