#include "hbn/shard/wire.h"

#include <limits>
#include <stdexcept>

namespace hbn::shard {

const char* frameTypeName(FrameType type) noexcept {
  switch (type) {
    case FrameType::kHello: return "hello";
    case FrameType::kHelloAck: return "hello-ack";
    case FrameType::kEpoch: return "epoch";
    case FrameType::kStats: return "stats";
    case FrameType::kDecide: return "decide";
    case FrameType::kMigrate: return "migrate";
    case FrameType::kFin: return "fin";
    case FrameType::kFinAck: return "fin-ack";
    case FrameType::kError: return "error";
    case FrameType::kRows: return "rows";
  }
  return "unknown";
}

std::uint64_t fnv1a(std::string_view bytes) noexcept {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : bytes) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string HelloMsg::encode() const {
  WireWriter w;
  w.u32(protocolVersion);
  w.i32(shardId);
  w.i32(shardCount);
  w.i32(numObjects);
  w.u64(epochSize);
  w.u8(partitionKind);
  w.u64(partitionSeed);
  w.str(policySpec);
  w.str(treeText);
  return w.take();
}

HelloMsg HelloMsg::decode(std::string_view payload) {
  WireReader r(payload);
  HelloMsg m;
  m.protocolVersion = r.u32();
  m.shardId = r.i32();
  m.shardCount = r.i32();
  m.numObjects = r.i32();
  m.epochSize = r.u64();
  m.partitionKind = r.u8();
  m.partitionSeed = r.u64();
  m.policySpec = r.str();
  m.treeText = r.str();
  r.finish();
  return m;
}

namespace {

/// Fixed bytes of an epoch payload header (epoch, events, runs), of a
/// run header (object, count), and of one packed event.
constexpr std::size_t kEpochHeaderBytes = 24;
constexpr std::size_t kRunHeaderBytes = 8;
constexpr std::size_t kEventBytes = 4;

}  // namespace

EpochWriter::EpochWriter(std::uint64_t epoch, std::uint64_t events,
                         std::uint64_t runs)
    : events_(events), runs_(runs) {
  w_.reserve(kEpochHeaderBytes + runs * kRunHeaderBytes +
             events * kEventBytes);
  w_.u64(epoch);
  w_.u64(events);
  w_.u64(runs);
}

void EpochWriter::run(workload::ObjectId x,
                      std::span<const workload::RequestEvent> events) {
  if (events.empty()) {
    throw std::invalid_argument("EpochWriter: empty run");
  }
  w_.i32(x);
  w_.u32(static_cast<std::uint32_t>(events.size()));
  for (const workload::RequestEvent& ev : events) {
    if (ev.origin < 0) {
      throw std::invalid_argument("EpochWriter: negative origin");
    }
    w_.u32(static_cast<std::uint32_t>(ev.origin) << 1 |
           (ev.isWrite ? 1u : 0u));
  }
  eventsWritten_ += events.size();
  ++runsWritten_;
}

std::string EpochWriter::take() {
  if (eventsWritten_ != events_ || runsWritten_ != runs_) {
    throw std::logic_error("EpochWriter: runs do not match the header");
  }
  return w_.take();
}

EpochReader::EpochReader(std::string_view payload) : r_(payload) {
  epoch_ = r_.u64();
  events_ = r_.u64();
  runs_ = r_.u64();
  if (runs_ > r_.remaining() / kRunHeaderBytes ||
      events_ > r_.remaining() / kEventBytes) {
    throw std::runtime_error("wire: epoch counts exceed payload");
  }
}

bool EpochReader::next(Run& run) {
  if (runsRead_ == runs_) return false;
  run.object = r_.i32();
  run.count = r_.u32();
  if (run.count > r_.remaining() / kEventBytes ||
      run.count > events_ - eventsRead_) {
    throw std::runtime_error("wire: epoch run count exceeds payload");
  }
  ++runsRead_;
  eventsRead_ += run.count;
  return true;
}

void EpochReader::read(const Run& run, workload::RequestEvent* out) {
  for (std::uint32_t i = 0; i < run.count; ++i) {
    const std::uint32_t packed = r_.u32();
    out[i].object = run.object;
    out[i].origin = static_cast<net::NodeId>(packed >> 1);
    out[i].isWrite = (packed & 1u) != 0;
  }
}

void EpochReader::finish() const {
  if (runsRead_ != runs_ || eventsRead_ != events_) {
    throw std::runtime_error("wire: epoch runs do not match the header");
  }
  r_.finish();
}

std::string EpochMsg::encode() const {
  std::uint64_t runs = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i == 0 || events[i].object != events[i - 1].object) ++runs;
  }
  EpochWriter w(epoch, events.size(), runs);
  for (std::size_t begin = 0; begin < events.size();) {
    std::size_t end = begin + 1;
    while (end < events.size() && events[end].object == events[begin].object) {
      ++end;
    }
    w.run(events[begin].object,
          std::span(events).subspan(begin, end - begin));
    begin = end;
  }
  return w.take();
}

EpochMsg EpochMsg::decode(std::string_view payload) {
  EpochReader r(payload);
  EpochMsg m;
  m.epoch = r.epoch();
  m.events.resize(static_cast<std::size_t>(r.events()));
  std::size_t at = 0;
  EpochReader::Run run;
  while (r.next(run)) {
    r.read(run, m.events.data() + at);
    at += run.count;
  }
  r.finish();
  return m;
}

namespace {

void encodeLoads(WireWriter& w, const std::vector<std::int64_t>& loads) {
  w.u64(loads.size());
  for (const std::int64_t v : loads) w.i64(v);
}

std::vector<std::int64_t> decodeLoads(WireReader& r) {
  const std::uint64_t count = r.u64();
  if (count > r.remaining() / 8) {
    throw std::runtime_error("wire: load vector length exceeds payload");
  }
  std::vector<std::int64_t> loads(static_cast<std::size_t>(count));
  for (std::int64_t& v : loads) v = r.i64();
  return loads;
}

}  // namespace

std::string StatsMsg::encode() const {
  WireWriter w;
  w.u64(epoch);
  w.u64(requests);
  w.f64(busyMs);
  w.u8(wantsHandoff);
  w.u8(migratable);
  encodeLoads(w, serveLoads);
  encodeLoads(w, lowerBoundDelta);
  return w.take();
}

StatsMsg StatsMsg::decode(std::string_view payload) {
  WireReader r(payload);
  StatsMsg m;
  m.epoch = r.u64();
  m.requests = r.u64();
  m.busyMs = r.f64();
  m.wantsHandoff = r.u8();
  m.migratable = r.u8();
  m.serveLoads = decodeLoads(r);
  m.lowerBoundDelta = decodeLoads(r);
  r.finish();
  return m;
}

std::string DecideMsg::encode() const {
  WireWriter w;
  w.u64(epoch);
  w.u8(replace);
  return w.take();
}

DecideMsg DecideMsg::decode(std::string_view payload) {
  WireReader r(payload);
  DecideMsg m;
  m.epoch = r.u64();
  m.replace = r.u8();
  r.finish();
  return m;
}

std::string MigrateMsg::encode() const {
  WireWriter w;
  w.u64(epoch);
  w.f64(busyMs);
  encodeLoads(w, loads);
  return w.take();
}

MigrateMsg MigrateMsg::decode(std::string_view payload) {
  WireReader r(payload);
  MigrateMsg m;
  m.epoch = r.u64();
  m.busyMs = r.f64();
  m.loads = decodeLoads(r);
  r.finish();
  return m;
}

namespace {

/// Fixed bytes of a rows payload header (epoch, last, row count), of a
/// row header (object, entry count), and of one entry.
constexpr std::size_t kRowsHeaderBytes = 17;
constexpr std::size_t kRowHeaderBytes = 8;
constexpr std::size_t kRowEntryBytes = 20;

void encodeRow(WireWriter& w, const ObjectRow& row) {
  w.i32(row.object);
  w.u32(static_cast<std::uint32_t>(row.entries.size()));
  for (const RowEntry& entry : row.entries) {
    w.i32(entry.node);
    w.i64(entry.reads);
    w.i64(entry.writes);
  }
}

std::string encodeRows(std::uint64_t epoch, bool last,
                       std::span<const ObjectRow> rows, std::size_t bytes) {
  WireWriter w;
  w.reserve(bytes);
  w.u64(epoch);
  w.u8(last ? 1 : 0);
  w.u64(rows.size());
  for (const ObjectRow& row : rows) encodeRow(w, row);
  return w.take();
}

}  // namespace

RowsMsg RowsMsg::decode(std::string_view payload) {
  WireReader r(payload);
  RowsMsg m;
  m.epoch = r.u64();
  m.last = r.u8();
  const std::uint64_t count = r.u64();
  if (count > r.remaining() / kRowHeaderBytes) {
    throw std::runtime_error("wire: row count exceeds payload");
  }
  m.rows.resize(static_cast<std::size_t>(count));
  for (ObjectRow& row : m.rows) {
    row.object = r.i32();
    const std::uint32_t entries = r.u32();
    if (entries > r.remaining() / kRowEntryBytes) {
      throw std::runtime_error("wire: row entry count exceeds payload");
    }
    row.entries.resize(entries);
    for (RowEntry& entry : row.entries) {
      entry.node = r.i32();
      entry.reads = r.i64();
      entry.writes = r.i64();
    }
  }
  r.finish();
  return m;
}

std::vector<std::string> encodeRowFrames(std::uint64_t epoch,
                                         std::span<const ObjectRow> rows,
                                         std::uint64_t maxPayload) {
  std::vector<std::string> payloads;
  std::size_t begin = 0;
  std::uint64_t bytes = kRowsHeaderBytes;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::uint64_t rowBytes =
        kRowHeaderBytes + rows[i].entries.size() * kRowEntryBytes;
    if (kRowsHeaderBytes + rowBytes > maxPayload) {
      throw std::length_error("encodeRowFrames: row of object " +
                              std::to_string(rows[i].object) +
                              " exceeds the payload cap");
    }
    if (bytes + rowBytes > maxPayload) {
      payloads.push_back(encodeRows(epoch, false,
                                    rows.subspan(begin, i - begin),
                                    static_cast<std::size_t>(bytes)));
      begin = i;
      bytes = kRowsHeaderBytes;
    }
    bytes += rowBytes;
  }
  payloads.push_back(encodeRows(epoch, true, rows.subspan(begin),
                                static_cast<std::size_t>(bytes)));
  return payloads;
}

std::string FinAckMsg::encode() const {
  WireWriter w;
  w.u64(requests);
  w.f64(busyMs);
  w.i64(replications);
  w.i64(invalidations);
  w.u64(policyMetrics.size());
  for (const auto& [key, value] : policyMetrics) {
    w.str(key);
    w.f64(value);
  }
  return w.take();
}

FinAckMsg FinAckMsg::decode(std::string_view payload) {
  WireReader r(payload);
  FinAckMsg m;
  m.requests = r.u64();
  m.busyMs = r.f64();
  m.replications = r.i64();
  m.invalidations = r.i64();
  const std::uint64_t count = r.u64();
  if (count > payload.size() / 16) {
    throw std::runtime_error("wire: metric count exceeds payload");
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string key = r.str();
    const double value = r.f64();
    m.policyMetrics.emplace(std::move(key), value);
  }
  r.finish();
  return m;
}

std::string ErrorMsg::encode() const {
  WireWriter w;
  w.u32(stage);
  w.u64(epoch);
  w.str(cause);
  return w.take();
}

ErrorMsg ErrorMsg::decode(std::string_view payload) {
  WireReader r(payload);
  ErrorMsg m;
  m.stage = r.u32();
  m.epoch = r.u64();
  m.cause = r.str();
  r.finish();
  return m;
}

}  // namespace hbn::shard
