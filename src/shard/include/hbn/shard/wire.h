// Wire format of the sharded serving protocol.
//
// Every message between the ShardCoordinator and a ShardWorker travels
// as one framed, checksummed byte string:
//
//   +--------+--------+------------+---------....---------+----------+
//   | magic  | type   | payloadLen | payload              | checksum |
//   | u32    | u32    | u64        | payloadLen bytes     | u64      |
//   +--------+--------+------------+---------....---------+----------+
//
// All integers are little-endian. `magic` is kFrameMagic ("HBNF");
// `checksum` is FNV-1a over the payload bytes. The length prefix is
// bounded by kMaxFramePayload so a corrupted prefix cannot drive an
// unbounded allocation. Malformed frames (bad magic, oversized prefix,
// truncated payload, checksum mismatch) surface as
// serve::Error{Stage::Frame}; a connection that closes cleanly between
// frames is Stage::Peer (see hbn/shard/transport.h).
//
// Payload encoding is the minimal WireWriter/WireReader pair below:
// fixed-width little-endian integers, doubles as their IEEE-754 bit
// pattern, strings as u64 length + bytes. Message structs (Hello,
// Epoch, Stats, ...) each provide encode()/decode; decode throws
// std::runtime_error on truncated or out-of-range input, which the
// transport layer attributes to Stage::Frame. Every count a decoder
// reads is checked against the bytes left before anything is
// allocated for it.
//
// The protocol is partition-aware: each worker is sent only the events
// of the objects it owns, and holds the current frequency rows of those
// objects only. Everything a worker reports per epoch — serve loads,
// the lower-bound delta, the request count — is an integer sum over its
// own objects, which the coordinator adds up. Other workers' rows reach
// a worker only through the row all-gather (Rows) that precedes a
// re-placement, because a handoff may read every row.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "hbn/workload/workload.h"

namespace hbn::shard {

inline constexpr std::uint32_t kFrameMagic = 0x48424E46;  // "HBNF"
inline constexpr std::uint64_t kMaxFramePayload = 1ULL << 28;
inline constexpr std::uint32_t kProtocolVersion = 2;
/// Frame header bytes (magic + type + payloadLen) and trailer bytes
/// (checksum).
inline constexpr std::size_t kFrameHeaderBytes = 16;
inline constexpr std::size_t kFrameTrailerBytes = 8;

/// Message kinds, in protocol order. One serve run is:
///   Hello -> HelloAck, then per epoch Epoch -> Stats -> Decide
///   [-> Rows (worker -> coordinator) -> Rows (coordinator -> worker)
///    -> Migrate when Decide.replace], then Fin -> FinAck.
/// Either side may send Error instead of its next expected frame.
enum class FrameType : std::uint32_t {
  kHello = 1,
  kHelloAck = 2,
  kEpoch = 3,
  kStats = 4,
  kDecide = 5,
  kMigrate = 6,
  kFin = 7,
  kFinAck = 8,
  kError = 9,
  kRows = 10,
};

[[nodiscard]] const char* frameTypeName(FrameType type) noexcept;

/// FNV-1a over `bytes` — the frame checksum.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes) noexcept;

/// Appends little-endian fields to a byte string.
class WireWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { appendLe(v); }
  void u64(std::uint64_t v) { appendLe(v); }
  void i32(std::int32_t v) { appendLe(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { appendLe(static_cast<std::uint64_t>(v)); }
  void f64(double v) { appendLe(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view v) {
    u64(v.size());
    out_.append(v);
  }
  void reserve(std::size_t bytes) { out_.reserve(bytes); }

  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  template <typename T>
  void appendLe(T v) {
    char bytes[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
    out_.append(bytes, sizeof(T));
  }

  std::string out_;
};

/// Reads little-endian fields off a byte string; throws
/// std::runtime_error on underflow or an out-of-range length.
class WireReader {
 public:
  explicit WireReader(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }
  [[nodiscard]] std::uint32_t u32() { return readLe<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return readLe<std::uint64_t>(); }
  [[nodiscard]] std::int32_t i32() {
    return static_cast<std::int32_t>(readLe<std::uint32_t>());
  }
  [[nodiscard]] std::int64_t i64() {
    return static_cast<std::int64_t>(readLe<std::uint64_t>());
  }
  [[nodiscard]] double f64() {
    return std::bit_cast<double>(readLe<std::uint64_t>());
  }
  [[nodiscard]] std::string str() {
    const std::uint64_t n = u64();
    if (n > bytes_.size() - pos_) {
      throw std::runtime_error("wire: string length exceeds payload");
    }
    std::string s(bytes_.substr(pos_, static_cast<std::size_t>(n)));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - pos_;
  }
  /// Every payload byte must be consumed — trailing garbage means the
  /// two sides disagree about the message layout.
  void finish() const {
    if (pos_ != bytes_.size()) {
      throw std::runtime_error("wire: trailing bytes in payload");
    }
  }

 private:
  void need(std::size_t n) const {
    if (n > bytes_.size() - pos_) {
      throw std::runtime_error("wire: truncated payload");
    }
  }
  template <typename T>
  [[nodiscard]] T readLe() {
    need(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<std::uint8_t>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += sizeof(T);
    return v;
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

/// Coordinator -> worker: the run configuration. The worker rebuilds
/// the full serving stack (tree, policy, partition) from this one
/// message, so a worker process needs nothing but its socket.
struct HelloMsg {
  std::uint32_t protocolVersion = kProtocolVersion;
  std::int32_t shardId = 0;
  std::int32_t shardCount = 1;
  std::int32_t numObjects = 0;
  std::uint64_t epochSize = 0;
  std::int32_t threads = 1;
  std::uint8_t partitionKind = 0;  ///< Partition::Kind as u8
  std::uint64_t partitionSeed = 0;
  std::string policySpec;
  std::string treeText;  ///< net::toText of the serving topology

  [[nodiscard]] std::string encode() const;
  [[nodiscard]] static HelloMsg decode(std::string_view payload);
};

/// The one epoch codec, run-length encoded:
///
///   u64 epoch | u64 events | u64 runs |
///   runs x ( i32 object | u32 count | count x u32 (origin << 1 | isWrite) )
///
/// A run is a stretch of consecutive events on one object, so the
/// encoding round-trips any event order; an object-bucketed epoch packs
/// into one run per touched object. Origins must be non-negative.
///
/// EpochWriter/EpochReader are the run-level halves EpochMsg is built
/// on: the coordinator writes each worker's owned runs straight from
/// the ingest stage's bucketed batch, and the worker decodes runs
/// straight into its CSR buffers, with its own ownership and order
/// checks on top.
class EpochWriter {
 public:
  /// Header of an epoch with `events` events in `runs` runs.
  EpochWriter(std::uint64_t epoch, std::uint64_t events, std::uint64_t runs);

  /// Appends one run: every event in `events` is on object `x` (only
  /// origin and isWrite are written). Throws std::invalid_argument on
  /// an empty run or a negative origin.
  void run(workload::ObjectId x,
           std::span<const workload::RequestEvent> events);

  /// The payload; throws std::logic_error when the runs written do not
  /// add up to the header.
  [[nodiscard]] std::string take();

 private:
  WireWriter w_;
  std::uint64_t events_;
  std::uint64_t runs_;
  std::uint64_t eventsWritten_ = 0;
  std::uint64_t runsWritten_ = 0;
};

class EpochReader {
 public:
  /// One run header: `count` events on `object`.
  struct Run {
    workload::ObjectId object = 0;
    std::uint32_t count = 0;
  };

  /// Reads the header; throws std::runtime_error when the event or run
  /// count cannot fit the payload.
  explicit EpochReader(std::string_view payload);

  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] std::uint64_t events() const noexcept { return events_; }
  [[nodiscard]] std::uint64_t runs() const noexcept { return runs_; }

  /// Reads the next run header into `run`; false once every run has
  /// been read. Throws std::runtime_error when the run's events run
  /// past the payload or past the header's event count.
  bool next(Run& run);
  /// Decodes the events of the run `next` just returned into
  /// out[0, run.count).
  void read(const Run& run, workload::RequestEvent* out);
  /// Every run read, event counts add up, no trailing bytes.
  void finish() const;

 private:
  WireReader r_;
  std::uint64_t epoch_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t runs_ = 0;
  std::uint64_t eventsRead_ = 0;
  std::uint64_t runsRead_ = 0;
};

/// One epoch of events, in any order, in the run-length format above.
struct EpochMsg {
  std::uint64_t epoch = 0;
  std::vector<workload::RequestEvent> events;

  [[nodiscard]] std::string encode() const;
  [[nodiscard]] static EpochMsg decode(std::string_view payload);
};

/// Worker -> coordinator after serving an epoch: the convergecast leg
/// of the epoch barrier, as integer sums over the worker's owned
/// objects. The coordinator checks `requests` against the events it
/// sent, adds serveLoads into its load maps and lowerBoundDelta into
/// the global per-edge lower-bound minima.
struct StatsMsg {
  std::uint64_t epoch = 0;
  std::uint64_t requests = 0;  ///< events served this epoch
  double busyMs = 0.0;
  std::uint8_t wantsHandoff = 0;
  std::uint8_t migratable = 0;
  std::int64_t replications = 0;
  std::int64_t invalidations = 0;
  std::vector<std::int64_t> serveLoads;       ///< per-edge delta
  std::vector<std::int64_t> lowerBoundDelta;  ///< per-edge delta

  [[nodiscard]] std::string encode() const;
  [[nodiscard]] static StatsMsg decode(std::string_view payload);
};

/// Coordinator -> worker: the broadcast leg of the barrier — whether
/// the §4 re-placement wave runs this epoch.
struct DecideMsg {
  std::uint64_t epoch = 0;
  std::uint8_t replace = 0;

  [[nodiscard]] std::string encode() const;
  [[nodiscard]] static DecideMsg decode(std::string_view payload);
};

/// One nonzero cell of an object's frequency row.
struct RowEntry {
  std::int32_t node = 0;
  std::int64_t reads = 0;
  std::int64_t writes = 0;
};

/// An object's frequency row, sparse: its nonzero cells by node.
struct ObjectRow {
  workload::ObjectId object = 0;
  std::vector<RowEntry> entries;
};

/// The row all-gather that precedes a re-placement. Each worker sends
/// the rows of its owned objects touched since the last gather; the
/// coordinator sends every worker all of them, so every worker opens
/// its handoff over the same full matrix. A leg may span several
/// frames; `last` marks the final one. Encoded by encodeRowFrames.
struct RowsMsg {
  std::uint64_t epoch = 0;
  std::uint8_t last = 1;
  std::vector<ObjectRow> rows;

  [[nodiscard]] static RowsMsg decode(std::string_view payload);
};

/// Encodes `rows` as RowsMsg payloads of at most `maxPayload` bytes
/// each, in order, with `last` set on the final one; always at least
/// one payload. Throws std::length_error when a single row does not fit
/// `maxPayload`.
[[nodiscard]] std::vector<std::string> encodeRowFrames(
    std::uint64_t epoch, std::span<const ObjectRow> rows,
    std::uint64_t maxPayload = kMaxFramePayload);

/// Worker -> coordinator after applying a re-placement: the migration
/// traffic charged for its owned objects.
struct MigrateMsg {
  std::uint64_t epoch = 0;
  double busyMs = 0.0;
  std::vector<std::int64_t> loads;  ///< per-edge migration delta

  [[nodiscard]] std::string encode() const;
  [[nodiscard]] static MigrateMsg decode(std::string_view payload);
};

/// Worker -> coordinator at end of stream: per-shard summary for the
/// aggregate report's breakdown.
struct FinAckMsg {
  std::uint64_t requests = 0;  ///< events served (owned objects)
  double busyMs = 0.0;         ///< total busy time across epochs
  std::int64_t replications = 0;
  std::int64_t invalidations = 0;
  std::map<std::string, double> policyMetrics;

  [[nodiscard]] std::string encode() const;
  [[nodiscard]] static FinAckMsg decode(std::string_view payload);
};

/// Either direction: a stage failure shipped with its serve::Error
/// attribution intact, so exit codes survive the wire.
struct ErrorMsg {
  std::uint32_t stage = 0;  ///< serve::Stage as u32
  std::uint64_t epoch = 0;
  std::string cause;

  [[nodiscard]] std::string encode() const;
  [[nodiscard]] static ErrorMsg decode(std::string_view payload);
};

}  // namespace hbn::shard
