// Negative-path and fuzz tests for the shard framed transport
// (hbn/shard/transport.h) and the message codecs (hbn/shard/wire.h):
// every malformed byte sequence a peer can ship must surface as a
// serve::Error with the right stage attribution (Frame for malformed
// bytes, Peer for death/unresponsiveness), and every corrupt payload as
// a decode exception — never a crash, a hang, an oversized allocation,
// or a silently corrupt payload.
#include <cstdint>
#include <cstring>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "hbn/serve/error.h"
#include "hbn/shard/transport.h"
#include "hbn/shard/wire.h"

namespace hbn::shard {
namespace {

/// Channel pair with the receiving end framed and the sending end raw,
/// so tests can write arbitrary (malformed) bytes.
struct RawToFramed {
  std::unique_ptr<ByteChannel> raw;
  FramedTransport framed;

  RawToFramed()
      : RawToFramed(makeLoopbackPair()) {}

 private:
  explicit RawToFramed(
      std::pair<std::unique_ptr<ByteChannel>, std::unique_ptr<ByteChannel>>
          pair)
      : raw(std::move(pair.first)), framed(std::move(pair.second)) {}
};

TEST(ShardTransport, RoundtripsFrames) {
  auto [a, b] = makeLoopbackPair();
  FramedTransport sender(std::move(a));
  FramedTransport receiver(std::move(b));

  sender.send(FrameType::kHello, "payload bytes");
  sender.send(FrameType::kEpoch, {});  // empty payload is a valid frame
  const std::string big(1 << 20, 'x');
  sender.send(FrameType::kStats, big);

  Frame frame = receiver.recv();
  EXPECT_EQ(frame.type, FrameType::kHello);
  EXPECT_EQ(frame.payload, "payload bytes");
  frame = receiver.recv();
  EXPECT_EQ(frame.type, FrameType::kEpoch);
  EXPECT_TRUE(frame.payload.empty());
  frame = receiver.recv();
  EXPECT_EQ(frame.type, FrameType::kStats);
  EXPECT_EQ(frame.payload, big);

  EXPECT_EQ(sender.bytesSent(), receiver.bytesReceived());
  EXPECT_GT(sender.bytesSent(), big.size());
}

TEST(ShardTransport, SocketChannelRoundtripsAcrossThreads) {
  auto [fdA, fdB] = makeSocketPair();
  FramedTransport a(makeSocketChannel(fdA));
  FramedTransport b(makeSocketChannel(fdB));
  // Larger than any socket buffer, so writeAll must loop and the
  // reader must drain concurrently.
  const std::string big(8 << 20, 'y');
  std::thread writer([&] { a.send(FrameType::kMigrate, big); });
  const Frame frame = b.recv();
  writer.join();
  EXPECT_EQ(frame.type, FrameType::kMigrate);
  EXPECT_EQ(frame.payload, big);
}

TEST(ShardTransport, CleanCloseAtFrameStartIsPeerError) {
  RawToFramed link;
  link.raw->close();
  try {
    (void)link.framed.recv();
    FAIL() << "expected serve::Error";
  } catch (const serve::Error& e) {
    EXPECT_EQ(e.stage(), serve::Stage::Peer);
    EXPECT_EQ(e.exitCode(), 17);
  }
}

TEST(ShardTransport, TruncatedFrameIsFrameError) {
  RawToFramed link;
  const std::string frame =
      FramedTransport::encodeFrame(FrameType::kStats, "abcdefgh");
  // Ship the header plus half the payload, then die.
  link.raw->writeAll(frame.data(), kFrameHeaderBytes + 4);
  link.raw->close();
  try {
    (void)link.framed.recv();
    FAIL() << "expected serve::Error";
  } catch (const serve::Error& e) {
    EXPECT_EQ(e.stage(), serve::Stage::Frame);
    EXPECT_EQ(e.exitCode(), 16);
    EXPECT_NE(e.cause().find("truncated"), std::string::npos);
  }
}

TEST(ShardTransport, BadMagicIsFrameError) {
  RawToFramed link;
  std::string frame =
      FramedTransport::encodeFrame(FrameType::kHello, "hi");
  frame[0] = 'Z';
  link.raw->writeAll(frame.data(), frame.size());
  try {
    (void)link.framed.recv();
    FAIL() << "expected serve::Error";
  } catch (const serve::Error& e) {
    EXPECT_EQ(e.stage(), serve::Stage::Frame);
    EXPECT_NE(e.cause().find("magic"), std::string::npos);
  }
}

TEST(ShardTransport, OversizedLengthPrefixIsFrameError) {
  RawToFramed link;
  std::string frame =
      FramedTransport::encodeFrame(FrameType::kHello, "hi");
  // Stamp a payload length just past the hard bound into the header
  // (little-endian u64 at offset 8).
  const std::uint64_t oversized = kMaxFramePayload + 1;
  std::memcpy(frame.data() + 8, &oversized, sizeof(oversized));
  link.raw->writeAll(frame.data(), frame.size());
  try {
    (void)link.framed.recv();
    FAIL() << "expected serve::Error";
  } catch (const serve::Error& e) {
    EXPECT_EQ(e.stage(), serve::Stage::Frame);
    EXPECT_NE(e.cause().find("oversized"), std::string::npos);
  }
}

TEST(ShardTransport, ChecksumMismatchIsFrameError) {
  RawToFramed link;
  std::string frame =
      FramedTransport::encodeFrame(FrameType::kDecide, "payload");
  frame[kFrameHeaderBytes + 2] ^= 0x40;  // flip one payload bit
  link.raw->writeAll(frame.data(), frame.size());
  try {
    (void)link.framed.recv();
    FAIL() << "expected serve::Error";
  } catch (const serve::Error& e) {
    EXPECT_EQ(e.stage(), serve::Stage::Frame);
    EXPECT_NE(e.cause().find("checksum"), std::string::npos);
  }
}

TEST(ShardTransport, RecvTimeoutIsPeerError) {
  RawToFramed link;  // nothing ever written
  try {
    (void)link.framed.recv(/*timeoutMs=*/50.0);
    FAIL() << "expected serve::Error";
  } catch (const serve::Error& e) {
    EXPECT_EQ(e.stage(), serve::Stage::Peer);
    EXPECT_NE(e.cause().find("unresponsive"), std::string::npos);
  }
}

TEST(ShardTransport, WriteAfterPeerClosedThrows) {
  auto [a, b] = makeLoopbackPair();
  FramedTransport sender(std::move(a));
  b->close();
  EXPECT_THROW(sender.send(FrameType::kHello, "x"), serve::Error);
}

// Fuzz: single-byte corruptions of a valid two-frame byte stream must
// either decode (corruption hit a spot the receiver cannot distinguish,
// e.g. producing another internally-consistent frame — the checksum
// makes that impossible for payload bytes) or fail with a serve::Error.
// Never any other exception, never a hang (the recv timeout bounds the
// wait), never a wrong-payload success.
TEST(ShardTransport, FuzzedCorruptionNeverCrashes) {
  const std::string one =
      FramedTransport::encodeFrame(FrameType::kStats, "first payload");
  const std::string two =
      FramedTransport::encodeFrame(FrameType::kEpoch, "second-payload!");
  const std::string clean = one + two;
  std::mt19937_64 rng(20260808);
  for (int trial = 0; trial < 400; ++trial) {
    std::string bytes = clean;
    const std::size_t at = rng() % bytes.size();
    const char flip = static_cast<char>(1 + rng() % 255);
    bytes[at] = static_cast<char>(bytes[at] ^ flip);

    RawToFramed link;
    link.raw->writeAll(bytes.data(), bytes.size());
    link.raw->close();
    int delivered = 0;
    try {
      for (;;) {
        const Frame frame = link.framed.recv(/*timeoutMs=*/2000.0);
        // Whatever got through intact must be one of the two originals.
        EXPECT_TRUE(frame.payload == "first payload" ||
                    frame.payload == "second-payload!")
            << "corrupt payload delivered at offset " << at;
        ++delivered;
      }
    } catch (const serve::Error&) {
      // Expected for most corruptions (including the end-of-stream
      // Peer error once both frames drained).
    }
    EXPECT_LE(delivered, 2);
  }
}

// The epoch codec round-trips any event order: interleaved objects,
// repeats, runs of one object, and the empty epoch.
TEST(ShardWire, EpochMsgRoundtripsAnyOrder) {
  std::mt19937_64 rng(7);
  for (const std::size_t n : {0, 1, 2, 17, 500}) {
    EpochMsg msg;
    msg.epoch = 40 + n;
    for (std::size_t i = 0; i < n; ++i) {
      msg.events.push_back({static_cast<workload::ObjectId>(rng() % 5),
                            static_cast<net::NodeId>(rng() % 41),
                            rng() % 3 == 0});
    }
    const EpochMsg back = EpochMsg::decode(msg.encode());
    EXPECT_EQ(back.epoch, msg.epoch);
    ASSERT_EQ(back.events.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(back.events[i].object, msg.events[i].object);
      EXPECT_EQ(back.events[i].origin, msg.events[i].origin);
      EXPECT_EQ(back.events[i].isWrite, msg.events[i].isWrite);
    }
  }
  EpochMsg bad;
  bad.events.push_back({0, -1, false});
  EXPECT_THROW((void)bad.encode(), std::invalid_argument);
}

std::vector<ObjectRow> sampleRows(int count) {
  std::vector<ObjectRow> rows;
  for (int x = 0; x < count; ++x) {
    ObjectRow row;
    row.object = 3 * x;
    for (int v = 0; v <= x % 4; ++v) {
      row.entries.push_back({v, 10 * x + v, x});
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

bool sameRows(const std::vector<ObjectRow>& a,
              const std::vector<ObjectRow>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].object != b[i].object ||
        a[i].entries.size() != b[i].entries.size()) {
      return false;
    }
    for (std::size_t j = 0; j < a[i].entries.size(); ++j) {
      const RowEntry& p = a[i].entries[j];
      const RowEntry& q = b[i].entries[j];
      if (p.node != q.node || p.reads != q.reads || p.writes != q.writes) {
        return false;
      }
    }
  }
  return true;
}

// Rows past the byte cap split over several payloads, each within the
// cap, in order, with `last` on the final one only.
TEST(ShardWire, RowFramesSplitAtTheByteCap) {
  const std::vector<ObjectRow> rows = sampleRows(40);
  const std::uint64_t cap = 200;
  const std::vector<std::string> payloads = encodeRowFrames(9, rows, cap);
  ASSERT_GT(payloads.size(), 1u);
  std::vector<ObjectRow> joined;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_LE(payloads[i].size(), cap);
    RowsMsg msg = RowsMsg::decode(payloads[i]);
    EXPECT_EQ(msg.epoch, 9u);
    EXPECT_EQ(msg.last, i + 1 == payloads.size() ? 1 : 0);
    EXPECT_FALSE(msg.rows.empty());
    for (ObjectRow& row : msg.rows) joined.push_back(std::move(row));
  }
  EXPECT_TRUE(sameRows(joined, rows));

  // Under the default cap everything fits one payload; no rows still
  // make one (empty, last) payload.
  const std::vector<std::string> one = encodeRowFrames(9, rows);
  ASSERT_EQ(one.size(), 1u);
  const RowsMsg whole = RowsMsg::decode(one[0]);
  EXPECT_EQ(whole.last, 1);
  EXPECT_TRUE(sameRows(whole.rows, rows));
  const std::vector<std::string> none = encodeRowFrames(9, {});
  ASSERT_EQ(none.size(), 1u);
  EXPECT_EQ(RowsMsg::decode(none[0]).last, 1);
  EXPECT_TRUE(RowsMsg::decode(none[0]).rows.empty());

  // A single row larger than the cap cannot be split.
  EXPECT_THROW((void)encodeRowFrames(9, rows, 40), std::length_error);
}

/// Flips one random byte or truncates `clean` at a random point, then
/// decodes it with `decode`, which must either succeed or throw
/// std::runtime_error. `sizeOf` counts the elements a successful decode
/// allocated; each needs at least `bytesPerElement` payload bytes.
template <typename Decode, typename SizeOf>
void fuzzDecoder(const std::string& clean, Decode decode, SizeOf sizeOf,
                 std::size_t bytesPerElement) {
  std::mt19937_64 rng(20261017);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string bytes = clean;
    if (trial % 4 == 0) {
      bytes.resize(rng() % bytes.size());
    } else {
      const std::size_t at = rng() % bytes.size();
      bytes[at] = static_cast<char>(bytes[at] ^ (1 + rng() % 255));
    }
    try {
      const auto decoded = decode(bytes);
      EXPECT_LE(sizeOf(decoded) * bytesPerElement, bytes.size());
    } catch (const std::runtime_error&) {
      // Corrupt payloads throw; the transport turns this into Frame.
    }
  }
}

TEST(ShardWire, FuzzedMessagePayloadsThrowOrDecodeBounded) {
  EpochMsg epoch;
  epoch.epoch = 3;
  for (int i = 0; i < 60; ++i) {
    epoch.events.push_back({i / 7, i % 41, i % 5 == 0});
  }
  fuzzDecoder(
      epoch.encode(), [](const std::string& b) { return EpochMsg::decode(b); },
      [](const EpochMsg& m) { return m.events.size(); }, 4);

  StatsMsg stats;
  stats.epoch = 3;
  stats.requests = 60;
  stats.serveLoads.assign(40, 7);
  stats.lowerBoundDelta.assign(40, -2);
  fuzzDecoder(
      stats.encode(), [](const std::string& b) { return StatsMsg::decode(b); },
      [](const StatsMsg& m) {
        return m.serveLoads.size() + m.lowerBoundDelta.size();
      },
      8);

  fuzzDecoder(
      encodeRowFrames(3, sampleRows(12)).front(),
      [](const std::string& b) { return RowsMsg::decode(b); },
      [](const RowsMsg& m) {
        std::size_t cells = m.rows.size();
        for (const ObjectRow& row : m.rows) cells += row.entries.size();
        return cells;
      },
      8);

  // Counts far past the payload are rejected before any allocation.
  WireWriter huge;
  huge.u64(0);
  huge.u64(1ULL << 60);
  huge.u64(1ULL << 60);
  EXPECT_THROW((void)EpochMsg::decode(huge.take()), std::runtime_error);
  WireWriter hugeRows;
  hugeRows.u64(0);
  hugeRows.u8(1);
  hugeRows.u64(1ULL << 60);
  EXPECT_THROW((void)RowsMsg::decode(hugeRows.take()), std::runtime_error);
}

}  // namespace
}  // namespace hbn::shard
