// Pluggable byte transports and the framed message layer over them.
//
// A ByteChannel is one reliable, ordered, bidirectional byte pipe to a
// peer. Two implementations ship:
//
//   loopback  an in-process pair of mutex/condvar byte queues — the
//             coordinator and worker run as threads of one process.
//             Zero syscalls, deterministic, what the digest-identity
//             tests and the 1-worker ≡ single-process check run on.
//   socket    an AF_UNIX SOCK_STREAM socketpair — the real
//             multi-process deployment (see hbn/shard/process.h for
//             the exec plumbing).
//
// FramedTransport wraps a channel with the wire.h frame format: every
// send is one length-prefixed, checksummed frame; every recv validates
// magic, length bound and checksum before handing the payload up.
// Failures map onto the serve::Error taxonomy:
//
//   Stage::Peer   clean close between frames, peer unresponsive past
//                 the recv timeout, or a write onto a closed channel
//   Stage::Frame  bad magic, oversized length prefix, checksum
//                 mismatch, or a connection cut mid-frame (truncation)
//
// setEpoch() tells the transport which epoch the protocol is in so
// those errors carry the right attribution. Byte counters on both
// directions feed the cross-shard-traffic accounting of the sharded
// report (every byte between coordinator and workers counts).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "hbn/shard/wire.h"

namespace hbn::shard {

/// One reliable ordered byte pipe to a peer. Implementations are
/// single-reader/single-writer per direction (the shard protocol is
/// strictly request/response on each link).
class ByteChannel {
 public:
  virtual ~ByteChannel() = default;

  /// Writes all `n` bytes; throws std::runtime_error when the peer end
  /// is closed.
  virtual void writeAll(const void* data, std::size_t n) = 0;

  /// Reads up to `n` bytes into `dst`. Returns the count read (>= 1),
  /// 0 on clean end-of-stream, or -1 when `timeoutMs` > 0 elapsed with
  /// nothing to read. `timeoutMs` <= 0 waits forever.
  [[nodiscard]] virtual std::ptrdiff_t readSome(void* dst, std::size_t n,
                                                double timeoutMs) = 0;

  /// Closes this end; the peer's reads see end-of-stream once the
  /// buffered bytes drain. Idempotent.
  virtual void close() noexcept = 0;
};

/// One received frame.
struct Frame {
  FrameType type = FrameType::kError;
  std::string payload;
};

/// The framed message layer over one ByteChannel.
class FramedTransport {
 public:
  explicit FramedTransport(std::unique_ptr<ByteChannel> channel)
      : channel_(std::move(channel)) {}

  /// Encodes one frame — header, payload, checksum — as raw bytes.
  /// Exposed so the coordinator can encode a broadcast frame (Decide,
  /// Rows, Fin) once and write identical bytes to every worker link.
  [[nodiscard]] static std::string encodeFrame(FrameType type,
                                               std::string_view payload);

  void send(FrameType type, std::string_view payload);
  /// Writes an encodeFrame()-produced byte string as-is.
  void sendEncoded(std::string_view frame);

  /// Blocks for the next frame, validating magic, length bound and
  /// checksum. `timeoutMs` > 0 is the peer watchdog: past it the recv
  /// fails with Stage::Peer instead of hanging on a dead worker.
  [[nodiscard]] Frame recv(double timeoutMs = 0.0);

  /// Epoch attribution for transport errors raised from now on.
  void setEpoch(std::uint64_t epoch) noexcept { epoch_ = epoch; }

  [[nodiscard]] std::uint64_t bytesSent() const noexcept {
    return bytesSent_;
  }
  [[nodiscard]] std::uint64_t bytesReceived() const noexcept {
    return bytesReceived_;
  }

  void close() noexcept { channel_->close(); }

 private:
  /// Reads exactly `n` bytes or fails: 0 bytes -> Peer (clean close),
  /// partial -> Frame (truncated), timeout -> Peer (unresponsive).
  /// `atFrameStart` selects the clean-close attribution.
  void readExact(void* dst, std::size_t n, double timeoutMs,
                 bool atFrameStart);

  std::unique_ptr<ByteChannel> channel_;
  std::uint64_t epoch_ = 0;
  std::uint64_t bytesSent_ = 0;
  std::uint64_t bytesReceived_ = 0;
};

/// Builds a connected loopback channel pair: bytes written to `first`
/// are read from `second` and vice versa.
[[nodiscard]] std::pair<std::unique_ptr<ByteChannel>,
                        std::unique_ptr<ByteChannel>>
makeLoopbackPair();

/// Wraps an AF_UNIX stream socket file descriptor; takes ownership.
[[nodiscard]] std::unique_ptr<ByteChannel> makeSocketChannel(int fd);

/// Creates a connected AF_UNIX SOCK_STREAM socketpair; throws
/// std::runtime_error on failure.
[[nodiscard]] std::pair<int, int> makeSocketPair();

}  // namespace hbn::shard
