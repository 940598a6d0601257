// Stage 1 of the pipelined epoch server: double-buffered ingest.
//
// EpochIngest pulls fixed-size epochs from a RequestStream, validates
// them, and pre-buckets them by object id (the stable CSR layout
// serveShard consumes) into one of two EpochBatch slots. In threaded
// mode a dedicated ingest thread keeps the next slot ready while the
// serve thread works on the current one, so pulling + bucketing
// disappears from the serving critical path; in inline mode the same
// fill runs on the caller's thread, which is exactly the barrier
// engine's behaviour. Both modes assemble identical epochs from the
// same stream (same chunked fill loop), which is what lets
// pipeline-on/off runs be compared request for request.
//
// Exactly one filler — the ingest thread, or the caller in inline
// mode — owns the stream and the epoch counter, so epochs keep their
// order and contents without a fill lock. A slow stream is simply
// waited for: acquire() blocks until the next epoch is ready.
//
// Failures while filling (stream errors, out-of-range requests) are
// wrapped into serve::Error with Stage::Ingest and the epoch being
// assembled, captured on the filling thread, and rethrown from
// acquire() once the epochs before it have been handed out — the
// caller sees the same structured error in both modes.
//
// Arrival stamps: each fill chunk records one steady-clock stamp, the
// arrival time of every request in that chunk. The serve loop turns
// them into request-latency samples (epoch completion − arrival) for
// the p50/p99/p999 product metrics. Stamps are wall-clock observations,
// never inputs to serving, so they cannot perturb determinism.
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "hbn/net/tree.h"
#include "hbn/serve/request_stream.h"

namespace hbn::serve {

/// One in-flight epoch: the raw arrival-order requests, the stable
/// object-bucketed copy with its CSR offsets and touched-object list,
/// and per-chunk arrival stamps.
struct EpochBatch {
  using Clock = std::chrono::steady_clock;

  std::vector<RequestEvent> raw;
  std::vector<RequestEvent> bucketed;
  std::vector<std::size_t> offsets;  ///< numObjects + 1 CSR offsets
  /// Objects with at least one request this epoch, ascending — the
  /// serve step's work list, built with the offsets on the ingest side.
  std::vector<workload::ObjectId> touched;
  /// (arrival stamp, requests that arrived with it), one per fill chunk.
  std::vector<std::pair<Clock::time_point, std::size_t>> arrivals;
  std::size_t n = 0;  ///< requests in this epoch
  /// Absolute epoch number this batch holds (baseEpoch + fills so far)
  /// — ingest errors name epochs in these terms.
  std::uint64_t epoch = 0;

  /// Bytes of per-request buffering this batch holds.
  [[nodiscard]] std::uint64_t bufferBytes() const noexcept;
};

/// The double-buffered ingest stage. Single consumer (the serve
/// thread): acquire() → serve the batch → release(). Errors raised
/// while filling are captured on the ingest thread and rethrown from
/// acquire(), so the caller sees the same exceptions in both modes.
class EpochIngest {
 public:
  /// `stream` and `tree` must outlive the ingest. `threaded` selects
  /// the dedicated ingest thread (two slots) versus inline filling on
  /// the consumer thread (one slot). `baseEpoch` is the absolute number
  /// of the first epoch this ingest will assemble (nonzero after a
  /// checkpoint restore).
  EpochIngest(RequestStream& stream, const net::Tree& tree, int numObjects,
              std::size_t epochSize, bool threaded,
              std::uint64_t baseEpoch = 0);
  ~EpochIngest();

  EpochIngest(const EpochIngest&) = delete;
  EpochIngest& operator=(const EpochIngest&) = delete;

  /// Next ready epoch, blocking on the ingest thread if it is still
  /// filling; nullptr once the stream is exhausted. The batch stays
  /// owned by the ingest; hand it back with release() before the next
  /// acquire().
  [[nodiscard]] EpochBatch* acquire();

  /// Returns a served batch's slot to the ingest thread for refilling.
  void release(EpochBatch* batch);

  /// Bytes of per-request buffering across all slots — the engine's
  /// epochBufferBytes: bounded by the declared epoch and, past 65536
  /// events, by the traffic read; never by the stream length.
  [[nodiscard]] std::uint64_t bufferBytes() const noexcept;

 private:
  /// Sizes a batch's buffers for this ingest's epoch and object count.
  void sizeBatch(EpochBatch& batch) const;
  /// Chunked fill + validate + bucket of one epoch into `batch`.
  void fillBatch(EpochBatch& batch);
  /// Fills `batch` as the next epoch and advances the epoch counter;
  /// wraps failures into serve::Error{Ingest}. Returns false at end of
  /// stream. Called only by the one filler.
  bool fillNextEpoch(EpochBatch& batch);
  void ingestLoop();
  /// Signals the ingest thread to stop and joins it; safe to call more
  /// than once. The destructor's RAII teardown — also invoked when the
  /// constructor fails after launching the thread.
  void shutdown() noexcept;

  enum class SlotState { Free, Ready };

  RequestStream* stream_;
  const net::Tree* tree_;
  int numObjects_;
  std::size_t epochSize_;
  bool threaded_;

  std::array<EpochBatch, 2> slots_;
  std::array<SlotState, 2> state_{SlotState::Free, SlotState::Free};
  std::size_t serveIndex_ = 0;  ///< next slot acquire() hands out
  /// Absolute number of the next epoch to assemble; owned by the filler.
  std::uint64_t nextEpoch_ = 0;
  bool exhausted_ = false;
  bool stopping_ = false;
  std::exception_ptr error_;
  std::mutex mutex_;
  std::condition_variable readyCv_;  ///< a slot turned Ready, or the end
  std::condition_variable freeCv_;   ///< a slot turned Free, or stopping
  std::thread worker_;
};

}  // namespace hbn::serve
