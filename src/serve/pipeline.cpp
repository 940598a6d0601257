#include "hbn/serve/pipeline.h"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>

#include "hbn/dynamic/harness.h"
#include "hbn/serve/error.h"

namespace hbn::serve {
namespace {

/// Fill chunks per epoch: each chunk gets one arrival stamp, so an
/// epoch contributes up to this many latency samples. Small enough that
/// stamping is free, large enough that per-epoch p99 means something.
constexpr std::size_t kIngestChunks = 16;
/// Largest single fill chunk: the buffers grow chunk by chunk with the
/// traffic read, never more than this ahead of the events they hold.
constexpr std::size_t kMaxFillChunk = 4096;

}  // namespace

std::uint64_t EpochBatch::bufferBytes() const noexcept {
  return static_cast<std::uint64_t>(raw.capacity() + bucketed.capacity()) *
             sizeof(RequestEvent) +
         static_cast<std::uint64_t>(offsets.capacity()) *
             sizeof(std::size_t) +
         static_cast<std::uint64_t>(touched.capacity()) *
             sizeof(workload::ObjectId) +
         static_cast<std::uint64_t>(arrivals.capacity()) *
             sizeof(arrivals[0]);
}

EpochIngest::EpochIngest(RequestStream& stream, const net::Tree& tree,
                         int numObjects, std::size_t epochSize, bool threaded,
                         std::uint64_t baseEpoch)
    : stream_(&stream),
      tree_(&tree),
      numObjects_(numObjects),
      epochSize_(epochSize),
      threaded_(threaded),
      nextEpoch_(baseEpoch) {
  if (epochSize_ < 1) {
    throw std::invalid_argument("EpochIngest: epochSize >= 1");
  }
  const std::size_t slotCount = threaded_ ? 2 : 1;
  for (std::size_t s = 0; s < slotCount; ++s) sizeBatch(slots_[s]);
  // Launch last: everything the thread touches is initialised, and the
  // RAII shutdown() below joins it on every exit path after this point.
  if (threaded_) {
    worker_ = std::thread([this] { ingestLoop(); });
  }
}

EpochIngest::~EpochIngest() { shutdown(); }

void EpochIngest::shutdown() noexcept {
  if (!worker_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  freeCv_.notify_all();
  worker_.join();
}

void EpochIngest::sizeBatch(EpochBatch& batch) const {
  // An epoch that fits in kIngestChunks uncapped chunks is sized up
  // front: a closed-loop stream fills it anyway, and growing to it would
  // leave freed reallocation steps resident. Larger declared epochs grow
  // with the events actually read (fillBatch).
  if (epochSize_ <= kIngestChunks * kMaxFillChunk) {
    batch.raw.resize(epochSize_);
    batch.bucketed.resize(epochSize_);
  }
  batch.offsets.resize(static_cast<std::size_t>(numObjects_) + 1);
  batch.touched.reserve(
      std::min(epochSize_, static_cast<std::size_t>(numObjects_)));
  batch.arrivals.reserve(kIngestChunks);
}

void EpochIngest::fillBatch(EpochBatch& batch) {
  batch.n = 0;
  batch.arrivals.clear();
  const std::size_t chunk = std::clamp<std::size_t>(
      (epochSize_ + kIngestChunks - 1) / kIngestChunks, 1, kMaxFillChunk);
  while (batch.n < epochSize_) {
    const std::size_t want = std::min(chunk, epochSize_ - batch.n);
    // High-water growth, never shrinking.
    if (batch.raw.size() < batch.n + want) batch.raw.resize(batch.n + want);
    const std::size_t got = stream_->fill(
        std::span<RequestEvent>(batch.raw.data() + batch.n, want));
    if (got == 0) break;
    batch.arrivals.emplace_back(EpochBatch::Clock::now(), got);
    batch.n += got;
  }
  if (batch.n == 0) return;
  if (batch.bucketed.size() < batch.n) batch.bucketed.resize(batch.n);
  for (std::size_t i = 0; i < batch.n; ++i) {
    const RequestEvent& ev = batch.raw[i];
    if (ev.object < 0 || ev.object >= numObjects_) {
      throw std::out_of_range("ingest: request object " +
                              std::to_string(ev.object) + " out of range");
    }
    if (ev.origin < 0 || ev.origin >= tree_->nodeCount()) {
      throw std::out_of_range("ingest: request origin " +
                              std::to_string(ev.origin) + " out of range");
    }
  }
  dynamic::bucketRequestsByObject(
      std::span<const RequestEvent>(batch.raw.data(), batch.n), numObjects_,
      batch.offsets,
      std::span<RequestEvent>(batch.bucketed.data(), batch.n),
      &batch.touched);
}

bool EpochIngest::fillNextEpoch(EpochBatch& batch) {
  batch.epoch = nextEpoch_;
  try {
    fillBatch(batch);
  } catch (const Error&) {
    throw;
  } catch (const std::exception& e) {
    throw Error(Stage::Ingest, batch.epoch, e.what());
  } catch (...) {
    throw Error(Stage::Ingest, batch.epoch, "unknown ingest failure");
  }
  if (batch.n == 0) return false;
  ++nextEpoch_;
  return true;
}

void EpochIngest::ingestLoop() {
  for (std::size_t index = 0;; index = 1 - index) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      freeCv_.wait(lock, [this, index] {
        return stopping_ || state_[index] == SlotState::Free;
      });
      if (stopping_) return;
    }
    // Fill outside mutex_: this is the whole point of the stage — the
    // consumer serves the other slot meanwhile.
    bool filled = false;
    std::exception_ptr error;
    try {
      filled = fillNextEpoch(slots_[index]);
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (filled) {
        state_[index] = SlotState::Ready;
      } else if (error) {
        error_ = error;
      } else {
        exhausted_ = true;
      }
    }
    readyCv_.notify_all();
    if (!filled) return;
  }
}

EpochBatch* EpochIngest::acquire() {
  if (!threaded_) return fillNextEpoch(slots_[0]) ? &slots_[0] : nullptr;
  std::unique_lock<std::mutex> lock(mutex_);
  readyCv_.wait(lock, [this] {
    return error_ || exhausted_ || state_[serveIndex_] == SlotState::Ready;
  });
  if (state_[serveIndex_] == SlotState::Ready) {
    // Drain ready slots before reporting end-of-stream or an error: the
    // epochs before the failure point are valid either way.
    EpochBatch* batch = &slots_[serveIndex_];
    serveIndex_ = 1 - serveIndex_;
    return batch;
  }
  if (error_) std::rethrow_exception(error_);
  return nullptr;  // exhausted
}

void EpochIngest::release(EpochBatch* batch) {
  if (!threaded_ || batch == nullptr) return;
  const auto index = static_cast<std::size_t>(batch - slots_.data());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    state_[index] = SlotState::Free;
  }
  freeCv_.notify_all();
}

std::uint64_t EpochIngest::bufferBytes() const noexcept {
  const std::size_t slotCount = threaded_ ? 2 : 1;
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < slotCount; ++s) {
    total += slots_[s].bufferBytes();
  }
  return total;
}

}  // namespace hbn::serve
