// Tests for the process-wide worker pool behind every object-parallel
// loop: persistent thread reuse, deterministic exception propagation,
// inline nested calls, and the contiguous and weighted splits at their
// edge cases (more workers than items, threads == 0, empty chunks).
#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "hbn/core/parallel.h"

namespace hbn::core {
namespace {

using workload::ObjectId;

TEST(WorkerPool, BackToBackCallsReuseTheSameThreads) {
  constexpr int kWorkers = 4;
  constexpr int kCalls = 10'000;
  std::vector<std::thread::id> first(kWorkers);
  parallelRun(kWorkers, [&](int w) {
    first[static_cast<std::size_t>(w)] = std::this_thread::get_id();
  });
  EXPECT_EQ(first[0], std::this_thread::get_id()) << "worker 0 is the caller";
  EXPECT_EQ(std::set<std::thread::id>(first.begin(), first.end()).size(),
            static_cast<std::size_t>(kWorkers));

  std::vector<int> mismatches(kWorkers, 0);
  std::vector<int> runs(kWorkers, 0);
  for (int call = 0; call < kCalls; ++call) {
    parallelRun(kWorkers, [&](int w) {
      const auto slot = static_cast<std::size_t>(w);
      ++runs[slot];
      if (std::this_thread::get_id() != first[slot]) ++mismatches[slot];
    });
  }
  for (int w = 0; w < kWorkers; ++w) {
    EXPECT_EQ(runs[static_cast<std::size_t>(w)], kCalls) << "worker " << w;
    EXPECT_EQ(mismatches[static_cast<std::size_t>(w)], 0) << "worker " << w;
  }
}

TEST(WorkerPool, LowestThrowingWorkerWinsAndEveryBodyRuns) {
  for (int repeat = 0; repeat < 50; ++repeat) {
    std::atomic<int> ran{0};
    try {
      parallelRun(6, [&](int w) {
        ran.fetch_add(1);
        if (w == 2 || w == 3 || w == 5) {
          throw std::runtime_error("worker " + std::to_string(w));
        }
      });
      FAIL() << "no exception propagated";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "worker 2");
    }
    EXPECT_EQ(ran.load(), 6);
  }
  // The pool stays usable after a failing call.
  std::atomic<int> ran{0};
  parallelRun(6, [&](int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 6);
}

TEST(WorkerPool, NestedCallRunsInlineWithoutDeadlock) {
  constexpr int kWorkers = 4;
  std::vector<int> inlineCalls(kWorkers, 0);
  std::vector<int> innerRuns(kWorkers, 0);
  parallelRun(kWorkers, [&](int outer) {
    const std::thread::id self = std::this_thread::get_id();
    const auto slot = static_cast<std::size_t>(outer);
    parallelRun(kWorkers, [&](int) {
      ++innerRuns[slot];
      if (std::this_thread::get_id() == self) ++inlineCalls[slot];
    });
    // And through the object-range wrapper, as a placement strategy
    // called from a handoff pass inside a serving worker would.
    parallelForObjects(10, kWorkers, [&](ObjectId, int) {
      if (std::this_thread::get_id() != self) inlineCalls[slot] = -1000;
    });
  });
  for (int w = 0; w < kWorkers; ++w) {
    EXPECT_EQ(innerRuns[static_cast<std::size_t>(w)], kWorkers);
    EXPECT_EQ(inlineCalls[static_cast<std::size_t>(w)], kWorkers);
  }
}

TEST(WorkerPool, ConcurrentCallersFromSeveralThreadsAllComplete) {
  // A second thread finding the pool busy runs its call inline; every
  // call still visits every worker index exactly once.
  constexpr int kThreads = 3;
  constexpr int kCalls = 300;
  std::vector<std::thread> callers;
  std::vector<long> totals(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    callers.emplace_back([&totals, t] {
      for (int call = 0; call < kCalls; ++call) {
        std::vector<int> seen(5, 0);
        parallelRun(5, [&](int w) { ++seen[static_cast<std::size_t>(w)]; });
        totals[static_cast<std::size_t>(t)] +=
            std::accumulate(seen.begin(), seen.end(), 0L);
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (const long total : totals) EXPECT_EQ(total, 5L * kCalls);
}

TEST(ParallelForObjects, MoreWorkersThanItemsAndHardwareDefault) {
  for (const int threads : {0, 1, 3, 8, 64}) {
    for (const int items : {1, 2, 7, 1000}) {
      std::vector<int> visits(static_cast<std::size_t>(items), 0);
      std::vector<int> owner(static_cast<std::size_t>(items), -1);
      const int workers = resolveWorkerCount(threads, items);
      EXPECT_GE(workers, 1);
      EXPECT_LE(workers, items);
      parallelForObjects(items, threads, [&](ObjectId x, int worker) {
        ++visits[static_cast<std::size_t>(x)];
        owner[static_cast<std::size_t>(x)] = worker;
      });
      for (int x = 0; x < items; ++x) {
        EXPECT_EQ(visits[static_cast<std::size_t>(x)], 1)
            << "threads " << threads << " items " << items;
      }
      // Contiguous id ranges: the owning worker never decreases.
      for (int x = 1; x < items; ++x) {
        EXPECT_LE(owner[static_cast<std::size_t>(x) - 1],
                  owner[static_cast<std::size_t>(x)]);
      }
      EXPECT_LT(owner.back(), workers);
    }
  }
}

TEST(ParallelForChunks, EveryWorkerRunsAndChunksTileTheList) {
  const std::vector<ObjectId> items = {4, 9};
  std::vector<int> calls(7, 0);
  std::vector<ObjectId> covered;
  std::mutex mutex;
  parallelForChunks(
      items, 7, 16, [](ObjectId) { return 1; },
      [&](std::span<const ObjectId> chunk, int worker) {
        std::lock_guard<std::mutex> lock(mutex);
        ++calls[static_cast<std::size_t>(worker)];
        covered.insert(covered.end(), chunk.begin(), chunk.end());
      });
  for (const int c : calls) EXPECT_EQ(c, 1);
  std::sort(covered.begin(), covered.end());
  EXPECT_EQ(covered, items);

  // An empty list still runs every worker once.
  std::atomic<int> empty{0};
  parallelForChunks(
      std::span<const ObjectId>(), 4, 16, [](ObjectId) { return 1; },
      [&](std::span<const ObjectId> chunk, int) {
        EXPECT_TRUE(chunk.empty());
        empty.fetch_add(1);
      });
  EXPECT_EQ(empty.load(), 4);
}

TEST(ParallelForChunks, SplitsByWeightNotByCount) {
  // Zipf-like weights with the heaviest item LAST: an equal-count split
  // would hand the last worker almost everything.
  std::vector<ObjectId> items(64);
  std::iota(items.begin(), items.end(), 0);
  const auto weight = [](ObjectId x) {
    return static_cast<std::uint64_t>(x == 63 ? 600 : (x % 5) + 1);
  };
  std::uint64_t total = 0;
  for (const ObjectId x : items) total += weight(x);
  std::vector<std::uint64_t> load(4, 0);
  std::vector<std::pair<ObjectId, ObjectId>> ranges(4, {-1, -1});
  parallelForChunks(items, 4, 0, weight,
                    [&](std::span<const ObjectId> chunk, int worker) {
                      const auto w = static_cast<std::size_t>(worker);
                      for (const ObjectId x : chunk) load[w] += weight(x);
                      if (!chunk.empty()) {
                        ranges[w] = {chunk.front(), chunk.back()};
                      }
                    });
  // The heavy item sits alone in its chunk, so the busiest worker
  // carries exactly the one unsplittable item — the best any split can
  // do — while an equal-count split would add 15 light items to it.
  const auto heavy = std::find_if(ranges.begin(), ranges.end(),
                                  [](const auto& r) { return r.first == 63; });
  ASSERT_NE(heavy, ranges.end());
  EXPECT_EQ(heavy->second, 63);
  EXPECT_EQ(*std::max_element(load.begin(), load.end()), 600u);
  EXPECT_EQ(load[0] + load[1] + load[2] + load[3], total);
  // Chunks are contiguous and ordered.
  ObjectId next = 0;
  for (const auto& [first, last] : ranges) {
    if (first < 0) continue;
    EXPECT_EQ(first, next);
    next = last + 1;
  }
  EXPECT_EQ(next, 64);

  // Uniform weights split evenly, and the per-item cost counts: with
  // one heavy object, a large per-item cost pulls the split back
  // towards equal counts.
  std::vector<std::size_t> sizes(4, 0);
  parallelForChunks(items, 4, 0, [](ObjectId) { return 1; },
                    [&](std::span<const ObjectId> chunk, int worker) {
                      sizes[static_cast<std::size_t>(worker)] = chunk.size();
                    });
  EXPECT_EQ(sizes, std::vector<std::size_t>(4, 16));
  parallelForChunks(items, 4, 1'000'000, weight,
                    [&](std::span<const ObjectId> chunk, int worker) {
                      sizes[static_cast<std::size_t>(worker)] = chunk.size();
                    });
  EXPECT_EQ(sizes, std::vector<std::size_t>(4, 16));
}

}  // namespace
}  // namespace hbn::core
