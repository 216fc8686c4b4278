#include "sim/executor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "util/rng.hpp"

namespace intertubes::sim {
namespace {

TEST(SimExecutor, NumThreads) {
  EXPECT_EQ(Executor(1).num_threads(), 1u);
  EXPECT_EQ(Executor(4).num_threads(), 4u);
  EXPECT_GE(Executor(0).num_threads(), 1u);  // hardware default
}

TEST(SimExecutor, EmptyRangeNeverInvokesBody) {
  Executor executor(4);
  std::atomic<int> calls{0};
  executor.parallel_for(5, 5, [&](std::size_t) { ++calls; });
  executor.parallel_for(7, 3, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
  const auto empty = executor.parallel_map<int>(0, [](std::size_t) { return 1; });
  EXPECT_TRUE(empty.empty());
}

TEST(SimExecutor, ParallelForCoversEveryIndexExactlyOnce) {
  Executor executor(4);
  std::vector<std::atomic<int>> hits(257);
  executor.parallel_for(0, hits.size(), [&](std::size_t i) { ++hits[i]; }, 3);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(SimExecutor, ChunkSizingPartitionsTheRange) {
  Executor executor(3);
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  executor.for_each_chunk(10, 60, 7, [&](std::size_t b, std::size_t e) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.emplace_back(b, e);
  });
  std::sort(chunks.begin(), chunks.end());
  ASSERT_EQ(chunks.size(), 8u);  // ceil(50 / 7)
  std::size_t expect_begin = 10;
  for (const auto& [b, e] : chunks) {
    EXPECT_EQ(b, expect_begin);
    EXPECT_EQ((b - 10) % 7, 0u);  // aligned to the chunk grid
    EXPECT_LE(e - b, 7u);
    expect_begin = e;
  }
  EXPECT_EQ(expect_begin, 60u);
}

TEST(SimExecutor, ResolveChunkDefaultsDependOnlyOnRange) {
  EXPECT_EQ(Executor::resolve_chunk(100, 7), 7u);  // explicit chunk wins
  EXPECT_GE(Executor::resolve_chunk(0, 0), 1u);
  EXPECT_GE(Executor::resolve_chunk(1, 0), 1u);
  // Default chunking is a pure function of the range size.
  EXPECT_EQ(Executor::resolve_chunk(1000, 0), Executor::resolve_chunk(1000, 0));
}

TEST(SimExecutor, MapIsBitIdenticalAcrossThreadCounts) {
  auto compute = [](std::size_t threads) {
    Executor executor(threads);
    return executor.parallel_map<std::uint64_t>(
        500, [](std::size_t i) { return substream_rng(0x1257, i).next_u64(); });
  };
  const auto serial = compute(1);
  EXPECT_EQ(serial, compute(2));
  EXPECT_EQ(serial, compute(8));
}

TEST(SimExecutor, ExceptionsPropagateAndPoolSurvives) {
  Executor executor(4);
  EXPECT_THROW(
      executor.parallel_for(0, 100,
                            [](std::size_t i) {
                              if (i == 37) throw std::runtime_error("boom");
                            }),
      std::runtime_error);
  // The pool is still usable after a failed region.
  std::atomic<int> ok{0};
  executor.parallel_for(0, 10, [&](std::size_t) { ++ok; });
  EXPECT_EQ(ok.load(), 10);
}

TEST(SimExecutor, NestedParallelismCompletes) {
  Executor executor(4);
  std::atomic<int> total{0};
  executor.parallel_for(0, 8, [&](std::size_t) {
    executor.parallel_for(0, 8, [&](std::size_t) { ++total; }, 1);
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(SimExecutor, PostRunsTasksAsynchronously) {
  // The last task still touches mu and cv after the waiter can see
  // ran == 64, so they are declared first: the executor's destructor
  // joins its workers before they are destroyed.
  std::atomic<int> ran{0};
  std::mutex mu;
  std::condition_variable cv;
  Executor executor(4);
  for (int i = 0; i < 64; ++i) {
    executor.post([&] {
      if (ran.fetch_add(1) + 1 == 64) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return ran.load() == 64; });
  EXPECT_EQ(ran.load(), 64);
  EXPECT_EQ(executor.queued_tasks(), 0u);
}

TEST(SimExecutor, PostOnSerialExecutorRunsInline) {
  Executor executor(1);  // no worker threads
  int ran = 0;
  executor.post([&] { ++ran; });
  EXPECT_EQ(ran, 1);  // executed synchronously, not queued
  EXPECT_EQ(executor.queued_tasks(), 0u);
}

TEST(SimExecutor, PostedTasksCoexistWithParallelRegions) {
  Executor executor(4);
  std::atomic<int> posted{0};
  std::atomic<int> region{0};
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 16; ++i) executor.post([&] { ++posted; });
    executor.parallel_for(0, 100, [&](std::size_t) { ++region; });
  }
  // parallel_for is a barrier for region work but not for posted tasks;
  // drain by destroying a scoped pool instead.
  while (posted.load() < 8 * 16) std::this_thread::yield();
  EXPECT_EQ(region.load(), 800);
  EXPECT_EQ(posted.load(), 128);
}

TEST(SimExecutor, DestructionDrainsPostedTasks) {
  std::atomic<int> ran{0};
  {
    Executor executor(3);
    for (int i = 0; i < 200; ++i) executor.post([&] { ++ran; });
  }
  // ~Executor must not drop queued tasks on the floor.
  EXPECT_EQ(ran.load(), 200);
}

TEST(SimExecutor, DefaultExecutorWorks) {
  const auto squares =
      default_executor().parallel_map<std::size_t>(32, [](std::size_t i) { return i * i; });
  ASSERT_EQ(squares.size(), 32u);
  EXPECT_EQ(squares[7], 49u);
}

}  // namespace
}  // namespace intertubes::sim
