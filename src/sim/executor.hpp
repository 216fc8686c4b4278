// Deterministic parallel execution for Monte-Carlo campaigns.
//
// A small chunked thread pool whose results are bit-identical for any
// thread count.  The contract that makes this possible:
//
//   * work is identified by index, never by thread — every item i gets the
//     same inputs (e.g. an RNG substream derived from seed + i) no matter
//     which thread runs it;
//   * chunk boundaries depend only on the range size and the requested
//     chunk, never on the thread count;
//   * results are *ordered*: parallel_map writes result i to slot i, so a
//     caller that folds the slots in index order fixes the floating-point
//     accumulation order.
//
// Scheduling is dynamic (threads claim the next chunk from a shared atomic
// cursor — cheap work stealing), which is safe precisely because nothing
// about a result depends on who computed it.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace intertubes::sim {

class Executor {
 public:
  /// num_threads = 0 picks the hardware concurrency (min 1).  The calling
  /// thread participates in every parallel region, so Executor(1) spawns
  /// no workers and runs everything inline (the serial baseline).
  explicit Executor(std::size_t num_threads = 0);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Total threads that execute work (spawned workers + the caller).
  std::size_t num_threads() const noexcept { return workers_.size() + 1; }

  /// The chunk actually used for a range of `items`: `chunk` if non-zero,
  /// otherwise a default that depends only on `items`, never on the
  /// thread count.
  static std::size_t resolve_chunk(std::size_t items, std::size_t chunk) noexcept;

  /// Submit one asynchronous task to the pool and return immediately.
  /// Tasks are independent of the chunked parallel regions: workers
  /// interleave them with published jobs, and queued tasks are drained
  /// before the destructor joins.  On a serial executor (no workers) the
  /// task runs inline in the calling thread — post() then blocks until it
  /// completes, preserving the "Executor(1) is the serial baseline"
  /// contract.  Tasks must not let exceptions escape (a throwing task
  /// terminates the worker thread's process) — catch and report through
  /// the task's own channel, as serve/engine does via response futures.
  void post(std::function<void()> task);

  /// Tasks posted but not yet picked up by a worker (serial executors
  /// always report 0).  Advisory — the count can change concurrently.
  std::size_t queued_tasks() const;

  /// Invoke body(chunk_begin, chunk_end) over [begin, end) partitioned
  /// into chunks.  Blocks until every chunk completed.  The first
  /// exception thrown by any chunk is rethrown here (remaining chunks may
  /// be skipped once a chunk has failed).  Nested calls are legal and run
  /// on the shared pool.
  void for_each_chunk(std::size_t begin, std::size_t end, std::size_t chunk,
                      const std::function<void(std::size_t, std::size_t)>& body);

  /// fn(i) for every i in [begin, end).
  template <typename Fn>
  void parallel_for(std::size_t begin, std::size_t end, Fn&& fn, std::size_t chunk = 0) {
    for_each_chunk(begin, end, chunk, [&fn](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) fn(i);
    });
  }

  /// out[i] = fn(i) for i in [0, items).  Identical output for any thread
  /// count as long as fn(i) is a pure function of i.
  template <typename T, typename Fn>
  std::vector<T> parallel_map(std::size_t items, Fn&& fn, std::size_t chunk = 0) {
    std::vector<T> out(items);
    for_each_chunk(0, items, chunk, [&out, &fn](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) out[i] = fn(i);
    });
    return out;
  }

 private:
  struct Job;

  void worker_loop();
  static void run_job(Job& job);

  std::vector<std::thread> workers_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::shared_ptr<Job> job_;       // latest published job (kept alive for laggards)
  std::uint64_t generation_ = 0;   // bumped per published job
  std::deque<std::function<void()>> tasks_;  // post()ed, drained before shutdown
  bool stop_ = false;
};

/// Process-wide executor sized to the hardware.  Library hot paths
/// (CampaignEngine::run etc.) run on it; create a private Executor to fix
/// a specific thread count.
Executor& default_executor();

}  // namespace intertubes::sim
