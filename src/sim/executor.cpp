#include "sim/executor.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

namespace intertubes::sim {

/// One parallel region.  Threads claim chunks via fetch_add on `next`;
/// the last finished chunk flips `done` under `done_mu`.
struct Executor::Job {
  std::size_t end = 0;
  std::size_t chunk = 1;
  const std::function<void(std::size_t, std::size_t)>* body = nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> remaining{0};  // chunks not yet finished
  std::atomic<bool> failed{false};
  std::exception_ptr error;  // guarded by done_mu
  std::mutex done_mu;
  std::condition_variable done_cv;
  bool done = false;
};

Executor::Executor(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 1;
  }
  workers_.reserve(num_threads - 1);
  for (std::size_t t = 0; t + 1 < num_threads; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void Executor::post(std::function<void()> task) {
  if (workers_.empty()) {
    // Serial baseline: no worker will ever drain a queue, so run inline.
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
  }
  cv_.notify_one();
}

std::size_t Executor::queued_tasks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tasks_.size();
}

std::size_t Executor::resolve_chunk(std::size_t items, std::size_t chunk) noexcept {
  if (chunk > 0) return chunk;
  // Default: ~64 chunks regardless of thread count (a function of the
  // range only, so reduce partials are thread-count independent).
  return std::max<std::size_t>(1, (items + 63) / 64);
}

void Executor::run_job(Job& job) {
  for (;;) {
    const std::size_t b = job.next.fetch_add(job.chunk, std::memory_order_relaxed);
    if (b >= job.end) return;
    const std::size_t e = std::min(job.end, b + job.chunk);
    if (!job.failed.load(std::memory_order_relaxed)) {
      try {
        (*job.body)(b, e);
      } catch (...) {
        std::lock_guard<std::mutex> lock(job.done_mu);
        if (!job.failed.exchange(true)) job.error = std::current_exception();
      }
    }
    if (job.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(job.done_mu);
      job.done = true;
      job.done_cv.notify_all();
    }
  }
}

void Executor::for_each_chunk(std::size_t begin, std::size_t end, std::size_t chunk,
                              const std::function<void(std::size_t, std::size_t)>& body) {
  if (end <= begin) return;
  chunk = resolve_chunk(end - begin, chunk);
  const std::size_t num_chunks = (end - begin + chunk - 1) / chunk;
  if (workers_.empty() || num_chunks == 1) {
    for (std::size_t b = begin; b < end; b += chunk) body(b, std::min(end, b + chunk));
    return;
  }

  auto job = std::make_shared<Job>();
  job->end = end;
  job->chunk = chunk;
  job->body = &body;
  job->next.store(begin, std::memory_order_relaxed);
  job->remaining.store(num_chunks, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = job;
    ++generation_;
  }
  cv_.notify_all();

  run_job(*job);  // the calling thread works too
  {
    std::unique_lock<std::mutex> lock(job->done_mu);
    job->done_cv.wait(lock, [&] { return job->done; });
    if (job->error) std::rethrow_exception(job->error);
  }
}

void Executor::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    std::shared_ptr<Job> job;
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || generation_ != seen || !tasks_.empty(); });
      if (!tasks_.empty()) {
        // Tasks drain even during shutdown so post()ed work never vanishes.
        task = std::move(tasks_.front());
        tasks_.pop_front();
      } else if (stop_) {
        return;
      } else {
        seen = generation_;
        job = job_;
      }
    }
    if (task) {
      task();  // exceptions must be handled by the task itself (see post())
      continue;
    }
    // A laggard may pick up an already-drained job; run_job exits at once.
    run_job(*job);
  }
}

Executor& default_executor() {
  static Executor executor;
  return executor;
}

}  // namespace intertubes::sim
