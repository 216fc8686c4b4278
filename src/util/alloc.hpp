// Fixed-capacity allocation machinery for the serve/route hot paths, plus
// the instrumentation that *proves* those paths allocation-free.
//
// The serving fast path (DESIGN.md §14) promises zero heap allocations per
// steady-state query.  Two pieces make that promise cheap to keep and
// impossible to break silently:
//
//   * LeasePool<T> — a thread-safe, *capped* pool of reusable scratch
//     objects handed out as RAII leases.  Unlike a grow-only pool, a
//     lease released into a full pool is destroyed instead of retained,
//     so a burst of N concurrent callers can never pin N workspaces
//     forever (the route::PathEngine bug this layer fixes).
//
//   * Thread-local allocation counters + ZeroAllocGuard — a counting
//     layer fed by optional global operator new/delete replacements
//     (util/alloc_hooks.cpp, linked only into test and bench binaries).
//     ZeroAllocGuard snapshots this thread's counter; tests assert the
//     delta across a steady-state query is exactly zero, turning the
//     zero-alloc invariant into a machine-checked regression gate
//     (`ctest -L alloc`, allocs_per_query in the bench dumps).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace intertubes::util {

// --- Allocation counting ----------------------------------------------

/// Totals for the calling thread since it started.  `allocs`/`frees`
/// count operator new/delete calls; `bytes` sums requested sizes.
struct AllocCounts {
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t bytes = 0;
};

/// This thread's counters.  All zeros (and never moving) unless the
/// counting hooks TU is linked into the binary.
AllocCounts thread_alloc_counts() noexcept;

/// True when util/alloc_hooks.cpp is linked in and counters actually
/// advance.  Tests that assert on deltas must skip when this is false.
bool alloc_counting_active() noexcept;

namespace detail {
void note_alloc(std::size_t bytes) noexcept;  ///< called by the new hook
void note_free() noexcept;                    ///< called by the delete hook
void set_alloc_counting_active() noexcept;    ///< called once by the hooks TU
}  // namespace detail

/// RAII window over this thread's allocation counters: construct at the
/// start of the region under test, then assert allocations() == 0 after
/// the steady-state work.  Construction/destruction never allocates.
class ZeroAllocGuard {
 public:
  ZeroAllocGuard() noexcept : start_(thread_alloc_counts()) {}

  /// operator new calls on this thread since construction.
  std::uint64_t allocations() const noexcept {
    return thread_alloc_counts().allocs - start_.allocs;
  }
  /// operator delete calls on this thread since construction.
  std::uint64_t frees() const noexcept { return thread_alloc_counts().frees - start_.frees; }
  /// Bytes requested on this thread since construction.
  std::uint64_t bytes() const noexcept { return thread_alloc_counts().bytes - start_.bytes; }

 private:
  AllocCounts start_;
};

// --- LeasePool --------------------------------------------------------

/// Thread-safe pool of reusable scratch objects with a hard retention
/// cap.  acquire() pops an idle object (or default-constructs one when
/// the pool is empty — the only allocation, paid once per steady-state
/// concurrency level); the returned Lease releases it back on
/// destruction.  A release into a pool already holding `cap` idle
/// objects destroys the object instead, so peak-burst concurrency never
/// pins memory forever (the unbounded-growth bug this replaces).
template <typename T>
class LeasePool {
 public:
  explicit LeasePool(std::size_t cap = kDefaultCap) : cap_(cap) { IT_CHECK(cap > 0); }

  LeasePool(const LeasePool&) = delete;
  LeasePool& operator=(const LeasePool&) = delete;

  /// RAII handle; movable, returns the object to the pool on destruction.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept
        : pool_(std::exchange(other.pool_, nullptr)), object_(std::move(other.object_)) {}
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        reset();
        pool_ = std::exchange(other.pool_, nullptr);
        object_ = std::move(other.object_);
      }
      return *this;
    }
    ~Lease() { reset(); }

    T& operator*() const noexcept { return *object_; }
    T* operator->() const noexcept { return object_.get(); }
    explicit operator bool() const noexcept { return object_ != nullptr; }

   private:
    friend class LeasePool;
    Lease(const LeasePool* pool, std::unique_ptr<T> object)
        : pool_(pool), object_(std::move(object)) {}
    void reset() {
      if (pool_ != nullptr && object_ != nullptr) pool_->release(std::move(object_));
      pool_ = nullptr;
      object_ = nullptr;
    }

    const LeasePool* pool_ = nullptr;
    std::unique_ptr<T> object_;
  };

  /// Lease an object.  Allocation-free when an idle object is pooled.
  Lease acquire() const {
    std::unique_ptr<T> object;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!idle_.empty()) {
        object = std::move(idle_.back());
        idle_.pop_back();
      }
    }
    if (object == nullptr) {
      object = std::make_unique<T>();
      created_.fetch_add(1, std::memory_order_relaxed);
    }
    return Lease(this, std::move(object));
  }

  std::size_t cap() const noexcept { return cap_; }
  /// Idle objects currently retained; never exceeds cap().
  std::size_t idle() const {
    std::lock_guard<std::mutex> lock(mu_);
    return idle_.size();
  }
  /// Objects ever constructed (idle + in flight + since-dropped).
  std::size_t created() const noexcept { return created_.load(std::memory_order_relaxed); }
  /// Releases that found the pool full and destroyed their object.
  std::size_t dropped() const noexcept { return dropped_.load(std::memory_order_relaxed); }

  static constexpr std::size_t kDefaultCap = 32;

 private:
  void release(std::unique_ptr<T> object) const {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (idle_.size() < cap_) {
        idle_.push_back(std::move(object));
        return;
      }
    }
    dropped_.fetch_add(1, std::memory_order_relaxed);
    // object destroyed here, outside the lock
  }

  std::size_t cap_;
  mutable std::mutex mu_;
  mutable std::vector<std::unique_ptr<T>> idle_;
  mutable std::atomic<std::size_t> created_{0};
  mutable std::atomic<std::size_t> dropped_{0};
};

}  // namespace intertubes::util
