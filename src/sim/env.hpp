#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "sim/task.hpp"
#include "sim/time.hpp"
#include "util/pool.hpp"

namespace vmic::sim {

/// Single-threaded discrete-event simulation environment.
///
/// Coroutines suspend on awaitables (Delay, Event, Mutex, resources); the
/// environment resumes them in (time, insertion-sequence) order, which
/// makes every run deterministic for a fixed seed and spawn order.
///
/// The event queue is a calendar queue (Brown 1988): an open-hashed ring
/// of time-sorted buckets whose width/size adapt to the live event
/// population, giving O(1) amortized insert/pop where the old binary
/// heap paid O(log n) sift costs per operation. An occupancy bitmap (one
/// bit per bucket) lets the dequeue scan skip empty buckets a word at a
/// time, so a sparse population costs per occupied bucket, not per
/// bucket of the ring. Timer entries live in a slab pool
/// (util::SlotPool) and TimerIds embed (slot, generation), so cancel()
/// unlinks the entry in place in O(1) and `pending_events()` is exact —
/// there is no tombstone set. The pre-change binary-heap queue
/// is retained as an ablation (`SimEnv(QueueImpl::heap)`) so benches can
/// measure the swap and differential tests can pit the two
/// implementations against each other; both produce the identical event
/// fire order.
class SimEnv {
 public:
  using TimerId = std::uint64_t;

  /// Event-queue implementation selector (ablation switch).
  enum class QueueImpl { calendar, heap };

  /// Default: the calendar queue.
  SimEnv();
  explicit SimEnv(QueueImpl impl);
  SimEnv(const SimEnv&) = delete;
  SimEnv& operator=(const SimEnv&) = delete;

  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedule `h` to resume at absolute time `t` (>= now; an earlier `t`
  /// is clamped to now). Returns an id that can be passed to cancel().
  TimerId schedule_at(SimTime t, std::coroutine_handle<> h);

  /// Schedule a plain callback (used by resources that need to recompute
  /// state at a future instant without a dedicated coroutine).
  TimerId call_at(SimTime t, std::function<void()> fn);

  /// Cancel a pending timer: O(1), the entry is unlinked from its bucket
  /// and its slot recycled immediately. Cancelling an already-fired,
  /// already-cancelled, or unknown id is a no-op (the slot's generation
  /// no longer matches).
  void cancel(TimerId id);

  /// Run until the event queue is empty.
  void run();

  /// Run until the queue is empty or `deadline` is reached (events at
  /// exactly `deadline` are processed). Returns true if the queue drained.
  bool run_until(SimTime deadline);

  /// Process a single event; returns false if the queue is empty.
  bool step();

  /// Live (schedulable) events. Exact under the calendar queue even
  /// after cancellations. Under the legacy heap ablation this keeps the
  /// pre-change contract: a cancel() of an id that is not actually
  /// pending makes it an overcount.
  [[nodiscard]] std::size_t pending_events() const noexcept {
    return impl_ == QueueImpl::calendar ? live_count_
                                        : heap_.size() - cancelled_.size();
  }

  /// Events fired since construction (throughput accounting).
  [[nodiscard]] std::uint64_t events_processed() const noexcept {
    return events_processed_;
  }

  /// Number of spawned, still-running detached tasks.
  [[nodiscard]] std::size_t live_tasks() const noexcept { return live_tasks_; }

  // --- awaitables ----------------------------------------------------------

  struct DelayAwaiter {
    SimEnv& env;
    SimTime delay;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      env.schedule_at(env.now_ + (delay < 0 ? 0 : delay), h);
    }
    void await_resume() const noexcept {}
  };

  /// `co_await env.delay(t)` — resume after `t` simulated nanoseconds.
  /// A zero delay still round-trips through the queue (a deterministic
  /// yield point).
  [[nodiscard]] DelayAwaiter delay(SimTime t) noexcept { return {*this, t}; }

  /// `co_await env.yield()` — let other ready coroutines run first.
  [[nodiscard]] DelayAwaiter yield() noexcept { return {*this, 0}; }

  // --- detached tasks --------------------------------------------------------

  /// Launch a detached task. It starts running at the next event-loop
  /// iteration (scheduled at the current time). The task's result is
  /// discarded; exceptions terminate (simulation code reports failures
  /// through Result<>, not exceptions).
  void spawn(Task<void> task);

 private:
  static constexpr std::uint32_t kNil = util::SlotPool<int>::kNil;
  /// TimerId layout (calendar): low kSlotBits = pool slot, high bits =
  /// slot generation at allocation. 2^28 concurrent timers, 2^36
  /// generations per slot before an id could alias.
  static constexpr std::uint32_t kSlotBits = 28;
  static constexpr TimerId kSlotMask = (TimerId{1} << kSlotBits) - 1;

  /// Pooled timer entry, intrusively linked into its calendar bucket
  /// (doubly, so cancel() unlinks in O(1)). Buckets are kept sorted by
  /// (time, seq); seq is globally monotone, so same-time entries fire in
  /// schedule order.
  struct Entry {
    SimTime time = 0;
    std::uint64_t seq = 0;
    std::uint64_t gen = 0;  ///< bumped on release; ids embed it
    std::coroutine_handle<> handle;   // either handle...
    std::function<void()> fn;         // ...or callback
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
    std::uint32_t bucket = 0;
    bool live = false;
    /// Fire order: by time, then by schedule sequence.
    bool operator<(const Entry& o) const noexcept {
      return time != o.time ? time < o.time : seq < o.seq;
    }
  };

  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  /// Pre-change heap entry (ablation path), byte-for-byte the old queue.
  struct HeapEntry {
    SimTime time;
    std::uint64_t seq;
    TimerId id;
    std::coroutine_handle<> handle;
    std::function<void()> fn;
    bool operator>(const HeapEntry& o) const noexcept {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };

  // Wrapper coroutine that owns a spawned task for its whole lifetime.
  // Lazily started (spawn schedules it), self-destroying on completion.
  // Frames come from the coroutine frame pool.
  struct SpawnedTask {
    struct promise_type {
      static void* operator new(std::size_t n) {
        return util::FramePool::allocate(n);
      }
      static void operator delete(void* p, std::size_t n) noexcept {
        util::FramePool::deallocate(p, n);
      }
      SpawnedTask get_return_object() noexcept {
        return {std::coroutine_handle<promise_type>::from_promise(*this)};
      }
      std::suspend_always initial_suspend() noexcept { return {}; }
      std::suspend_never final_suspend() noexcept { return {}; }
      void return_void() noexcept {}
      void unhandled_exception() noexcept { std::terminate(); }
    };
    std::coroutine_handle<promise_type> handle;
  };
  static SpawnedTask run_spawned(SimEnv* env, Task<void> task);

  // --- calendar queue internals ---------------------------------------------

  [[nodiscard]] std::uint32_t bucket_of(SimTime t) const noexcept {
    return static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(t) / static_cast<std::uint64_t>(width_)) &
        mask_);
  }
  TimerId insert_entry(SimTime t, std::coroutine_handle<> h,
                       std::function<void()> fn);
  void link_sorted(std::uint32_t idx);
  void unlink(std::uint32_t idx);
  void release(std::uint32_t idx);
  /// Point the year scan at the bucket and window holding time `t`.
  void set_cursor(SimTime t) noexcept;
  /// First occupied bucket at or after `b` in ring order (wrapping); the
  /// wheel must hold at least one entry.
  [[nodiscard]] std::uint32_t next_occupied(std::uint32_t b) const noexcept;
  /// Advance the year scan to the next dequeueable entry; kNil if empty.
  std::uint32_t find_min();
  void rebuild(std::uint32_t new_buckets);
  void maybe_resize();
  /// Fire one entry (calendar path): set the clock, recycle the slot,
  /// then resume/invoke.
  void fire(std::uint32_t idx);

  QueueImpl impl_;

  // Calendar queue state.
  util::SlotPool<Entry> pool_;
  std::vector<Bucket> buckets_;
  /// Bit b of word b / 64 is set while bucket b holds an entry.
  std::vector<std::uint64_t> occupied_;
  SimTime width_ = 1024;        ///< bucket time width (ns)
  std::uint64_t mask_ = 0;      ///< nbuckets - 1 (nbuckets power of two)
  std::uint32_t nbuckets_ = 0;
  std::uint32_t cur_ = 0;       ///< year-scan position (bucket index)
  SimTime cur_top_ = 0;         ///< upper time bound of bucket cur_'s window
  std::size_t live_count_ = 0;

  // Heap (ablation) state.
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> heap_;
  std::unordered_set<TimerId> cancelled_;

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  TimerId next_id_ = 1;  ///< heap-mode ids (monotone, like pre-change)
  std::uint64_t events_processed_ = 0;
  std::size_t live_tasks_ = 0;
};

}  // namespace vmic::sim
