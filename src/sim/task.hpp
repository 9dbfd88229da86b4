#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <exception>
#include <optional>
#include <utility>

#include "util/pool.hpp"

namespace vmic::sim {

/// Lazy coroutine task, the unit of concurrency in the simulator and the
/// block layer. Mirrors the structure of QEMU's block-driver coroutines:
/// every driver entry point (read/write/flush/...) is a Task and either
/// completes synchronously (host file/memory backends) or suspends on
/// simulated time (simulated disks, NFS, networks).
///
/// Semantics:
///  * lazy start — the body runs only when the task is awaited (or spawned
///    onto a SimEnv / driven by sync_wait);
///  * bounded stack — awaiting runs the child from await_suspend; a child
///    that finishes without suspending hands control back there, and the
///    awaiter carries on in its own frame. Only a child that really
///    suspended resumes its awaiter, by symmetric transfer. A loop of
///    synchronously completing awaits therefore nests no frames even where
///    the compiler does not make symmetric transfer a tail call (GCC
///    under ASan or at -O0);
///  * single consumer — a Task may be awaited at most once.
template <typename T>
class [[nodiscard]] Task;

namespace detail {

template <typename T>
struct TaskPromiseBase {
  // Coroutine frames come from the size-classed frame pool: simulations
  // churn millions of short-lived tasks and the global heap was a
  // measurable fraction of event cost.
  static void* operator new(std::size_t n) {
    return util::FramePool::allocate(n);
  }
  static void operator delete(void* p, std::size_t n) noexcept {
    util::FramePool::deallocate(p, n);
  }

  /// Whom completion resumes: the awaiter once the task has suspended;
  /// until then a no-op, so a task that finishes inline returns to
  /// whoever resumed it (Task::await_suspend, spawn, sync_wait).
  std::coroutine_handle<> continuation = std::noop_coroutine();
  std::exception_ptr exception;

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      return h.promise().continuation;
    }
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() noexcept { exception = std::current_exception(); }
};

}  // namespace detail

template <typename T>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::TaskPromiseBase<T> {
    std::optional<T> value;
    Task get_return_object() noexcept {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_value(T v) { value.emplace(std::move(v)); }
  };

  using Handle = std::coroutine_handle<promise_type>;

  Task(Task&& other) noexcept : h_(std::exchange(other.h_, {})) {}
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      if (h_) h_.destroy();
      h_ = std::exchange(other.h_, {});
    }
    return *this;
  }
  ~Task() {
    if (h_) h_.destroy();
  }

  // --- awaiter interface -------------------------------------------------
  bool await_ready() const noexcept { return false; }
  /// Runs the child here. False (carry on without suspending) when it
  /// finished inline; otherwise it resumes `awaiter` when it completes.
  bool await_suspend(std::coroutine_handle<> awaiter) noexcept {
    h_.resume();
    if (h_.done()) return false;
    h_.promise().continuation = awaiter;
    return true;
  }
  T await_resume() {
    auto& p = h_.promise();
    if (p.exception) std::rethrow_exception(p.exception);
    assert(p.value.has_value() && "task finished without a value");
    return std::move(*p.value);
  }

  /// Internal: release the handle (spawn/sync_wait plumbing).
  Handle release() noexcept { return std::exchange(h_, {}); }

 private:
  explicit Task(Handle h) noexcept : h_(h) {}
  Handle h_;
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::TaskPromiseBase<void> {
    Task get_return_object() noexcept {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() noexcept {}
  };

  using Handle = std::coroutine_handle<promise_type>;

  Task(Task&& other) noexcept : h_(std::exchange(other.h_, {})) {}
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      if (h_) h_.destroy();
      h_ = std::exchange(other.h_, {});
    }
    return *this;
  }
  ~Task() {
    if (h_) h_.destroy();
  }

  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> awaiter) noexcept {
    h_.resume();
    if (h_.done()) return false;
    h_.promise().continuation = awaiter;
    return true;
  }
  void await_resume() {
    auto& p = h_.promise();
    if (p.exception) std::rethrow_exception(p.exception);
  }

  Handle release() noexcept { return std::exchange(h_, {}); }

 private:
  explicit Task(Handle h) noexcept : h_(h) {}
  Handle h_;
};

/// Run a task that is expected to complete without suspending on simulated
/// time (host-side paths: FileBackend/MemBackend under qcow2). Aborts if
/// the task suspends — that would mean host code touched a simulated
/// resource.
template <typename T>
T sync_wait(Task<T> task) {
  auto h = task.release();
  h.promise().continuation = std::noop_coroutine();
  h.resume();
  if (!h.done()) {
    assert(false && "sync_wait: task suspended on simulated time");
    std::terminate();
  }
  auto& p = h.promise();
  if (p.exception) {
    auto e = p.exception;
    h.destroy();
    std::rethrow_exception(e);
  }
  if constexpr (std::is_void_v<T>) {
    h.destroy();
  } else {
    T out = std::move(*p.value);
    h.destroy();
    return out;
  }
}

}  // namespace vmic::sim
