#pragma once

/// \file thread_pool.hpp
/// A fixed-size thread pool for the flow's coarse parallel work: the
/// region shards of Stage 2 and the MCF backend's oracle blocks.
///
/// Deliberately work-stealing-free: tasks are pulled from one shared
/// FIFO queue under a mutex.  The units of work (a region's reroutes, a
/// block of oracle routes) are large enough that queue contention is
/// noise, and a single queue keeps the scheduling model simple enough to
/// reason about when proving determinism.
///
/// Two entry points:
///   submit(fn)                 -> std::future (exceptions propagate
///                                 through the future)
///   parallel_for(begin, end, f)-> blocks until f(i) ran for every i in
///                                 [begin, end); the calling thread
///                                 participates, and the first exception
///                                 thrown by any f(i) is rethrown here.
///
/// Determinism contract: the pool never reorders results — callers index
/// into pre-sized output vectors by i, so which worker runs which index
/// is irrelevant.  Any cross-net commit ordering is the caller's job
/// (see core::Rabid's sharded Stage 2, which replays boundary nets in
/// net-id order after the parallel region phase).

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/assert.hpp"

namespace rabid::util {

/// Maps a user-facing thread-count option to an actual pool size:
/// n >= 1 is taken literally; 0 means one thread per hardware thread
/// (never less than 1, even when hardware_concurrency() is unknown).
std::size_t resolve_thread_count(std::int32_t requested);

class ThreadPool {
 public:
  /// Starts `threads` workers (>= 1).
  explicit ThreadPool(std::size_t threads);

  /// Drains the queue, then joins every worker.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues `fn` for execution on some worker.  The returned future
  /// yields fn's result; if fn throws, future.get() rethrows.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    enqueue([task] { (*task)(); });
    return future;
  }

  /// Runs fn(i) for every i in [begin, end) across the workers and the
  /// calling thread; returns once all indices completed.  Empty when
  /// begin >= end.  If any fn(i) throws, the first exception (in
  /// completion order) is rethrown here and not-yet-started indices are
  /// abandoned; indices already running finish first.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

 private:
  void enqueue(std::function<void()> task);
  void worker_loop(std::size_t index);

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace rabid::util
