// Small threading utilities shared by the cluster harness, tests and benches.

#ifndef SRC_UTIL_THREADING_H_
#define SRC_UTIL_THREADING_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace tango {

// Names the calling thread for /proc/<pid>/task/<tid>/comm, debuggers and
// profilers (15-char limit on Linux; silently truncated).  Every long-lived
// background thread in the codebase names itself so a thread listing of a
// wedged process reads as a component inventory.
void SetCurrentThreadName(const char* name);

// One-shot event: threads block in WaitForNotification() until Notify().
class Notification {
 public:
  void Notify() {
    // Broadcast under the lock: a waiter may destroy this object the moment
    // it observes notified_, which must not race the broadcast itself.
    std::lock_guard<std::mutex> lock(mu_);
    notified_ = true;
    cv_.notify_all();
  }

  bool HasBeenNotified() const {
    std::lock_guard<std::mutex> lock(mu_);
    return notified_;
  }

  void WaitForNotification() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return notified_; });
  }

  template <typename Rep, typename Period>
  bool WaitForNotificationWithTimeout(
      std::chrono::duration<Rep, Period> timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [this] { return notified_; });
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool notified_ = false;
};

// Reusable barrier for starting N workers simultaneously.
class StartBarrier {
 public:
  explicit StartBarrier(int parties) : remaining_(parties) {}

  void ArriveAndWait() {
    std::unique_lock<std::mutex> lock(mu_);
    if (--remaining_ == 0) {
      cv_.notify_all();
      return;
    }
    cv_.wait(lock, [this] { return remaining_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int remaining_;
};

// A fixed-size worker-pool executor, the concurrency substrate shared by the
// log client's vectored chain reads, the runtime's parallel playback engine,
// and (eventually) the event-driven transport.  Tasks are independent: a
// submitted task must never block on another *queued* task, or the pool can
// stall — ordering between tasks belongs to a scheduler layered on top (see
// src/runtime/playback.h).  The destructor drains the queue (every submitted
// task runs) before joining the workers.
class Executor {
 public:
  explicit Executor(int num_threads);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  void Submit(std::function<void()> task);
  int size() const { return static_cast<int>(threads_.size()); }

  // Process-wide pool shared by all log clients; sized to the machine.
  static Executor& Shared();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

// Legacy name, kept for the call sites that predate the executor refactor.
using ThreadPool = Executor;

// Tracks completion of tasks fanned out to an executor: Launch() submits the
// task and Wait() blocks until every launched task has finished.  The group
// must outlive its tasks — the destructor waits for stragglers.
class TaskGroup {
 public:
  explicit TaskGroup(Executor* executor) : executor_(executor) {}
  ~TaskGroup() { Wait(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void Launch(std::function<void()> fn);
  void Wait();

 private:
  Executor* executor_;
  std::mutex mu_;
  std::condition_variable cv_;
  size_t outstanding_ = 0;
};

// Runs `fn(0..n-1)` with tasks 0..n-2 on the pool and task n-1 inline on the
// caller; returns when all n complete.  Safe to call from many threads at
// once — tasks from concurrent callers interleave on the shared workers.
void ParallelDispatch(Executor& pool, size_t n,
                      const std::function<void(size_t)>& fn);

// Runs `fn(worker_index)` on `n` threads and joins them all.
void RunParallel(int n, const std::function<void(int)>& fn);

// Runs `fn(worker_index, stop_flag)` on `n` threads for `duration`, then sets
// the stop flag and joins.  Used by the open-loop bench drivers.
void RunParallelFor(int n, std::chrono::milliseconds duration,
                    const std::function<void(int, std::atomic<bool>*)>& fn);

// Monotonic clock helpers.
inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline uint64_t NowMicros() { return NowNanos() / 1000; }

}  // namespace tango

#endif  // SRC_UTIL_THREADING_H_
