#include "src/util/threading.h"

#include <pthread.h>

#include <algorithm>

#include "src/obs/metrics.h"

namespace tango {

void SetCurrentThreadName(const char* name) {
#if defined(__linux__)
  pthread_setname_np(pthread_self(), name);
#else
  (void)name;
#endif
}

namespace {

// Aggregate occupancy gauges across every Executor in the process (the
// shared pool plus any private ones): tasks waiting in queues and tasks
// currently running.  A queue depth that stays above zero means the pools
// are saturated — overload is visible here before completion latency blows
// up.  Updated with +/- deltas so concurrent executors compose.
struct ExecutorGauges {
  obs::Gauge* queue_depth;
  obs::Gauge* active;
};

ExecutorGauges& TheExecutorGauges() {
  static ExecutorGauges g = [] {
    auto& reg = obs::MetricsRegistry::Default();
    return ExecutorGauges{reg.GetGauge("util.executor.queue_depth"),
                          reg.GetGauge("util.executor.active")};
  }();
  return g;
}

}  // namespace

Executor::Executor(int num_threads) {
  threads_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
}

void Executor::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  TheExecutorGauges().queue_depth->Add(1);
  cv_.notify_one();
}

void Executor::WorkerLoop() {
  SetCurrentThreadName("tgo-exec");
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stop_ set and queue drained
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    ExecutorGauges& gauges = TheExecutorGauges();
    gauges.queue_depth->Add(-1);
    gauges.active->Add(1);
    task();
    gauges.active->Add(-1);
  }
}

Executor& Executor::Shared() {
  static Executor pool(std::max(4u, std::thread::hardware_concurrency()));
  return pool;
}

void TaskGroup::Launch(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++outstanding_;
  }
  executor_->Submit([this, fn = std::move(fn)] {
    fn();
    std::lock_guard<std::mutex> lock(mu_);
    if (--outstanding_ == 0) {
      cv_.notify_all();
    }
  });
}

void TaskGroup::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return outstanding_ == 0; });
}

void ParallelDispatch(Executor& pool, size_t n,
                      const std::function<void(size_t)>& fn) {
  if (n == 0) {
    return;
  }
  if (n == 1) {
    fn(0);
    return;
  }
  std::mutex mu;
  std::condition_variable cv;
  size_t remaining = n - 1;
  for (size_t i = 0; i + 1 < n; ++i) {
    pool.Submit([&, i] {
      fn(i);
      std::lock_guard<std::mutex> lock(mu);
      if (--remaining == 0) {
        cv.notify_one();
      }
    });
  }
  fn(n - 1);
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return remaining == 0; });
}

void RunParallel(int n, const std::function<void(int)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([&fn, i] { fn(i); });
  }
  for (std::thread& t : threads) {
    t.join();
  }
}

void RunParallelFor(int n, std::chrono::milliseconds duration,
                    const std::function<void(int, std::atomic<bool>*)>& fn) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([&fn, &stop, i] { fn(i, &stop); });
  }
  std::this_thread::sleep_for(duration);
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) {
    t.join();
  }
}

}  // namespace tango
