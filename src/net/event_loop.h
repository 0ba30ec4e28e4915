// EventLoop: a single-threaded epoll reactor.
//
// One thread owns an epoll instance and every file descriptor registered
// with it.  All fd operations (Add/Update/Remove) and all fd callbacks run
// on that thread, so per-fd state needs no locks; other threads communicate
// with the loop exclusively through Post(), which enqueues a closure and
// wakes the loop via an eventfd.
//
// This is the I/O substrate of the TcpTransport server side (every listener
// and accepted connection of a transport shares one loop; callers do their
// own blocking I/O) and of the raw-socket client fleets in
// bench/fig_transport.  The loop
// must never block: callbacks do nonblocking I/O, and an RPC handler that
// has to wait (for an fsync, say) defers its reply and completes it from
// another thread, which posts it back here.
//
// Level-triggered semantics: a callback receives the epoll event mask and is
// re-invoked while the condition holds, so partial reads/writes are safe.

#ifndef SRC_NET_EVENT_LOOP_H_
#define SRC_NET_EVENT_LOOP_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

namespace tango {

class EventLoop {
 public:
  // Invoked on the loop thread with the ready epoll event mask
  // (EPOLLIN/EPOLLOUT/EPOLLHUP/EPOLLERR...).
  using FdHandler = std::function<void(uint32_t events)>;

  EventLoop();
  ~EventLoop();  // Stop() + join; pending posted tasks are discarded

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Enqueues `fn` to run on the loop thread and wakes it.  Thread-safe.
  // Returns false (dropping `fn`) if the loop has been stopped.
  bool Post(std::function<void()> fn);

  // Runs `fn` on the loop thread and blocks until it completes.  Returns
  // false if the loop is stopped (fn did not run).  Must not be called from
  // the loop thread (Post or call directly instead).
  bool PostAndWait(std::function<void()> fn);

  // True when the calling thread is the loop thread.
  bool InLoop() const {
    return std::this_thread::get_id() ==
           loop_tid_.load(std::memory_order_relaxed);
  }

  // fd registration.  Loop-thread only (Post from outside).  `events` is the
  // initial epoll interest mask; the handler must outlive the registration.
  void Add(int fd, uint32_t events, FdHandler handler);
  void Update(int fd, uint32_t events);  // replaces the interest mask
  void Remove(int fd);  // deregisters; the caller still owns (and closes) fd

  // Stops the loop (idempotent, thread-safe).  After Stop, Post returns
  // false.  The destructor joins the thread.
  void Stop();

  // Registered fd count, for tests/introspection.  Loop-thread only.
  size_t fd_count() const { return fds_.size(); }

 private:
  struct FdState {
    int fd = -1;
    uint32_t events = 0;
    FdHandler handler;
    bool dead = false;  // removed mid-batch; skip any already-reaped events
  };

  void Run();
  void Wake();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::atomic<std::thread::id> loop_tid_{};

  std::mutex tasks_mu_;
  std::deque<std::function<void()>> tasks_;
  bool wake_pending_ = false;  // a wake byte is already in flight
  bool finished_ = false;      // final drain done; Post rejects from now on

  // Loop-thread state.
  std::unordered_map<int, std::shared_ptr<FdState>> fds_;
  // States removed during the current dispatch batch, kept alive until the
  // batch ends (epoll may have returned further events pointing at them).
  std::vector<std::shared_ptr<FdState>> dying_;

  std::thread thread_;
};

}  // namespace tango

#endif  // SRC_NET_EVENT_LOOP_H_
