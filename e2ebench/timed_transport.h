// TimedTransport: a tango::Transport decorator that times every Call by
// method and counts its request and response bytes.
//
// Each recorded call also gets a fresh "call key": while the inner Call runs,
// the calling thread's trace context is re-parented under that key, so the
// span the inner transport opens for the round trip (and, over TCP, the
// daemon's handler span beneath it) can be joined back to this exact call
// from the exported traces.  Calls made with no active trace context are
// recorded with trace id and key 0.

#ifndef E2EBENCH_TIMED_TRANSPORT_H_
#define E2EBENCH_TIMED_TRANSPORT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/net/transport.h"
#include "src/obs/trace.h"

namespace e2ebench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct CallRec {
  uint16_t method = 0;
  bool ok = false;
  uint64_t trace_id = 0;
  uint64_t key = 0;
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  uint32_t req_bytes = 0;
  uint32_t resp_bytes = 0;
};

class TimedTransport : public tango::Transport {
 public:
  explicit TimedTransport(tango::Transport* inner)
      : inner_(inner), generation_(NextGeneration()) {}

  TimedTransport(const TimedTransport&) = delete;
  TimedTransport& operator=(const TimedTransport&) = delete;

  tango::Status Call(tango::NodeId dest, uint16_t method,
                     std::span<const uint8_t> request,
                     std::vector<uint8_t>* response) override {
    CallRec rec;
    rec.method = method;
    rec.req_bytes = static_cast<uint32_t>(request.size());
    tango::obs::TraceContext ctx = tango::obs::CurrentTrace();
    if (ctx.active()) {
      rec.trace_id = ctx.trace_id;
      rec.key = tango::obs::Tracer::Default().NewSpanId();
      tango::obs::SetCurrentTrace({ctx.trace_id, rec.key});
    }
    rec.start_ns = NowNs();
    tango::Status st = inner_->Call(dest, method, request, response);
    rec.dur_ns = NowNs() - rec.start_ns;
    if (ctx.active()) {
      tango::obs::SetCurrentTrace(ctx);
    }
    rec.ok = st.ok();
    if (st.ok() && response != nullptr) {
      rec.resp_bytes = static_cast<uint32_t>(response->size());
    }
    Buffer& buf = Local();
    std::lock_guard<std::mutex> lock(buf.mu);
    buf.calls.push_back(rec);
    return st;
  }

  void RegisterNode(tango::NodeId node, tango::RpcHandler handler) override {
    inner_->RegisterNode(node, std::move(handler));
  }
  void UnregisterNode(tango::NodeId node) override {
    inner_->UnregisterNode(node);
  }

  // Every call recorded so far, from all threads.
  std::vector<CallRec> Calls() const {
    std::vector<CallRec> out;
    std::lock_guard<std::mutex> lock(buffers_mu_);
    for (const auto& buf : buffers_) {
      std::lock_guard<std::mutex> buf_lock(buf->mu);
      out.insert(out.end(), buf->calls.begin(), buf->calls.end());
    }
    return out;
  }

  // Drops the calls recorded so far (e.g. those of set-up and warm-up).
  void Clear() {
    std::lock_guard<std::mutex> lock(buffers_mu_);
    for (const auto& buf : buffers_) {
      std::lock_guard<std::mutex> buf_lock(buf->mu);
      buf->calls.clear();
    }
  }

 private:
  // One buffer per recording thread; its mutex is only contended while the
  // collector reads.
  struct Buffer {
    std::mutex mu;
    std::vector<CallRec> calls;
  };

  static uint64_t NextGeneration() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }

  // The calling thread's buffer in this decorator.  Keyed by a generation
  // number rather than `this`, so a later decorator at a reused address never
  // sees a stale buffer.
  Buffer& Local() {
    thread_local uint64_t owner = 0;
    thread_local Buffer* buf = nullptr;
    if (owner != generation_) {
      std::lock_guard<std::mutex> lock(buffers_mu_);
      buffers_.push_back(std::make_unique<Buffer>());
      buf = buffers_.back().get();
      owner = generation_;
    }
    return *buf;
  }

  tango::Transport* inner_;
  const uint64_t generation_;
  mutable std::mutex buffers_mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_TIMED_TRANSPORT_H_
