#include "src/net/tcp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <cstring>

#include "src/net/event_loop.h"
#include "src/obs/rpc_metrics.h"
#include "src/obs/trace.h"
#include "src/util/logging.h"
#include "src/util/threading.h"

namespace tango {

namespace {

void PutU32Le(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

void PutU64Le(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

uint64_t GetU64Le(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

uint32_t GetU32Le(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

uint16_t GetU16Le(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (static_cast<uint16_t>(p[1]) << 8));
}

constexpr uint32_t kMaxFrame = 64u << 20;  // 64 MiB sanity cap

// u64 corr_id + u16 method + u64 trace_id + u64 parent_span ahead of the
// request payload.
constexpr uint32_t kReqHeaderBytes = 8 + 2 + 8 + 8;

// u64 corr_id + u8 status + u32 retry_after_us ahead of the (possibly empty)
// response payload.  The retry-after field carries the server's backoff hint
// on shed (kBusy) responses; it is zero for every status the server did not
// hint.
constexpr uint32_t kRespHeaderBytes = 8 + 1 + 4;

// Per-event read cap: level-triggered epoll re-fires if more remains, so a
// firehose connection cannot starve its siblings on the loop.
constexpr size_t kReadChunk = 64 * 1024;
constexpr size_t kMaxReadPerEvent = 256 * 1024;

// When a server connection's write queue backs up past the high watermark we
// stop reading new requests from it (natural per-connection backpressure) and
// resume once the queue drains below the low watermark.
constexpr size_t kWriteHighWatermark = 8u << 20;
constexpr size_t kWriteLowWatermark = 1u << 20;

// Queue-depth / occupancy gauges shared across all TcpTransport instances in
// the process: overload shows up here (piled-up connections, in-flight
// handlers, backed-up write queues) before it shows up as latency.
struct TcpGauges {
  obs::Gauge* connections;      // accepted server-side connections alive
  obs::Gauge* server_inflight;  // requests currently inside a handler
  obs::Gauge* client_inflight;  // Call()s currently waiting on a response
  obs::Gauge* write_queue;      // bytes parked in loop-side write queues
};

TcpGauges& TheTcpGauges() {
  static TcpGauges g = [] {
    auto& reg = obs::MetricsRegistry::Default();
    return TcpGauges{reg.GetGauge("net.tcp.connections"),
                     reg.GetGauge("net.tcp.server_inflight"),
                     reg.GetGauge("net.tcp.client_inflight"),
                     reg.GetGauge("net.tcp.write_queue_bytes")};
  }();
  return g;
}

// Flat byte queue with a consumed-prefix offset: appends go at the tail,
// parses and writes consume from the head without memmove.  The buffer
// compacts when the dead prefix dominates.
struct ByteQueue {
  std::vector<uint8_t> data;
  size_t start = 0;

  bool empty() const { return start == data.size(); }
  size_t size() const { return data.size() - start; }
  const uint8_t* ptr() const { return data.data() + start; }

  void Consume(size_t n) {
    start += n;
    if (start == data.size()) {
      data.clear();
      start = 0;
    }
  }

  // The vector to append to in place, compacted first if the dead prefix
  // dominates.
  std::vector<uint8_t>* Tail() {
    if (start > (1u << 20) && start > data.size() - start) {
      data.erase(data.begin(), data.begin() + static_cast<ptrdiff_t>(start));
      start = 0;
    }
    return &data;
  }

  void Append(const uint8_t* p, size_t n) {
    std::vector<uint8_t>* tail = Tail();
    tail->insert(tail->end(), p, p + n);
  }

  void Clear() {
    data.clear();
    start = 0;
  }
};

enum class ReadStatus { kMore, kEof, kError };

// Drains the socket into `buf` until EAGAIN, EOF, error, or the per-event
// fairness cap.
ReadStatus ReadSome(int fd, ByteQueue* buf) {
  uint8_t chunk[kReadChunk];
  size_t total = 0;
  while (total < kMaxReadPerEvent) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n == 0) {
      return ReadStatus::kEof;
    }
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return ReadStatus::kMore;
      }
      return ReadStatus::kError;
    }
    buf->Append(chunk, static_cast<size_t>(n));
    total += static_cast<size_t>(n);
  }
  return ReadStatus::kMore;  // cap hit; level-triggered epoll re-fires
}

// Keeps the shared write-queue gauge in sync with a connection's out queue.
void SyncQueueGauge(size_t* gauged, size_t now) {
  if (now != *gauged) {
    TheTcpGauges().write_queue->Add(static_cast<int64_t>(now) -
                                    static_cast<int64_t>(*gauged));
    *gauged = now;
  }
}

// Frames one response onto `out`.
void AppendResponse(std::vector<uint8_t>* out, uint64_t corr, const Status& st,
                    std::span<const uint8_t> payload) {
  if (!st.ok()) {
    payload = {};
  }
  uint32_t resp_len = kRespHeaderBytes + static_cast<uint32_t>(payload.size());
  size_t off = out->size();
  out->resize(off + 4 + resp_len);
  uint8_t* p = out->data() + off;
  PutU32Le(p, resp_len);
  PutU64Le(p + 4, corr);
  p[12] = static_cast<uint8_t>(st.code());
  PutU32Le(p + 13, st.retry_after_us());
  if (!payload.empty()) {
    std::memcpy(p + 4 + kRespHeaderBytes, payload.data(), payload.size());
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Server side: Listener owns the accept socket and the count of deferred
// replies still out; each accepted socket becomes a ServerConn whose buffers
// and framing state live on the loop thread.  Handlers run inline on the
// loop and their responses are framed straight into the connection's out
// buffer; a deferred reply is posted back to the loop when it completes.
// ---------------------------------------------------------------------------

struct TcpTransport::Listener
    : std::enable_shared_from_this<TcpTransport::Listener> {
  EventLoop* loop = nullptr;
  int listen_fd = -1;
  uint16_t port = 0;
  NodeId node = kInvalidNodeId;
  RpcHandler handler;

  // Set (before closing sockets) by UnregisterNode: no handler is invoked
  // once this is observed true.
  std::atomic<bool> closed{false};

  // Deferred replies taken but not yet completed; UnregisterNode waits for
  // zero so nothing the handler handed out outlives it.
  std::mutex outstanding_mu;
  std::condition_variable outstanding_cv;
  uint64_t outstanding = 0;

  // Loop-thread state.
  std::unordered_map<int, std::shared_ptr<ServerConn>> conns;

  void OnAcceptable();
  void ReplyDone();
  void WaitIdle();
};

struct TcpTransport::ServerConn
    : std::enable_shared_from_this<TcpTransport::ServerConn> {
  EventLoop* loop = nullptr;
  std::shared_ptr<Listener> listener;
  int fd = -1;

  // Loop-thread state: incremental framing buffers and epoll interest.
  ByteQueue in;
  ByteQueue out;
  uint32_t interest = EPOLLIN;
  bool read_paused = false;
  bool closed = false;
  size_t gauged = 0;

  void OnEvent(uint32_t events);
  void OnReadable();
  // Runs the handler for one request and frames its reply onto `out`,
  // unless the handler deferred it.
  void Serve(uint64_t corr, uint16_t method, obs::TraceContext ctx,
             std::span<const uint8_t> payload);
  void DrainWrites();
  void UpdateInterest();
  void CloseOnLoop();
};

// The reply to one request, taken by its handler through DeferReply.
class TcpTransport::ServerReply : public DeferredReply {
 public:
  ServerReply(std::shared_ptr<ServerConn> conn, uint64_t corr)
      : conn_(std::move(conn)), corr_(corr) {}
  ~ServerReply() override {
    if (conn_ != nullptr) {
      Complete(Status(StatusCode::kUnavailable, "deferred reply dropped"), {});
    }
  }

  void Complete(const Status& status,
                std::span<const uint8_t> payload) override {
    if (conn_ == nullptr) {
      return;
    }
    std::vector<uint8_t> frame;
    AppendResponse(&frame, corr_, status, payload);
    std::shared_ptr<ServerConn> conn = std::move(conn_);  // conn_ is now null
    // A closed connection (or a stopped loop) drops the reply: its caller
    // has already failed with the connection.
    (void)conn->loop->Post([conn, frame = std::move(frame)] {
      if (!conn->closed) {
        conn->out.Append(frame.data(), frame.size());
        conn->DrainWrites();
      }
    });
    conn->listener->ReplyDone();
  }

 private:
  std::shared_ptr<ServerConn> conn_;  // null once completed
  uint64_t corr_;
};

void TcpTransport::Listener::OnAcceptable() {
  while (true) {
    int cfd = ::accept4(listen_fd, nullptr, nullptr,
                        SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (cfd < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return;
      }
      TANGO_LOG(kWarning) << "tcp: accept on node " << node
                          << " failed: " << strerror(errno);
      return;
    }
    int one = 1;
    ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<ServerConn>();
    conn->loop = loop;
    conn->listener = shared_from_this();
    conn->fd = cfd;
    conns[cfd] = conn;
    TheTcpGauges().connections->Add(1);
    loop->Add(cfd, EPOLLIN, [conn](uint32_t ev) { conn->OnEvent(ev); });
  }
}

void TcpTransport::Listener::ReplyDone() {
  std::lock_guard<std::mutex> lock(outstanding_mu);
  if (--outstanding == 0) {
    outstanding_cv.notify_all();
  }
}

void TcpTransport::Listener::WaitIdle() {
  std::unique_lock<std::mutex> lock(outstanding_mu);
  outstanding_cv.wait(lock, [this] { return outstanding == 0; });
}

void TcpTransport::ServerConn::Serve(uint64_t corr, uint16_t method,
                                     obs::TraceContext ctx,
                                     std::span<const uint8_t> payload) {
  // The slot DeferReply finds while this request's handler runs.
  struct Slot final : internal::ReplySlot {
    std::unique_ptr<DeferredReply> Take() override {
      if (taken) {
        return nullptr;
      }
      taken = true;
      std::lock_guard<std::mutex> lock(conn->listener->outstanding_mu);
      ++conn->listener->outstanding;
      return std::make_unique<ServerReply>(conn->shared_from_this(), corr);
    }
    ServerConn* conn = nullptr;
    uint64_t corr = 0;
    bool taken = false;
  };

  obs::RpcMethodStats& rpc = obs::RpcStatsFor(method);
  ByteReader reader(payload);
  ByteWriter writer;
  Slot slot;
  slot.req = &reader;
  slot.conn = this;
  slot.corr = corr;
  Status st;
  {
    obs::TraceScope span(rpc.span_name, ctx, listener->node);
    internal::ReplySlot* outer = internal::tl_reply_slot;
    internal::tl_reply_slot = &slot;
    TheTcpGauges().server_inflight->Add(1);
    st = listener->handler(method, reader, writer);
    TheTcpGauges().server_inflight->Add(-1);
    internal::tl_reply_slot = outer;
  }
  if (!slot.taken) {
    AppendResponse(out.Tail(), corr, st, writer.bytes());
  }
}

void TcpTransport::ServerConn::OnEvent(uint32_t events) {
  if (closed) {
    return;
  }
  if (events & EPOLLIN) {
    OnReadable();
    if (closed) {
      return;
    }
  }
  if (events & EPOLLOUT) {
    DrainWrites();
    if (closed) {
      return;
    }
  }
  if (events & (EPOLLERR | EPOLLHUP)) {
    CloseOnLoop();
  }
}

void TcpTransport::ServerConn::OnReadable() {
  ReadStatus rs = ReadSome(fd, &in);
  // Serve every complete frame buffered so far (pipelined requests arrive
  // back to back), send their replies in one go, then handle EOF/error.
  size_t out_before = out.size();
  while (in.size() >= 4 && !listener->closed.load(std::memory_order_acquire)) {
    uint32_t len = GetU32Le(in.ptr());
    if (len < kReqHeaderBytes || len > kMaxFrame) {
      TANGO_LOG(kWarning) << "tcp: dropping malformed frame of " << len
                          << " bytes";
      CloseOnLoop();
      return;
    }
    if (in.size() < 4 + static_cast<size_t>(len)) {
      break;
    }
    const uint8_t* p = in.ptr() + 4;
    Serve(GetU64Le(p), GetU16Le(p + 8), {GetU64Le(p + 10), GetU64Le(p + 18)},
          {p + kReqHeaderBytes, len - kReqHeaderBytes});
    in.Consume(4 + len);
  }
  if (out.size() != out_before) {
    DrainWrites();
  }
  if (rs != ReadStatus::kMore && !closed) {
    CloseOnLoop();
  }
}

void TcpTransport::ServerConn::DrainWrites() {
  while (!out.empty()) {
    ssize_t n = ::send(fd, out.ptr(), out.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      }
      CloseOnLoop();
      return;
    }
    out.Consume(static_cast<size_t>(n));
  }
  SyncQueueGauge(&gauged, out.size());
  UpdateInterest();
}

void TcpTransport::ServerConn::UpdateInterest() {
  if (!read_paused && out.size() >= kWriteHighWatermark) {
    read_paused = true;
  } else if (read_paused && out.size() <= kWriteLowWatermark) {
    read_paused = false;
  }
  uint32_t want = (read_paused ? 0u : EPOLLIN) | (out.empty() ? 0u : EPOLLOUT);
  if (want != interest) {
    interest = want;
    loop->Update(fd, want);
  }
}

void TcpTransport::ServerConn::CloseOnLoop() {
  if (closed) {
    return;
  }
  closed = true;
  auto self = shared_from_this();  // conns.erase below may drop the last ref
  TheTcpGauges().connections->Add(-1);
  SyncQueueGauge(&gauged, 0);
  out.Clear();
  in.Clear();
  loop->Remove(fd);
  ::close(fd);
  listener->conns.erase(fd);
  fd = -1;
}

// ---------------------------------------------------------------------------
// Client side: one shared ClientConn per destination carries every caller's
// frames, correlated by id.  Callers enqueue under `mu` and park on a
// per-call notification; the loop thread writes queued frames and demuxes
// responses back to their waiters.
// ---------------------------------------------------------------------------

struct TcpTransport::ClientConn
    : std::enable_shared_from_this<TcpTransport::ClientConn> {
  TcpTransport* transport = nullptr;
  EventLoop* loop = nullptr;
  NodeId dest = kInvalidNodeId;
  int fd = -1;

  struct PendingCall {
    Notification done;
    Status status = Status::Ok();
    std::vector<uint8_t> payload;
    // True when the status was synthesized by the transport (socket death,
    // shutdown) rather than returned by the remote handler.
    bool transport_failure = false;
  };

  enum class State { kConnecting, kReady, kDead };

  // Cross-thread state: callers enqueue, the loop thread demuxes.  The loop
  // fills and notifies a PendingCall while holding `mu` and removes it from
  // `pending` in the same critical section, so a timed-out caller that fails
  // to erase its id knows the notification has already fired.
  std::mutex mu;
  State state = State::kConnecting;
  uint64_t next_corr = 1;
  std::unordered_map<uint64_t, PendingCall*> pending;
  std::vector<uint8_t> staged;  // frames not yet handed to the loop
  bool flush_posted = false;

  // Loop-thread state.
  ByteQueue in;
  ByteQueue out;
  uint32_t interest = EPOLLIN | EPOLLOUT;  // EPOLLOUT resolves the connect
  bool closed = false;
  size_t gauged = 0;

  void OnEvent(uint32_t events);
  void OnReadable();
  void DrainWrites();
  void UpdateInterest();
  void FlushStaged();
  void Die(const char* why);
};

void TcpTransport::ClientConn::OnEvent(uint32_t events) {
  if (closed) {
    return;
  }
  bool connecting;
  {
    std::lock_guard<std::mutex> lock(mu);
    connecting = state == State::kConnecting;
  }
  if (connecting) {
    // First event on a nonblocking connect: SO_ERROR tells us whether the
    // handshake succeeded.
    int err = 0;
    socklen_t err_len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0) {
      err = errno;
    }
    if (err != 0 || (events & (EPOLLERR | EPOLLHUP))) {
      Die("connect failed");
      return;
    }
    std::vector<uint8_t> bytes;
    {
      std::lock_guard<std::mutex> lock(mu);
      state = State::kReady;
      bytes.swap(staged);
    }
    if (!bytes.empty()) {
      out.Append(bytes.data(), bytes.size());
    }
    DrainWrites();  // also narrows interest to EPOLLIN once drained
    return;
  }
  if (events & EPOLLIN) {
    OnReadable();
    if (closed) {
      return;
    }
  }
  if (events & EPOLLOUT) {
    DrainWrites();
    if (closed) {
      return;
    }
  }
  if (events & (EPOLLERR | EPOLLHUP)) {
    Die("socket error");
  }
}

void TcpTransport::ClientConn::OnReadable() {
  ReadStatus rs = ReadSome(fd, &in);
  while (true) {
    if (in.size() < 4) {
      break;
    }
    uint32_t len = GetU32Le(in.ptr());
    if (len < kRespHeaderBytes || len > kMaxFrame) {
      TANGO_LOG(kWarning) << "tcp: malformed response frame from node "
                          << dest;
      Die("malformed response frame");
      return;
    }
    if (in.size() < 4 + static_cast<size_t>(len)) {
      break;
    }
    const uint8_t* p = in.ptr() + 4;
    uint64_t corr = GetU64Le(p);
    StatusCode code = static_cast<StatusCode>(p[8]);
    uint32_t retry_after_us = GetU32Le(p + 9);
    {
      std::lock_guard<std::mutex> lock(mu);
      auto it = pending.find(corr);
      if (it != pending.end()) {
        PendingCall* pc = it->second;
        pending.erase(it);
        pc->status = Status(code);
        pc->status.set_retry_after_us(retry_after_us);
        pc->payload.assign(p + kRespHeaderBytes, p + len);
        pc->done.Notify();
      }
      // Unknown id: the caller timed out and abandoned it — drop.
    }
    in.Consume(4 + len);
  }
  if (rs != ReadStatus::kMore) {
    Die("peer closed connection");
  }
}

void TcpTransport::ClientConn::DrainWrites() {
  while (!out.empty()) {
    ssize_t n = ::send(fd, out.ptr(), out.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      }
      Die("send failed");
      return;
    }
    out.Consume(static_cast<size_t>(n));
  }
  SyncQueueGauge(&gauged, out.size());
  UpdateInterest();
}

void TcpTransport::ClientConn::UpdateInterest() {
  uint32_t want = EPOLLIN | (out.empty() ? 0u : EPOLLOUT);
  if (want != interest) {
    interest = want;
    loop->Update(fd, want);
  }
}

void TcpTransport::ClientConn::FlushStaged() {
  std::vector<uint8_t> bytes;
  {
    std::lock_guard<std::mutex> lock(mu);
    flush_posted = false;
    if (state != State::kReady) {
      // Still connecting: the ready transition drains `staged` itself.
      // Dead: the frames are moot (their calls were already failed).
      return;
    }
    bytes.swap(staged);
  }
  if (closed || bytes.empty()) {
    return;
  }
  out.Append(bytes.data(), bytes.size());
  DrainWrites();
}

void TcpTransport::ClientConn::Die(const char* why) {
  if (closed) {
    return;
  }
  closed = true;
  auto self = shared_from_this();
  SyncQueueGauge(&gauged, 0);
  out.Clear();
  in.Clear();
  loop->Remove(fd);
  ::close(fd);
  fd = -1;
  {
    std::lock_guard<std::mutex> lock(mu);
    state = State::kDead;
    staged.clear();
    for (auto& [corr, pc] : pending) {
      pc->status = Status(StatusCode::kUnavailable, why);
      pc->transport_failure = true;
      pc->done.Notify();
    }
    pending.clear();
  }
  transport->DropConnectionIfSame(dest, this);
}

// ---------------------------------------------------------------------------
// TcpTransport
// ---------------------------------------------------------------------------

TcpTransport::TcpTransport(Options options)
    : call_timeout_ms_(options.call_timeout_ms),
      loop_(std::make_unique<EventLoop>()) {}

TcpTransport::~TcpTransport() {
  std::vector<std::shared_ptr<Listener>> listeners;
  std::vector<std::shared_ptr<ClientConn>> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [node, l] : listeners_) {
      listeners.push_back(l);
    }
    listeners_.clear();
    for (auto& [node, c] : connections_) {
      conns.push_back(c);
    }
    connections_.clear();
    routes_.clear();
  }
  for (auto& l : listeners) {
    ShutdownListener(l);
  }
  if (!conns.empty()) {
    loop_->PostAndWait([&conns] {
      for (auto& c : conns) {
        c->Die("transport shutting down");
      }
    });
  }
  loop_.reset();
}

void TcpTransport::ShutdownListener(const std::shared_ptr<Listener>& listener) {
  listener->closed.store(true, std::memory_order_release);
  loop_->PostAndWait([listener] {
    if (listener->listen_fd >= 0) {
      listener->loop->Remove(listener->listen_fd);
      ::close(listener->listen_fd);
      listener->listen_fd = -1;
    }
    auto conns = std::move(listener->conns);
    listener->conns.clear();
    for (auto& [fd, conn] : conns) {
      conn->CloseOnLoop();
    }
  });
  // After this, no handler is running or will start, and every deferred
  // reply it took has completed.
  listener->WaitIdle();
}

void TcpTransport::RegisterNode(NodeId node, RpcHandler handler) {
  UnregisterNode(node);  // replace semantics: tear down any previous listener

  uint16_t requested_port = 0;
  std::string address;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = listen_ports_.find(node);
    if (it != listen_ports_.end()) {
      requested_port = it->second;
    }
    address = listen_address_;
  }

  auto listener = std::make_shared<Listener>();
  listener->loop = loop_.get();
  listener->node = node;
  listener->handler = std::move(handler);

  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  TANGO_CHECK(fd >= 0) << "socket() failed";
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  }
  addr.sin_port = htons(requested_port);
  TANGO_CHECK(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0)
      << "bind() failed for node " << node << " port " << requested_port;
  TANGO_CHECK(::listen(fd, 1024) == 0) << "listen() failed";

  socklen_t addr_len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  listener->listen_fd = fd;
  listener->port = ntohs(addr.sin_port);

  loop_->PostAndWait([listener] {
    listener->loop->Add(listener->listen_fd, EPOLLIN,
                        [listener](uint32_t) { listener->OnAcceptable(); });
  });

  std::lock_guard<std::mutex> lock(mu_);
  routes_[node] = {"127.0.0.1", listener->port};
  listeners_[node] = std::move(listener);
}

void TcpTransport::SetListenPort(NodeId node, uint16_t port) {
  std::lock_guard<std::mutex> lock(mu_);
  if (port == 0) {
    listen_ports_.erase(node);
  } else {
    listen_ports_[node] = port;
  }
}

void TcpTransport::SetListenAddress(const std::string& address) {
  std::lock_guard<std::mutex> lock(mu_);
  listen_address_ = address;
}

void TcpTransport::UnregisterNode(NodeId node) {
  std::shared_ptr<Listener> listener;
  std::shared_ptr<ClientConn> conn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = listeners_.find(node);
    if (it != listeners_.end()) {
      listener = it->second;
      listeners_.erase(it);
    }
    routes_.erase(node);
    auto cit = connections_.find(node);
    if (cit != connections_.end()) {
      conn = cit->second;
      connections_.erase(cit);
    }
  }
  if (conn) {
    loop_->PostAndWait([conn] { conn->Die("node unregistered"); });
  }
  if (listener) {
    ShutdownListener(listener);
  }
}

void TcpTransport::AddRoute(NodeId node, const std::string& host,
                            uint16_t port) {
  std::lock_guard<std::mutex> lock(mu_);
  routes_[node] = {host, port};
}

uint16_t TcpTransport::LocalPort(NodeId node) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = listeners_.find(node);
  return it == listeners_.end() ? 0 : it->second->port;
}

Result<std::shared_ptr<TcpTransport::ClientConn>> TcpTransport::GetConnection(
    NodeId dest) {
  std::string host;
  uint16_t port = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = connections_.find(dest);
    if (it != connections_.end()) {
      return it->second;
    }
    auto route = routes_.find(dest);
    if (route == routes_.end()) {
      return Status(StatusCode::kUnavailable, "no route to node");
    }
    host = route->second.first;
    port = route->second.second;
  }

  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status(StatusCode::kUnavailable, "socket() failed");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status(StatusCode::kInvalidArgument, "bad host address");
  }
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    return Status(StatusCode::kUnavailable, "connect() failed");
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  auto conn = std::make_shared<ClientConn>();
  conn->transport = this;
  conn->loop = loop_.get();
  conn->dest = dest;
  conn->fd = fd;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = connections_.emplace(dest, conn);
    if (!inserted) {
      // Another thread raced us; keep the first one in.  The losing racer's
      // socket must not leak — it was never registered with the loop, so
      // closing it here is the whole cleanup (regression-tested by
      // ConcurrentFirstCallsDontLeakFds).
      ::close(fd);
      return it->second;
    }
  }
  if (!loop_->Post([conn] {
        conn->loop->Add(conn->fd, EPOLLIN | EPOLLOUT,
                        [conn](uint32_t ev) { conn->OnEvent(ev); });
      })) {
    DropConnectionIfSame(dest, conn.get());
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->state = ClientConn::State::kDead;
    ::close(conn->fd);
    conn->fd = -1;
    return Status(StatusCode::kUnavailable, "transport shutting down");
  }
  return conn;
}

void TcpTransport::DropConnectionIfSame(NodeId dest, const ClientConn* conn) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = connections_.find(dest);
  if (it != connections_.end() && it->second.get() == conn) {
    connections_.erase(it);
  }
}

Status TcpTransport::Call(NodeId dest, uint16_t method,
                          std::span<const uint8_t> request,
                          std::vector<uint8_t>* response) {
  obs::RpcMethodStats& rpc = obs::RpcStatsFor(method);
  rpc.calls->Add();
  if (loop_->InLoop()) {
    // Only the loop could deliver the reply, and it would be parked here.
    rpc.drops->Add();
    TANGO_LOG(kError) << "tcp: call to node " << dest << " ("
                      << obs::RpcMethodName(method)
                      << ") from a handler on the same transport's loop "
                         "thread would deadlock; refused";
    return Status(StatusCode::kFailedPrecondition,
                  "call from the transport's own loop thread");
  }
  // Opened before the context is serialized so the server's span parents
  // under this round-trip span.
  obs::TraceScope span(rpc.span_name, dest);
  obs::TraceContext ctx = obs::CurrentTrace();
  uint64_t start_us = obs::MetricsEnabled() ? NowMicros() : 0;
  uint32_t timeout_ms = call_timeout_ms_.load(std::memory_order_relaxed);

  // Build the frame once; the correlation id at offset 4 is patched when the
  // call is enqueued on a live connection.
  uint32_t req_len = kReqHeaderBytes + static_cast<uint32_t>(request.size());
  std::vector<uint8_t> frame(4 + req_len);
  PutU32Le(frame.data(), req_len);
  frame[12] = static_cast<uint8_t>(method);
  frame[13] = static_cast<uint8_t>(method >> 8);
  PutU64Le(frame.data() + 14, ctx.trace_id);
  PutU64Le(frame.data() + 22, ctx.span_id);
  if (!request.empty()) {
    std::memcpy(frame.data() + 4 + kReqHeaderBytes, request.data(),
                request.size());
  }

  ClientConn::PendingCall pc;
  std::shared_ptr<ClientConn> conn;
  uint64_t corr = 0;
  bool enqueued = false;
  // Two attempts: a cached connection that died since its last use is
  // evicted and replaced with a fresh socket.  A call that was already
  // enqueued is never retried here — the server may have executed it.
  for (int attempt = 0; attempt < 2 && !enqueued; ++attempt) {
    auto got = GetConnection(dest);
    if (!got.ok()) {
      rpc.drops->Add();
      TANGO_LOG(kWarning) << "tcp: call to node " << dest << " ("
                          << obs::RpcMethodName(method)
                          << ") failed: " << got.status().message();
      return got.status();
    }
    conn = *got;
    bool need_post = false;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->state != ClientConn::State::kDead) {
        corr = conn->next_corr++;
        PutU64Le(frame.data() + 4, corr);
        conn->pending.emplace(corr, &pc);
        conn->staged.insert(conn->staged.end(), frame.begin(), frame.end());
        if (!conn->flush_posted) {
          conn->flush_posted = true;
          need_post = true;
        }
        enqueued = true;
      }
    }
    if (!enqueued) {
      DropConnectionIfSame(dest, conn.get());
      continue;
    }
    if (need_post) {
      auto c = conn;
      if (!loop_->Post([c] { c->FlushStaged(); })) {
        std::lock_guard<std::mutex> lock(conn->mu);
        conn->pending.erase(corr);
        rpc.drops->Add();
        return Status(StatusCode::kUnavailable, "transport shutting down");
      }
    }
  }
  if (!enqueued) {
    rpc.drops->Add();
    TANGO_LOG(kWarning) << "tcp: connection to node " << dest
                        << " repeatedly unavailable";
    return Status(StatusCode::kUnavailable, "connection unavailable");
  }

  TheTcpGauges().client_inflight->Add(1);
  bool done = true;
  if (timeout_ms == 0) {
    pc.done.WaitForNotification();
  } else {
    done = pc.done.WaitForNotificationWithTimeout(
        std::chrono::milliseconds(timeout_ms));
  }
  if (!done) {
    bool erased;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      erased = conn->pending.erase(corr) > 0;
    }
    if (erased) {
      // Abandon the call but keep the connection: with multiplexed framing a
      // slow response no longer poisons the stream.  Repeated timeouts are
      // the circuit breaker's business.
      TheTcpGauges().client_inflight->Add(-1);
      rpc.drops->Add();
      TANGO_LOG(kWarning) << "tcp: call to node " << dest << " ("
                          << obs::RpcMethodName(method) << ") timed out after "
                          << timeout_ms << " ms";
      return Status(StatusCode::kTimeout, "call timed out");
    }
    // The response raced in: the loop filled and notified `pc` under
    // conn->mu before removing the id, so this wait returns immediately.
    pc.done.WaitForNotification();
  }
  TheTcpGauges().client_inflight->Add(-1);

  if (pc.transport_failure) {
    rpc.drops->Add();
    TANGO_LOG(kWarning) << "tcp: call to node " << dest << " ("
                        << obs::RpcMethodName(method)
                        << ") failed: " << pc.status.message()
                        << "; connection dropped";
    return pc.status;
  }
  if (start_us != 0) {
    rpc.latency_us->Record(NowMicros() - start_us);
  }
  if (!pc.status.ok()) {
    rpc.failures->Add();
    return pc.status;
  }
  if (response != nullptr) {
    *response = std::move(pc.payload);
  }
  return Status::Ok();
}

}  // namespace tango

