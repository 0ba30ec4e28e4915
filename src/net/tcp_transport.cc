#include "src/net/tcp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
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
  obs::Gauge* write_queue;      // bytes parked in server write queues
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
// Client side: per destination, a free list of idle blocking connections.  A
// Call owns its connection from checkout to return and does the socket I/O
// on its own thread, so no call waits on the loop or on another call.
// ---------------------------------------------------------------------------

namespace {

// Waits for `events` on `fd` until `deadline_us` (0 = no deadline).
Status WaitFor(int fd, short events, uint64_t deadline_us) {
  while (true) {
    int wait_ms = -1;
    if (deadline_us != 0) {
      uint64_t now = NowMicros();
      if (now >= deadline_us) {
        return Status(StatusCode::kTimeout, "call timed out");
      }
      wait_ms = static_cast<int>((deadline_us - now + 999) / 1000);
    }
    pollfd pfd{fd, events, 0};
    int rc = ::poll(&pfd, 1, wait_ms);
    if (rc > 0) {
      return Status::Ok();
    }
    if (rc < 0 && errno != EINTR) {
      return Status(StatusCode::kUnavailable, "poll() failed");
    }
  }
}

// Opens a blocking TCP_NODELAY connection to host:port; the connect is
// bounded by `deadline_us` (0 = none).
Result<int> Connect(const std::string& host, uint16_t port,
                    uint64_t deadline_us) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status(StatusCode::kInvalidArgument, "bad host address");
  }
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status(StatusCode::kUnavailable, "socket() failed");
  }
  Status st;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    st = errno == EINPROGRESS
             ? WaitFor(fd, POLLOUT, deadline_us)
             : Status(StatusCode::kUnavailable, "connect() failed");
    int err = 0;
    socklen_t err_len = sizeof(err);
    if (st.ok() &&
        (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0 ||
         err != 0)) {
      st = Status(StatusCode::kUnavailable, "connect() failed");
    }
  }
  if (st.ok() && ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) & ~O_NONBLOCK) != 0) {
    st = Status(StatusCode::kUnavailable, "fcntl() failed");
  }
  if (!st.ok()) {
    ::close(fd);
    return st;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

// An idle connection has nothing to read: EOF means its peer closed it (a
// restarted daemon, say), and stray bytes or an error mean it is unusable.
bool IdleConnectionUsable(int fd) {
  uint8_t byte;
  ssize_t n = ::recv(fd, &byte, 1, MSG_PEEK | MSG_DONTWAIT);
  return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
}

Status SendAll(int fd, const uint8_t* p, size_t n) {
  while (n > 0) {
    ssize_t sent = ::send(fd, p, n, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Status(StatusCode::kUnavailable, "send failed");
    }
    p += sent;
    n -= static_cast<size_t>(sent);
  }
  return Status::Ok();
}

// One recv(2) of up to `n` bytes, after waiting for readability when there
// is a deadline.
Result<size_t> RecvSome(int fd, uint8_t* p, size_t n, uint64_t deadline_us) {
  while (true) {
    if (deadline_us != 0) {
      Status st = WaitFor(fd, POLLIN, deadline_us);
      if (!st.ok()) {
        return st;
      }
    }
    ssize_t got = ::recv(fd, p, n, 0);
    if (got > 0) {
      return static_cast<size_t>(got);
    }
    if (got == 0) {
      return Status(StatusCode::kUnavailable, "peer closed connection");
    }
    if (errno != EINTR) {
      return Status(StatusCode::kUnavailable, "recv failed");
    }
  }
}

// Reads the response frame to request `corr`: the server's status goes to
// `*reply` and its payload to `*payload`.  The connection carries no other
// call, so any byte past that one frame is a protocol error.
Status ReadResponse(int fd, uint64_t corr, uint64_t deadline_us,
                    Status* reply, std::vector<uint8_t>* payload) {
  constexpr size_t kHead = 4 + kRespHeaderBytes;
  uint8_t buf[4096];
  size_t got = 0;
  while (got < kHead) {
    Result<size_t> n = RecvSome(fd, buf + got, sizeof(buf) - got, deadline_us);
    if (!n.ok()) {
      return n.status();
    }
    got += *n;
  }
  uint32_t len = GetU32Le(buf);
  if (len < kRespHeaderBytes || len > kMaxFrame || got > 4 + size_t{len} ||
      GetU64Le(buf + 4) != corr) {
    return Status(StatusCode::kUnavailable, "malformed response frame");
  }
  *reply = Status(static_cast<StatusCode>(buf[12]));
  reply->set_retry_after_us(GetU32Le(buf + 13));
  size_t want = len - kRespHeaderBytes;
  size_t have = got - kHead;
  payload->assign(buf + kHead, buf + got);
  payload->resize(want);
  while (have < want) {
    Result<size_t> n =
        RecvSome(fd, payload->data() + have, want - have, deadline_us);
    if (!n.ok()) {
      return n.status();
    }
    have += *n;
  }
  return Status::Ok();
}

}  // namespace

struct TcpTransport::Pool {
  struct Conn {
    int fd = -1;
    uint64_t next_corr = 1;
  };

  std::mutex mu;
  // Set once UnregisterNode or the destructor dropped this pool: busy
  // connections close on return instead of going back to `idle`.
  bool retired = false;
  std::vector<Conn> idle;
  std::vector<int> busy;  // fds of the connections calls own right now

  // Takes an idle connection, or opens one to host:port.  The caller owns
  // it until Return.
  Status Checkout(const std::string& host, uint16_t port, uint64_t deadline_us,
                  Conn* conn);
  void Return(const Conn& conn, bool reusable);
  // Closes the idle connections and shuts down the busy ones, whose calls
  // then fail; their owners close them on return.
  void Retire();
};

Status TcpTransport::Pool::Checkout(const std::string& host, uint16_t port,
                                    uint64_t deadline_us, Conn* conn) {
  while (true) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (retired) {
        return Status(StatusCode::kUnavailable, "node unregistered");
      }
      if (idle.empty()) {
        break;
      }
      *conn = idle.back();
      idle.pop_back();
      busy.push_back(conn->fd);
    }
    if (IdleConnectionUsable(conn->fd)) {
      return Status::Ok();
    }
    Return(*conn, /*reusable=*/false);
  }
  Result<int> fd = Connect(host, port, deadline_us);
  if (!fd.ok()) {
    return fd.status();
  }
  std::lock_guard<std::mutex> lock(mu);
  if (retired) {
    ::close(*fd);
    return Status(StatusCode::kUnavailable, "node unregistered");
  }
  *conn = Conn{*fd};
  busy.push_back(*fd);
  return Status::Ok();
}

void TcpTransport::Pool::Return(const Conn& conn, bool reusable) {
  {
    std::lock_guard<std::mutex> lock(mu);
    busy.erase(std::find(busy.begin(), busy.end(), conn.fd));
    if (reusable && !retired) {
      idle.push_back(conn);
      return;
    }
  }
  ::close(conn.fd);
}

void TcpTransport::Pool::Retire() {
  std::vector<Conn> closing;
  {
    std::lock_guard<std::mutex> lock(mu);
    retired = true;
    // Under `mu`, so no owner can close (and the OS reuse) a busy fd first.
    for (int fd : busy) {
      ::shutdown(fd, SHUT_RDWR);
    }
    closing.swap(idle);
  }
  for (const Conn& conn : closing) {
    ::close(conn.fd);
  }
}

// ---------------------------------------------------------------------------
// TcpTransport
// ---------------------------------------------------------------------------

TcpTransport::TcpTransport(Options options)
    : call_timeout_ms_(options.call_timeout_ms) {}

TcpTransport::~TcpTransport() {
  std::vector<std::shared_ptr<Listener>> listeners;
  std::vector<std::shared_ptr<Pool>> pools;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [node, l] : listeners_) {
      listeners.push_back(l);
    }
    listeners_.clear();
    for (auto& [node, pool] : pools_) {
      pools.push_back(pool);
    }
    pools_.clear();
    routes_.clear();
  }
  for (auto& pool : pools) {
    pool->Retire();
  }
  for (auto& l : listeners) {
    ShutdownListener(l);
  }
  loop_.reset();
}

void TcpTransport::ShutdownListener(const std::shared_ptr<Listener>& listener) {
  listener->closed.store(true, std::memory_order_release);
  listener->loop->PostAndWait([listener] {
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
  auto listener = std::make_shared<Listener>();
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = listen_ports_.find(node);
    if (it != listen_ports_.end()) {
      requested_port = it->second;
    }
    address = listen_address_;
    if (loop_ == nullptr) {
      loop_ = std::make_unique<EventLoop>();
    }
    listener->loop = loop_.get();
  }
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

  listener->loop->PostAndWait([listener] {
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
  std::shared_ptr<Pool> pool;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = listeners_.find(node);
    if (it != listeners_.end()) {
      listener = it->second;
      listeners_.erase(it);
    }
    routes_.erase(node);
    auto pit = pools_.find(node);
    if (pit != pools_.end()) {
      pool = pit->second;
      pools_.erase(pit);
    }
  }
  if (pool) {
    pool->Retire();
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

Status TcpTransport::Call(NodeId dest, uint16_t method,
                          std::span<const uint8_t> request,
                          std::vector<uint8_t>* response) {
  obs::RpcMethodStats& rpc = obs::RpcStatsFor(method);
  rpc.calls->Add();
  bool in_loop = false;
  std::shared_ptr<Pool> pool;
  std::string host;
  uint16_t port = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    in_loop = loop_ != nullptr && loop_->InLoop();
    auto route = routes_.find(dest);
    if (!in_loop && route != routes_.end()) {
      host = route->second.first;
      port = route->second.second;
      std::shared_ptr<Pool>& slot = pools_[dest];
      if (slot == nullptr) {
        slot = std::make_shared<Pool>();
      }
      pool = slot;
    }
  }
  if (in_loop) {
    // The caller would block the loop that serves this transport's nodes.
    rpc.drops->Add();
    TANGO_LOG(kError) << "tcp: call to node " << dest << " ("
                      << obs::RpcMethodName(method)
                      << ") from a handler on the same transport's loop "
                         "thread would deadlock; refused";
    return Status(StatusCode::kFailedPrecondition,
                  "call from the transport's own loop thread");
  }
  if (pool == nullptr) {
    rpc.drops->Add();
    TANGO_LOG(kWarning) << "tcp: call to node " << dest << " ("
                        << obs::RpcMethodName(method)
                        << ") failed: no route to node";
    return Status(StatusCode::kUnavailable, "no route to node");
  }
  // Opened before the context is serialized so the server's span parents
  // under this round-trip span.
  obs::TraceScope span(rpc.span_name, dest);
  obs::TraceContext ctx = obs::CurrentTrace();
  uint64_t start_us = obs::MetricsEnabled() ? NowMicros() : 0;
  uint32_t timeout_ms = call_timeout_ms_.load(std::memory_order_relaxed);
  uint64_t deadline_us =
      timeout_ms == 0 ? 0 : NowMicros() + uint64_t{timeout_ms} * 1000;

  Pool::Conn conn;
  Status st = pool->Checkout(host, port, deadline_us, &conn);
  Status reply;
  if (st.ok()) {
    uint32_t req_len = kReqHeaderBytes + static_cast<uint32_t>(request.size());
    std::vector<uint8_t> frame(4 + req_len);
    uint64_t corr = conn.next_corr++;
    PutU32Le(frame.data(), req_len);
    PutU64Le(frame.data() + 4, corr);
    frame[12] = static_cast<uint8_t>(method);
    frame[13] = static_cast<uint8_t>(method >> 8);
    PutU64Le(frame.data() + 14, ctx.trace_id);
    PutU64Le(frame.data() + 22, ctx.span_id);
    if (!request.empty()) {
      std::memcpy(frame.data() + 4 + kReqHeaderBytes, request.data(),
                  request.size());
    }
    std::vector<uint8_t> discarded;
    TheTcpGauges().client_inflight->Add(1);
    st = SendAll(conn.fd, frame.data(), frame.size());
    if (st.ok()) {
      st = ReadResponse(conn.fd, corr, deadline_us, &reply,
                        response != nullptr ? response : &discarded);
    }
    TheTcpGauges().client_inflight->Add(-1);
    // A failed or timed-out call closes its connection: whatever the server
    // still sends on it can never reach another call.
    pool->Return(conn, /*reusable=*/st.ok());
  }
  if (!st.ok()) {
    rpc.drops->Add();
    TANGO_LOG(kWarning) << "tcp: call to node " << dest << " ("
                        << obs::RpcMethodName(method)
                        << ") failed: " << st.message();
    return st;
  }
  if (start_us != 0) {
    rpc.latency_us->Record(NowMicros() - start_us);
  }
  if (!reply.ok()) {
    rpc.failures->Add();
    return reply;
  }
  return Status::Ok();
}

}  // namespace tango

