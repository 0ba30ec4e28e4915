// TCP transport: the same RPC contract as InProcTransport, over real POSIX
// sockets — multiplexed over a nonblocking epoll event loop (EventLoop).
//
// Wire format v2 (all little-endian):
//   request frame:  u32 length | u64 corr_id | u16 method | u64 trace_id
//                   | u64 parent_span | payload...
//   response frame: u32 length | u64 corr_id | u8 status | u32 retry_after_us
//                   | payload...
// `length` counts the bytes after the length field itself.  corr_id pairs a
// response with its request, so many RPCs can be in flight on one connection
// and responses may return in any order.  retry_after_us carries the server's
// backoff hint for kBusy sheds (0 otherwise), so admission control survives
// the wire.  The 16-byte trace envelope propagates the caller's trace context
// (src/obs/trace.h); trace_id 0 means the call is untraced.
//
// Architecture: one EventLoop thread per transport owns every socket —
// listeners, accepted server connections, and cached client connections.
// All socket I/O is nonblocking with per-connection read/write buffers and
// incremental framing.  Every handler runs inline on the loop thread: the
// requests of one read batch are served in order, their responses framed
// straight into the connection's out buffer, and sent with one send(2).  A
// handler must therefore never block; one that has to wait (a storage write
// whose ack waits for an fsync) takes its reply with DeferReply and
// completes it later from any thread, which posts the framed reply to the
// loop.  A handler must not Call its own transport (the loop could never
// deliver the reply): such a call fails with kFailedPrecondition.
// Client-side, Call() assigns a correlation id, enqueues its frame on the
// shared per-destination connection, and parks on a notification until the
// loop demuxes the matching response — so 10k concurrent callers cost 10k
// sockets, not 10k threads.
//
// Timeouts: Options::call_timeout_ms bounds each Call end to end (connect
// included).  A timed-out call abandons its correlation id but leaves the
// connection intact — later responses for abandoned ids are dropped.  Only a
// socket-level failure kills a connection (failing every pending call on it
// with kUnavailable).

#ifndef SRC_NET_TCP_TRANSPORT_H_
#define SRC_NET_TCP_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/net/transport.h"

namespace tango {

class EventLoop;

class TcpTransport : public Transport {
 public:
  struct Options {
    // Per-call deadline in milliseconds, covering connect, queueing and the
    // server round trip: a hung or unreachable peer surfaces as kTimeout
    // instead of blocking the caller forever.  0 = block indefinitely.
    uint32_t call_timeout_ms = 0;
  };

  TcpTransport() : TcpTransport(Options{}) {}
  explicit TcpTransport(Options options);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  Status Call(NodeId dest, uint16_t method, std::span<const uint8_t> request,
              std::vector<uint8_t>* response) override;

  // Starts a listener on 127.0.0.1 with an OS-assigned port and serves
  // `handler` on it.  The chosen address is registered so Call() on this
  // transport can reach it; remote processes would use AddRoute().
  // Re-registering a node replaces its listener (new port unless pinned).
  void RegisterNode(NodeId node, RpcHandler handler) override;

  // Stops the listener and waits for the deferred replies its handler took:
  // once this returns, `handler` is not executing, will never be invoked
  // again, and every reply it deferred has completed.
  void UnregisterNode(NodeId node) override;

  // Maps a node id to an explicit host:port (for cross-process setups).
  void AddRoute(NodeId node, const std::string& host, uint16_t port);

  // Pre-assigns the listening port RegisterNode will bind for `node` (0
  // restores OS assignment).  Lets daemons serve at well-known addresses.
  void SetListenPort(NodeId node, uint16_t port);

  // Binds listeners to this address (default 127.0.0.1; use "0.0.0.0" for
  // cross-machine deployments).
  void SetListenAddress(const std::string& address);

  // Port the given locally served node is listening on (0 if not local).
  uint16_t LocalPort(NodeId node) const;

  // Adjusts the per-call deadline at runtime (applies to subsequent calls).
  void set_call_timeout_ms(uint32_t ms) {
    call_timeout_ms_.store(ms, std::memory_order_relaxed);
  }

 private:
  struct Listener;
  struct ServerConn;
  struct ClientConn;
  class ServerReply;

  Result<std::shared_ptr<ClientConn>> GetConnection(NodeId dest);
  // Evicts `conn` from the cache iff it is still the cached entry for
  // `dest` — a dying connection must not evict its replacement.
  void DropConnectionIfSame(NodeId dest, const ClientConn* conn);
  void ShutdownListener(const std::shared_ptr<Listener>& listener);

  std::atomic<uint32_t> call_timeout_ms_{0};
  std::unique_ptr<EventLoop> loop_;

  mutable std::mutex mu_;
  std::unordered_map<NodeId, std::shared_ptr<Listener>> listeners_;
  std::unordered_map<NodeId, std::pair<std::string, uint16_t>> routes_;
  std::unordered_map<NodeId, std::shared_ptr<ClientConn>> connections_;
  std::unordered_map<NodeId, uint16_t> listen_ports_;
  std::string listen_address_ = "127.0.0.1";
};

}  // namespace tango

#endif  // SRC_NET_TCP_TRANSPORT_H_
