// TCP transport: the same RPC contract as InProcTransport, over real POSIX
// sockets.  Servers run on a nonblocking epoll event loop (EventLoop);
// callers do their own blocking socket I/O.
//
// Wire format v2 (all little-endian):
//   request frame:  u32 length | u64 corr_id | u16 method | u64 trace_id
//                   | u64 parent_span | payload...
//   response frame: u32 length | u64 corr_id | u8 status | u32 retry_after_us
//                   | payload...
// `length` counts the bytes after the length field itself.  corr_id pairs a
// response with its request, so a client may pipeline many RPCs on one
// connection and the server may answer them in any order.  retry_after_us
// carries the server's backoff hint for kBusy sheds (0 otherwise), so
// admission control survives the wire.  The 16-byte trace envelope
// propagates the caller's trace context (src/obs/trace.h); trace_id 0 means
// the call is untraced.
//
// Server: one EventLoop thread per transport, started by the first
// RegisterNode, owns every listener and accepted connection.  Socket I/O is
// nonblocking with per-connection buffers and incremental framing.  Every
// handler runs inline on the loop thread: the requests of one read batch
// are served in order, their responses framed straight into the
// connection's out buffer, and sent with one send(2).  A handler must
// therefore never block; one that has to wait (a storage write whose ack
// waits for an fsync) takes its reply with DeferReply and completes it later
// from any thread, which posts the framed reply to the loop.  A handler must
// not Call its own transport (the loop could never serve the reply): such a
// call fails with kFailedPrecondition.
//
// Client: each destination has a free list of idle blocking connections.  A
// Call takes one (or opens one), sends its frame with one send(2), reads its
// own reply with blocking recv(2), and puts the connection back — no thread
// hop on either side.  A connection carries one call at a time, so sockets
// per destination equal the peak number of concurrent callers.  An idle
// connection whose peer closed (a restarted daemon) is noticed before the
// send and replaced.  UnregisterNode and the destructor shut down the
// connections busy with calls to the node, failing those calls with
// kUnavailable.
//
// Timeouts: Options::call_timeout_ms bounds the connect and the reply wait
// of each Call.  A timed-out call closes its connection, so its late reply
// can never reach another call.

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
    // Per-call deadline in milliseconds, covering the connect and the wait
    // for the reply: a hung or unreachable peer surfaces as kTimeout instead
    // of blocking the caller forever.  0 = block indefinitely.
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
  class ServerReply;
  struct Pool;

  void ShutdownListener(const std::shared_ptr<Listener>& listener);

  std::atomic<uint32_t> call_timeout_ms_{0};

  mutable std::mutex mu_;
  // Created by the first RegisterNode: a call-only transport starts no
  // thread.
  std::unique_ptr<EventLoop> loop_;
  std::unordered_map<NodeId, std::shared_ptr<Listener>> listeners_;
  std::unordered_map<NodeId, std::pair<std::string, uint16_t>> routes_;
  std::unordered_map<NodeId, std::shared_ptr<Pool>> pools_;
  std::unordered_map<NodeId, uint16_t> listen_ports_;
  std::string listen_address_ = "127.0.0.1";
};

}  // namespace tango

#endif  // SRC_NET_TCP_TRANSPORT_H_
