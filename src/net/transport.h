// Transport abstraction.
//
// All Tango/CORFU protocol participants (storage nodes, the sequencer, the
// 2PL baseline's lock managers) are services addressed by a NodeId and
// reached exclusively through synchronous RPC on a Transport.  Tango runtimes
// never talk to each other directly — exactly as in the paper, where all
// inter-client coordination flows through the shared log.
//
// Two implementations exist:
//   * InProcTransport — direct dispatch inside one process, with optional
//     simulated latency, drop probability and per-node kill switches.  This
//     is the substrate for tests and benches (substituting for the paper's
//     36-machine cluster).
//   * TcpTransport — real POSIX sockets with length-prefixed frames, showing
//     the same protocol code running over an actual network.

#ifndef SRC_NET_TRANSPORT_H_
#define SRC_NET_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/util/serialize.h"
#include "src/util/status.h"

namespace tango {

using NodeId = uint32_t;

inline constexpr NodeId kInvalidNodeId = 0xffffffffu;

// A service handler: decodes the request from `req`, encodes the reply into
// `resp`, and returns the RPC-level status.  The returned status travels back
// to the caller verbatim; `resp` contents are delivered only when OK.  A
// handler that must wait for something (an fsync) takes its reply with
// DeferReply instead of blocking.
using RpcHandler =
    std::function<Status(uint16_t method, ByteReader& req, ByteWriter& resp)>;

// A reply its handler sends after returning (see DeferReply).
class DeferredReply {
 public:
  virtual ~DeferredReply() = default;
  // Sends `status`, and `payload` when it is OK.  Call at most once, from any
  // thread; a reply destroyed without it sends kUnavailable.
  virtual void Complete(const Status& status,
                        std::span<const uint8_t> payload = {}) = 0;
};

namespace internal {
// Installed by a transport around a handler call whose reply it can defer.
struct ReplySlot {
  const ByteReader* req = nullptr;  // the call's request
  virtual std::unique_ptr<DeferredReply> Take() = 0;

 protected:
  ~ReplySlot() = default;
};
inline thread_local ReplySlot* tl_reply_slot = nullptr;
}  // namespace internal

// Called inside an RpcHandler: takes the reply to the call whose request is
// `req`, so the transport sends nothing when the handler returns (its status
// and `resp` are ignored) and the handler completes the reply later.  Null
// when the serving transport replies only on return (InProcTransport runs
// the handler on the caller's thread): the handler then finishes inline.
inline std::unique_ptr<DeferredReply> DeferReply(const ByteReader& req) {
  internal::ReplySlot* slot = internal::tl_reply_slot;
  if (slot == nullptr || slot->req != &req) {
    return nullptr;
  }
  return slot->Take();
}

class Transport {
 public:
  virtual ~Transport() = default;

  // Synchronous request/response.  On success, `*response` holds the reply
  // payload.  Non-OK statuses produced by the remote handler are returned
  // as-is; transport failures surface as kUnavailable or kTimeout.
  virtual Status Call(NodeId dest, uint16_t method,
                      std::span<const uint8_t> request,
                      std::vector<uint8_t>* response) = 0;

  // Registers (or replaces) the handler serving `node`.
  virtual void RegisterNode(NodeId node, RpcHandler handler) = 0;

  // Removes the handler; subsequent calls to `node` fail with kUnavailable.
  virtual void UnregisterNode(NodeId node) = 0;
};

// A convenience dispatch table mapping method ids to typed handlers, so a
// service implements one small function per RPC verb.
class RpcDispatcher {
 public:
  using Method =
      std::function<Status(ByteReader& req, ByteWriter& resp)>;

  void Register(uint16_t method, Method fn) { methods_[method] = std::move(fn); }

  // Adapts this table to the Transport's RpcHandler signature.
  RpcHandler AsHandler() {
    return [this](uint16_t method, ByteReader& req, ByteWriter& resp) {
      return Dispatch(method, req, resp);
    };
  }

  Status Dispatch(uint16_t method, ByteReader& req, ByteWriter& resp) {
    auto it = methods_.find(method);
    if (it == methods_.end()) {
      return Status(StatusCode::kInvalidArgument, "unknown rpc method");
    }
    return it->second(req, resp);
  }

 private:
  std::unordered_map<uint16_t, Method> methods_;
};

}  // namespace tango

#endif  // SRC_NET_TRANSPORT_H_
