// Sequencer: the networked tail counter of the shared log (§2.2, §5).
//
// The sequencer is soft state.  It hands out new log offsets, and — for the
// streaming extension — remembers the last K offsets issued for every stream
// so it can return ready-made backpointer headers with each grant.  If it
// dies, its state is reconstructed by scanning the log backward (see
// CorfuClient::RebuildSequencerState) and a replacement is installed via an
// epoch change; it is an optimization for finding the tail, never the source
// of durability.
//
// RPC surface:
//   Next(epoch, count, streams[]) -> start offset + per-token per-stream
//     backpointers.  count > 1 grants the contiguous token range
//     [start, start+count): with no streams it models raw offset batching
//     (the Figure 2 experiment); with streams it is the append pipeline's
//     grant amortization — every token carries the backpointer headers a
//     sequence of count single grants would have produced, so independent
//     entries can replicate concurrently in sequencer order.
//   Tail(epoch, streams[])        -> current tail + per-stream backpointers,
//     without incrementing (the "fast check" and stream-sync primitive)
//   Bootstrap(epoch, tail, state) -> installs recovered state

#ifndef SRC_CORFU_SEQUENCER_H_
#define SRC_CORFU_SEQUENCER_H_

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/corfu/types.h"
#include "src/net/transport.h"
#include "src/obs/metrics.h"
#include "src/util/status.h"

namespace corfu {

// Backpointer state for one stream: last `backpointer_count` offsets issued,
// most recent first.
using StreamTail = std::vector<LogOffset>;

struct SequencerGrant {
  LogOffset start = kInvalidOffset;
  // Number of consecutive tokens granted: the range [start, start + count).
  uint32_t count = 1;
  // token_backpointers[t][s]: the offsets of the previous K entries of
  // streams[s] before token start+t, most recent first.  Earlier tokens of
  // the same grant appear in later tokens' lists, so a range grant yields
  // exactly the headers count consecutive single grants would have.  Empty
  // when the grant carried no streams (raw offset batching).
  std::vector<std::vector<StreamTail>> token_backpointers;

  // The common single-token view: token t's backpointers, parallel to the
  // requested stream ids.
  const std::vector<StreamTail>& backpointers(uint32_t token = 0) const {
    return token_backpointers[token];
  }
};

struct SequencerTailInfo {
  LogOffset tail = 0;  // next offset that would be granted
  std::vector<StreamTail> backpointers;
};

// Admission control for the sequencer's grant path.  The sequencer is the
// one node every append crosses, so it is where overload concentrates
// first; a token bucket turns "queue until collapse" into "shed with a
// hint".  Only kSequencerNext sheds — Tail, Bootstrap and Dump are always
// admitted.
struct SequencerAdmission {
  // Sustained token-grant rate admitted across all clients (tokens/sec).
  // 0 disables admission control entirely.
  uint64_t capacity_tokens_per_sec = 0;
  // Token-bucket depth: how large a burst is absorbed before shedding.
  // 0 = capacity/8 (125 ms of burst).
  uint64_t burst_tokens = 0;
};

class Sequencer {
 public:
  Sequencer(tango::Transport* transport, tango::NodeId node, Epoch epoch,
            uint32_t backpointer_count,
            SequencerAdmission admission = SequencerAdmission{});
  ~Sequencer();

  Sequencer(const Sequencer&) = delete;
  Sequencer& operator=(const Sequencer&) = delete;

  tango::NodeId node() const { return node_; }

  // Replaces the admission policy at runtime (benches flip this mid-run).
  void set_admission(SequencerAdmission admission);

  // Direct in-process entry points (also reachable over RPC).
  tango::Result<SequencerGrant> Next(Epoch epoch, uint32_t count,
                                     const std::vector<StreamId>& streams);
  tango::Result<SequencerTailInfo> Tail(Epoch epoch,
                                        const std::vector<StreamId>& streams);
  tango::Status Bootstrap(Epoch epoch, LogOffset tail,
                          std::unordered_map<StreamId, StreamTail> state);

  struct DumpedState {
    LogOffset tail = 0;
    std::unordered_map<StreamId, StreamTail> streams;
  };
  // Full backpointer state, for checkpointing into the log.
  tango::Result<DumpedState> Dump(Epoch epoch) const;

  // Approximate memory footprint of the backpointer map (§5 sizes this at
  // 32 MB per million streams with K=4).
  size_t StreamCount() const;

 private:
  // Continuous-refill token bucket; guarded by mu_.
  struct Bucket {
    double tokens = 0.0;
    uint64_t last_refill_us = 0;
  };

  tango::Status HandleNext(tango::ByteReader& req, tango::ByteWriter& resp);
  tango::Status HandleTail(tango::ByteReader& req, tango::ByteWriter& resp);
  tango::Status HandleBootstrap(tango::ByteReader& req,
                                tango::ByteWriter& resp);
  tango::Status HandleDump(tango::ByteReader& req, tango::ByteWriter& resp);

  // The admission decision for one Next(count): refills the bucket, then
  // either deducts `count` (OK) or sheds with kBusy and a retry-after hint
  // of the time the deficit takes to refill.  Guarded by mu_.
  tango::Status Admit(uint32_t count);

  tango::Transport* transport_;
  tango::NodeId node_;
  uint32_t backpointer_count_;

  mutable std::mutex mu_;
  Epoch epoch_;
  LogOffset tail_ = 0;
  std::unordered_map<StreamId, StreamTail> streams_;

  SequencerAdmission admission_;
  Bucket bucket_;

  // Registry instruments (see DESIGN.md "Observability").
  tango::obs::Counter* tokens_;
  tango::obs::Counter* tail_checks_;
  tango::obs::Counter* sealed_rejects_;
  tango::obs::Gauge* tail_gauge_;
  tango::obs::Gauge* stream_gauge_;
  tango::obs::Counter* shed_;
  tango::obs::Counter* admitted_tokens_;
  tango::obs::Histogram* retry_after_us_;

  tango::RpcDispatcher dispatcher_;
};

// Client-side wrappers.
tango::Result<SequencerGrant> SequencerNext(
    tango::Transport* transport, tango::NodeId sequencer, Epoch epoch,
    uint32_t count, const std::vector<StreamId>& streams);
tango::Result<SequencerTailInfo> SequencerTail(
    tango::Transport* transport, tango::NodeId sequencer, Epoch epoch,
    const std::vector<StreamId>& streams);
tango::Status SequencerBootstrap(
    tango::Transport* transport, tango::NodeId sequencer, Epoch epoch,
    LogOffset tail, const std::unordered_map<StreamId, StreamTail>& state);
tango::Result<Sequencer::DumpedState> SequencerDump(
    tango::Transport* transport, tango::NodeId sequencer, Epoch epoch);

// Wire helpers for sequencer-state blobs (shared with the log-checkpoint
// path in CorfuClient).
void EncodeSequencerState(LogOffset tail,
                          const std::unordered_map<StreamId, StreamTail>& state,
                          tango::ByteWriter& w);
tango::Result<Sequencer::DumpedState> DecodeSequencerState(
    tango::ByteReader& r);

}  // namespace corfu

#endif  // SRC_CORFU_SEQUENCER_H_
