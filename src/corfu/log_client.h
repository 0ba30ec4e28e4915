// CorfuClient: the client-side library of the shared log (§2.2).
//
// Exposes the four CORFU verbs (append, read, check, trim) plus fill, the
// streaming multiappend, and the recovery operations (slow tail check,
// sequencer state rebuild, reconfiguration).  Replication is client-driven
// chain replication: the client writes replicas head-to-tail and reads from
// the tail, so a partially replicated entry is never observable.  Every
// request carries the client's projection epoch; on kSealedEpoch the client
// refreshes its projection from the projection store and retries.
//
// Thread safety: all operations may be called concurrently.  Each operation
// snapshots the current projection under a shared lock, so a reconfiguration
// racing with data operations is safe — the losers are fenced by the sealed
// epoch and retry on the new projection.

#ifndef SRC_CORFU_LOG_CLIENT_H_
#define SRC_CORFU_LOG_CLIENT_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/corfu/append_pipeline.h"
#include "src/corfu/entry.h"
#include "src/corfu/projection.h"
#include "src/corfu/sequencer.h"
#include "src/corfu/types.h"
#include "src/net/transport.h"
#include "src/obs/metrics.h"
#include "src/util/retry.h"
#include "src/util/status.h"

namespace corfu {

class CorfuClient {
 public:
  struct Options {
    // How long a reader waits on an unwritten offset before filling the
    // presumed hole (paper default: 100 ms).
    uint32_t hole_timeout_ms = 100;
    // Retry budget for sealed-epoch refresh loops (becomes the retry
    // policy's max_attempts).
    int max_epoch_retries = 8;
    // Backoff shape for those retries: exponential with jitter plus an
    // optional per-operation deadline (deadline_ms).  max_attempts here is
    // ignored — max_epoch_retries is the single attempts knob.
    tango::RetryPolicy::Options retry;
    // Window and grant-batch sizes for the asynchronous append pipeline
    // (AppendAsync); the pipeline is only created on first use.
    AppendPipeline::Options pipeline;
  };

  CorfuClient(tango::Transport* transport, tango::NodeId projection_store)
      : CorfuClient(transport, projection_store, Options{}) {}
  CorfuClient(tango::Transport* transport, tango::NodeId projection_store,
              Options options);
  // Shuts down the append pipeline (if created), junk-filling its unused
  // tokens, before the rest of the client is torn down.
  ~CorfuClient();

  // --- Core CORFU interface -------------------------------------------------

  // Appends a raw payload with no stream headers; returns its offset.
  tango::Result<LogOffset> Append(std::span<const uint8_t> payload);

  // Multiappend (§4): appends one entry that belongs to every stream in
  // `streams`.  The sequencer supplies the backpointer headers.
  tango::Result<LogOffset> AppendToStreams(std::span<const uint8_t> payload,
                                           const std::vector<StreamId>& streams);

  // Asynchronous append through the windowed pipeline (see AppendPipeline):
  // returns a Handle that resolves out of order when this entry's chain
  // write lands; `completion`, if given, fires first from a worker thread.
  // Blocks only when the pipeline window is full.
  AppendPipeline::Handle AppendAsync(
      std::span<const uint8_t> payload, std::vector<StreamId> streams,
      AppendPipeline::Completion completion = nullptr);

  // The client's pipeline, created on first use with options().pipeline.
  // Exposed for Drain() and stats().
  AppendPipeline& pipeline();

  // Reads and decodes the entry at `offset`.
  tango::Result<LogEntry> Read(LogOffset offset);

  // One slot of a ReadBatch result.  `status` is per-offset: kOk with a
  // decoded entry, or kUnwritten / kTrimmed (and, rarely, a decode error).
  struct BatchedRead {
    tango::Status status{tango::StatusCode::kUnwritten};
    LogEntry entry;  // valid only when status.ok()
  };

  // Vectored read (the playback fast path): fetches every offset in one
  // kStorageReadBatch round trip per replica set, with the per-set sub-batches
  // dispatched in parallel on the shared thread pool.  Per-offset failures
  // (holes, trims) are reported in the slots and never fail the batch; a
  // sealed epoch refreshes the projection and retries only the failed
  // sub-batches.  Unlike ReadRepair this never waits out or fills a hole —
  // callers fall back to ReadRepair for offsets they actually need.
  tango::Result<std::vector<BatchedRead>> ReadBatch(
      std::span<const LogOffset> offsets);

  // Reads, waiting up to hole_timeout_ms for a lagging writer, then fills the
  // hole with junk and reads whatever won.  This is the playback read.  When
  // the lagging writer is this client, the wait is on its completion, not a
  // poll; other writers' offsets are polled every 200 us.  A nonzero
  // `deadline_us` (NowMicros) ends the wait in place of hole_timeout_ms
  // after the first read, so a caller that already waited (AwaitOwnWrite)
  // waits at most one hole timeout in all.
  tango::Result<LogEntry> ReadRepair(LogOffset offset,
                                     uint64_t deadline_us = 0);

  // If `offset` was granted to this client and its chain write has not
  // finished, blocks until it has (written, lost or abandoned) or until
  // hole_timeout_ms passes, and returns that deadline for ReadRepair.
  // Returns 0 at once when no write or grant request of this client can
  // hold `offset`.
  uint64_t AwaitOwnWrite(LogOffset offset);

  // Fast check: one round trip to the sequencer.  Returns the next unwritten
  // offset (i.e. entries [0, tail) are potentially written).
  tango::Result<LogOffset> CheckTail();

  // Slow check: queries every replica set's tail storage node and inverts
  // the mapping function.  Works with no sequencer at all.
  tango::Result<LogOffset> CheckTailSlow();

  // Marks `offset` as garbage-collectable on its replica set.
  tango::Status Trim(LogOffset offset);
  // Trims every offset below `limit` (used by the Tango directory's forget).
  tango::Status TrimPrefix(LogOffset limit);

  // Writes a junk entry at `offset` (first-writer-wins); used to patch holes
  // left by crashed clients.  Returns OK whether junk or an existing value
  // won — either way the hole is resolved.
  tango::Status Fill(LogOffset offset);

  // --- Streaming support ----------------------------------------------------

  // Tail + last-K backpointers for `streams`, without incrementing.
  tango::Result<SequencerTailInfo> StreamTails(
      const std::vector<StreamId>& streams);

  // --- Recovery -------------------------------------------------------------

  // Scans backward from the tail collecting per-stream last-K offsets, for
  // bootstrapping a replacement sequencer.  Scans at most `max_entries`, or
  // until it meets a sequencer-state checkpoint (below), whichever first.
  tango::Result<std::unordered_map<StreamId, StreamTail>>
  RebuildSequencerState(uint64_t max_entries);

  // Dumps the live sequencer's full backpointer state and appends it to the
  // reserved kSequencerStateStream (§5's planned optimization: periodic
  // sequencer checkpoints bound the recovery scan to the checkpoint
  // interval).  Returns the checkpoint's log offset.
  tango::Result<LogOffset> WriteSequencerCheckpoint();

  tango::Status RefreshProjection();
  // Returns a copy of the current projection (safe under concurrency).
  Projection projection() const;
  tango::Transport* transport() const { return transport_; }
  tango::NodeId projection_store() const { return projection_store_; }
  const Options& options() const { return options_; }

 private:
  // The pipeline reuses the client's chain-write, retry, and projection
  // machinery without widening the public surface.
  friend class AppendPipeline;

  Projection Snapshot() const;

  // Writes `bytes` at `offset` through the chain.  If another writer already
  // owns the offset, completes the chain with the winner's value and returns
  // kWritten.
  tango::Status ChainWrite(const Projection& p, LogOffset offset,
                           const std::vector<uint8_t>& bytes);

  // Reads the raw page from the chain's tail replica.
  tango::Result<std::vector<uint8_t>> ChainRead(const Projection& p,
                                                LogOffset offset);

  // Runs `op(projection snapshot)`, refreshing on kSealedEpoch and retrying.
  tango::Status WithEpochRetry(
      const std::function<tango::Status(const Projection&)>& op);

  // The one sequencer grant path of both append paths: asks for `count`
  // tokens and publishes [start, start + count) as this client's unfinished
  // writes.  Each granted offset must be passed to ReleaseOffset once its
  // write ends, whatever the outcome.
  tango::Result<SequencerGrant> GrantTokens(
      const Projection& p, uint32_t count,
      const std::vector<StreamId>& streams);
  void ReleaseOffset(LogOffset offset);

  // Whether `offset` may be an unfinished write of this client, as of the
  // probe: it is pending, or a grant request sent before the probe (the
  // first `grants` tickets) is still in flight and may hold it.  Without
  // `all_grants`, in-flight grants count only for an offset past every grant
  // reply seen so far.
  struct OwnProbe {
    bool pending = false;
    uint64_t grants = 0;
  };
  OwnProbe ProbeOwn(LogOffset offset, bool all_grants);
  // Waits, until `deadline_us` (NowMicros), for the probed grants to land and
  // then for this client's write at `offset` to end.  Returns whether the
  // offset was this client's.
  bool AwaitOwnWriteUntil(LogOffset offset, const OwnProbe& probe,
                          uint64_t deadline_us);

  tango::Transport* transport_;
  tango::NodeId projection_store_;
  Options options_;
  tango::RetryPolicy retry_;

  // Registry instruments (see DESIGN.md "Observability").
  tango::obs::Counter* appends_;
  tango::obs::Counter* append_retries_;
  tango::obs::Counter* fills_;
  tango::obs::Counter* epoch_refreshes_;
  tango::obs::Counter* hole_timeouts_;
  tango::obs::Counter* busy_backoffs_;
  tango::obs::Counter* unwritten_reads_;
  tango::obs::Counter* completion_waits_;
  tango::obs::Counter* hole_polls_;
  tango::obs::Histogram* append_latency_;

  mutable std::shared_mutex projection_mu_;
  Projection projection_;

  // Own-write completion: offsets granted to this client whose write has not
  // ended, and the tickets of grant requests whose reply has not been folded
  // in yet (their offsets are unknown until it is).
  std::mutex own_mu_;
  std::condition_variable own_cv_;
  std::unordered_set<LogOffset> own_pending_;
  std::set<uint64_t> grants_inflight_;
  uint64_t next_grant_ticket_ = 0;
  LogOffset granted_through_ = 0;  // one past the highest offset granted
  uint32_t own_waiters_ = 0;

  std::once_flag pipeline_once_;
  std::unique_ptr<AppendPipeline> pipeline_;
};

// Storage-node RPC stubs (StorageNode's kStorageWrite, kStorageRead and
// kStorageLocalTail), shared by chain replication and chain repair.
tango::Status StorageWrite(tango::Transport* t, tango::NodeId node,
                           Epoch epoch, LogOffset local,
                           const std::vector<uint8_t>& bytes);
tango::Result<std::vector<uint8_t>> StorageRead(tango::Transport* t,
                                                tango::NodeId node,
                                                Epoch epoch, LogOffset local);
tango::Result<LogOffset> StorageLocalTail(tango::Transport* t,
                                          tango::NodeId node, Epoch epoch);

// The tails collected by one seal round (SealAll).
struct SealedTails {
  // One past the highest global offset written on any sealed node.
  LogOffset global_tail = 0;
  // local[s][r] is the local tail of next.replica_sets[s][r].
  std::vector<std::vector<LogOffset>> local;
};

// The seal round every reconfiguration runs (§5, Failure Handling): seals
// each storage node in `next` at next.epoch and collects the tails.  Stops at
// the first node that fails to seal; kSealedEpoch there means a concurrent
// reconfiguration already claimed the epoch.
tango::Result<SealedTails> SealAll(tango::Transport* transport,
                                   const Projection& next);

// Reconfiguration (§5, Failure Handling): seals the cluster at epoch+1,
// applies `mutate` to a copy of `client`'s projection (e.g. replacing the
// sequencer), proposes it, and bootstraps the new sequencer with the sealed
// tail plus backpointer state rebuilt by scanning backward up to
// `rebuild_scan_limit` entries.  On success the client's projection is
// refreshed in place.
tango::Status Reconfigure(CorfuClient* client,
                          const std::function<void(Projection&)>& mutate,
                          uint64_t rebuild_scan_limit = 65536);

}  // namespace corfu

#endif  // SRC_CORFU_LOG_CLIENT_H_
