// AppendPipeline: windowed asynchronous appends over the shared log.
//
// The synchronous append path costs one sequencer round trip plus one
// blocking chain write per entry, so single-client write throughput is
// bounded by link latency.  The sequencer, however, assigns global order at
// grant time — once two entries hold distinct tokens their chain writes are
// independent, and replicating them concurrently cannot violate log order.
// The pipeline exploits exactly that:
//
//   * a bounded window of in-flight appends (Submit blocks when full, which
//     is the only backpressure mechanism);
//   * grant amortization: when several appends to the same stream set wait
//     for tokens, one SequencerNext(count = waiting, capped at grant_batch)
//     buys offsets for all of them, each with its own ready-made backpointer
//     headers (see SequencerGrant::token_backpointers);
//   * out-of-order completion: each append completes when its own chain
//     write lands, independent of earlier offsets.  Readers already tolerate
//     temporarily unwritten lower offsets (holes) — that is the log's normal
//     state during concurrent appends, pipelined or not;
//   * per-token failure isolation: losing an offset (kWritten/kTrimmed) or a
//     sealed epoch abandons only that token; the entry re-drives through the
//     client's RetryPolicy on a fresh token.  Abandoned and never-used pooled
//     tokens are junk-filled at Shutdown so the window leaves no lingering
//     holes behind.
//
// Thread safety: Submit/Drain/stats may be called from any thread.  Shutdown
// (and the destructor) must not race with Submit.

#ifndef SRC_CORFU_APPEND_PIPELINE_H_
#define SRC_CORFU_APPEND_PIPELINE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "src/corfu/projection.h"
#include "src/corfu/sequencer.h"
#include "src/corfu/types.h"
#include "src/obs/metrics.h"
#include "src/util/status.h"

namespace corfu {

class CorfuClient;

class AppendPipeline {
 public:
  struct Options {
    // Maximum appends in flight, one worker thread each; also the ceiling of
    // the AIMD window: a sequencer shed (kBusy) or a chain-write timeout
    // halves the effective window (down to 1), and each completed append
    // grows it back by ~1/cwnd.  With no overload signals the window sits
    // at `window`, so a healthy cluster pays nothing.
    uint32_t window = 8;
    // Tokens per SequencerNext request (more when even more appends are
    // already waiting on the same stream set).  Surplus tokens are pooled
    // for subsequent appends and junk-filled at Shutdown if never used, so
    // over-granting trades a few teardown junk entries for one sequencer
    // round trip per grant_batch appends.
    uint32_t grant_batch = 8;
  };

  // Invoked exactly once per submitted append, from a worker thread, with
  // the final status and (on success) the entry's log offset.
  using Completion =
      std::function<void(const tango::Status&, LogOffset offset)>;

  // Future-style completion: Wait() blocks until the append finishes.
  class Handle {
   public:
    Handle() = default;
    bool valid() const { return state_ != nullptr; }
    // Blocks until the append completes; returns its final status.
    tango::Status Wait() const;
    // The assigned offset; valid once Wait() has returned OK.
    LogOffset offset() const;

   private:
    friend class AppendPipeline;
    struct State;
    std::shared_ptr<State> state_;
  };

  // Lifetime token-accounting counters, for invariant checks in tests and
  // benches: after Shutdown, tokens_granted ==
  // completed_appends + tokens_lost + tokens_filled - fill_failures' holes —
  // in particular every abandoned or pooled-but-unused token must show up in
  // tokens_filled (or fill_failures).
  struct Stats {
    uint64_t submitted = 0;
    uint64_t completed_ok = 0;
    uint64_t completed_error = 0;
    uint64_t grant_rpcs = 0;
    uint64_t tokens_granted = 0;
    // Tokens whose offset was consumed by another writer or trimmed: no fill
    // needed, the offset is not a hole.
    uint64_t tokens_lost = 0;
    // Tokens given up with the offset still unwritten (sealed epoch, chain
    // failure, teardown surplus); each must be junk-filled.
    uint64_t tokens_abandoned = 0;
    uint64_t tokens_filled = 0;
    uint64_t fill_failures = 0;
  };

  AppendPipeline(CorfuClient* client, Options options);
  // Drains queued work, joins the workers, junk-fills leftover tokens.
  ~AppendPipeline();

  AppendPipeline(const AppendPipeline&) = delete;
  AppendPipeline& operator=(const AppendPipeline&) = delete;

  // Enqueues an append of `payload` to `streams`; blocks while the window is
  // full.  The returned Handle resolves when the append completes; if
  // `completion` is non-null it fires first (from the worker thread).
  // Oversized payloads fail immediately with kOutOfRange, without consuming
  // a token or a window slot.
  Handle Submit(std::span<const uint8_t> payload,
                std::vector<StreamId> streams, Completion completion = nullptr);

  // Blocks until every append submitted so far has completed.
  void Drain();

  // Drain + stop the workers + junk-fill every pooled or abandoned token.
  // Idempotent; Submit must not be called afterwards.
  void Shutdown();

  Stats stats() const;
  const Options& options() const { return options_; }
  // Current AIMD window limit, for tests and benches.
  uint32_t window_limit() const;

 private:
  // A granted log position: the offset plus the backpointer headers the
  // sequencer computed for it, bound to the epoch of the grant.
  struct Token {
    LogOffset offset = kInvalidOffset;
    Epoch epoch = 0;
    std::vector<StreamTail> backpointers;
  };

  // Per-stream-set token pool.  One grant RPC in flight per bucket: the
  // granting worker asks for every waiter's token at once, the others block
  // on `cv` until tokens arrive.
  struct Bucket {
    std::deque<Token> tokens;
    uint32_t waiting = 0;
    bool grant_inflight = false;
    std::condition_variable cv;
  };

  struct Work {
    std::vector<uint8_t> payload;
    std::vector<StreamId> streams;
    std::shared_ptr<Handle::State> state;
    Completion completion;
  };

  void WorkerLoop();
  void ProcessOne(Work& work);
  // AIMD: halves the effective window on an overload signal (kBusy shed or
  // chain-write timeout); grows it ~1/cwnd per success.
  void ShrinkWindow();
  void GrowWindow();
  uint32_t WindowLimitLocked() const;
  // One append attempt: acquire a token, encode, chain-write.  On success
  // stores the offset in *out.  Retryable failures are returned for
  // ProcessOne's policy loop to handle.
  tango::Status TryOnce(const Work& work, LogOffset* out);
  // Pops (or grants) a token for `streams` at `p`'s epoch.  Tokens found in
  // the pool with a stale epoch are moved to the abandoned list.
  tango::Status AcquireToken(const Projection& p,
                             const std::vector<StreamId>& streams, Token* out);
  // Marks a token's offset as a hole to be junk-filled at Shutdown.
  void Abandon(Token token);
  void Complete(Work& work, const tango::Status& status, LogOffset offset);

  CorfuClient* client_;
  Options options_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;   // workers: work available or stopping
  std::condition_variable window_cv_;  // submitters: a window slot freed
  std::condition_variable idle_cv_;    // Drain: everything completed
  std::deque<Work> queue_;
  uint32_t active_ = 0;  // works popped but not yet completed
  double cwnd_ = 1.0;    // AIMD window, in [1, options_.window]
  bool stopping_ = false;
  bool shut_down_ = false;
  std::vector<std::thread> workers_;

  std::mutex pool_mu_;
  std::map<std::vector<StreamId>, Bucket> pool_;
  std::vector<Token> abandoned_;

  mutable std::mutex stats_mu_;
  Stats stats_;

  // Registry instruments (see DESIGN.md "Observability").
  tango::obs::Gauge* depth_gauge_;
  tango::obs::Counter* grant_rpcs_;
  tango::obs::Counter* tokens_granted_;
  tango::obs::Counter* abandoned_counter_;
  tango::obs::Histogram* grant_batch_hist_;
  tango::obs::Histogram* grant_stage_us_;
  tango::obs::Histogram* write_stage_us_;
  tango::obs::Gauge* cwnd_gauge_;
  tango::obs::Counter* busy_counter_;
};

}  // namespace corfu

#endif  // SRC_CORFU_APPEND_PIPELINE_H_
