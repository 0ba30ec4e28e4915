// TangoRuntime: the client-side runtime that turns a shared log into
// replicated in-memory data structures (§3) with cross-object transactions
// (§4) over layered partitions.
//
// Each registered object is bound to a stream (its ObjectId doubles as the
// StreamId).  The runtime plays all hosted streams in a single global-offset
// order, so a multiappended commit record is observed exactly once with
// every involved local view synced to the same position — this is what makes
// the deterministic commit/abort evaluation identical on every client.
//
// Concurrency model: any number of application threads may call the helpers
// concurrently.  Appends go straight to the log (CorfuClient is thread
// safe); playback and the version tables are guarded by one playback mutex.
// A linearizable barrier sends its one sequencer tail query before taking
// that mutex, so the mutex covers only local work and storage fetches, never
// a sequencer round trip.  Transaction contexts live in thread-local
// storage, as in the paper.
//
// Decision records (§4.1): a commit record whose read set includes objects
// not hosted locally cannot be evaluated; the runtime stalls its apply
// pipeline (scanning continues) until the generating client's decision
// record arrives.  Clients that *can* evaluate such a transaction append the
// decision record themselves after a timeout if the generator crashed.

#ifndef SRC_RUNTIME_RUNTIME_H_
#define SRC_RUNTIME_RUNTIME_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/corfu/log_client.h"
#include "src/corfu/stream.h"
#include "src/runtime/batcher.h"
#include "src/runtime/object.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/runtime/playback.h"
#include "src/runtime/record.h"
#include "src/util/status.h"

namespace tango {

class TangoRuntime {
 public:
  struct Options {
    // After this long without a decision record for a pending transaction,
    // a client hosting the read set appends the decision itself.
    uint32_t decision_timeout_ms = 1000;
    // Group commit (§6): batch up to batch.max_records records per log
    // entry, as in the paper's evaluation setup ("a batch of 4 commit
    // records in each log entry").  Off by default: batching trades append
    // latency for bandwidth.
    bool enable_batching = false;
    Batcher::Options batch;
    // Read path: entry-cache sizing and read-ahead depth for playback.  The
    // default prefetches 32 known offsets per batched read, so PlayUntil and
    // LoadObject amortize the per-RPC transport cost; set readahead to 0 for
    // the one-round-trip-per-entry path.
    corfu::StreamStore::Options store{.cache_capacity = 8192, .readahead = 32};
    // Parallel playback (src/runtime/playback.h): entries with disjoint
    // object/key access sets apply concurrently on a worker pool while the
    // next window's fetch overlaps the current window's apply.  -1 = auto
    // (min(4, cores/2) workers), 0 = the single-threaded reference path,
    // N > 0 = exactly N workers.  The engine (and its threads) is created
    // lazily on the first playback that can use it.
    int playback_workers = -1;
    // Max entries in flight inside the parallel apply window.
    size_t playback_window = 64;
  };

  struct Stats {
    uint64_t commits = 0;
    uint64_t aborts = 0;
    uint64_t updates_applied = 0;
    uint64_t entries_played = 0;
    uint64_t decisions_appended = 0;
    uint64_t decision_stalls = 0;
  };

  explicit TangoRuntime(corfu::CorfuClient* log)
      : TangoRuntime(log, Options{}) {}
  TangoRuntime(corfu::CorfuClient* log, Options options);
  ~TangoRuntime();

  TangoRuntime(const TangoRuntime&) = delete;
  TangoRuntime& operator=(const TangoRuntime&) = delete;

  // --- Object registration ------------------------------------------------

  // Binds `object` (owned by the caller, outliving the runtime) to `oid`.
  // The runtime starts hosting the object's view; call QueryHelper (or any
  // accessor) to bring it up to date.
  Status RegisterObject(ObjectId oid, TangoObject* object,
                        ObjectConfig config = ObjectConfig{});
  Status UnregisterObject(ObjectId oid);
  bool Hosts(ObjectId oid) const;

  // Rebuilds the view of a registered object from the log, restoring from
  // the latest checkpoint if the stream's history has been trimmed (or just
  // to skip replay).  Without a checkpoint this is equivalent to playback
  // from the beginning.
  Status LoadObject(ObjectId oid);

  // --- The object-facing helpers (§3.1) ------------------------------------

  // Outside a transaction: appends an update record to the object's stream
  // and returns immediately.  Inside a transaction: buffers the write.
  // `key` opts into fine-grained versioning for large objects (§3.2).
  Status UpdateHelper(ObjectId oid, std::span<const uint8_t> data,
                      std::optional<uint64_t> key = std::nullopt);

  // Outside a transaction: plays all hosted streams forward to the current
  // log tail (the linearizable read barrier).  Inside a transaction: records
  // (oid, key, observed version) in the read set without playing.
  Status QueryHelper(ObjectId oid, std::optional<uint64_t> key = std::nullopt);

  // Plays hosted streams forward only up to `limit` (exclusive).  With a
  // freshly registered object this instantiates a historical view (§3.1,
  // History: time travel / coordinated rollback).
  Status SyncTo(corfu::LogOffset limit);

  // --- Transactions (§3.2, §4) ---------------------------------------------

  // Starts a transaction in this thread's context.  Nesting is not
  // supported.
  Status BeginTx();

  // Commits: returns OK on commit, kAborted on a read-set conflict.
  // Read-only transactions skip the commit record (tail check + local
  // validation); write-only transactions commit immediately after append.
  // Every non-empty EndTx lands in exactly one registry outcome counter:
  // runtime.txn.attempts == commits + aborts + timeouts + errors.
  Status EndTx();

  // Read-only commit against the local (possibly stale) snapshot: validates
  // without any log interaction (§3.2, Read-only transactions).
  Status EndTxStale();

  // Discards the transaction context without touching the log.
  void AbortTx();

  bool InTx() const;

  // --- Checkpoints and garbage collection (§3.1) ----------------------------

  // Syncs the object, serializes its state (plus the runtime's version
  // bookkeeping) and appends a checkpoint record to its stream.  Returns the
  // checkpoint's log offset.
  Result<corfu::LogOffset> WriteCheckpoint(ObjectId oid);

  // Declares that this object will never be rolled back below `offset`.
  // The log prefix below the *minimum* forget offset across registered
  // objects becomes trimmable; Forget performs the prefix trim when the
  // minimum advances.  (The Tango directory coordinates this across clients;
  // see src/runtime/directory.h.)
  Status Forget(ObjectId oid, corfu::LogOffset offset);

  Stats stats() const;
  corfu::CorfuClient* log() const { return log_; }
  // Read-path counters (cache hits/misses, prefetch batches) for benches and
  // tests; read it only while playback is quiescent.
  const corfu::StreamStore& store() const { return store_; }

  // Exposed for tests: the current version of (oid) or (oid, key).
  corfu::LogOffset VersionOf(ObjectId oid,
                             std::optional<uint64_t> key = std::nullopt) const;

 private:
  struct ObjectState {
    TangoObject* object = nullptr;
    ObjectConfig config;
    // Guards the version fields below: parallel playback bumps versions of
    // the same object from several workers (distinct keys commute, but the
    // bookkeeping itself must be serialized).  Heap-allocated so ObjectState
    // stays movable.
    std::unique_ptr<std::mutex> version_mu = std::make_unique<std::mutex>();
    // Version = last log offset whose entry modified the object (§3.2).
    corfu::LogOffset version = corfu::kInvalidOffset;
    // Fine-grained versions; a keyless write also invalidates every key.
    corfu::LogOffset unkeyed_version = corfu::kInvalidOffset;
    std::unordered_map<uint64_t, corfu::LogOffset> key_versions;
    // Last stream position consumed by playback (checkpoint coverage).
    // Dispatcher-only; not covered by version_mu.
    corfu::LogOffset last_consumed = corfu::kInvalidOffset;
  };

  struct TxContext {
    bool active = false;
    std::vector<WriteOp> writes;
    std::vector<ReadDep> reads;
    std::unordered_set<uint64_t> read_keys;  // dedupe (oid,key) pairs
  };

  // A transaction decided locally whose decision record hasn't been seen in
  // the log yet; appended by us if the generator fails to.
  struct AwaitedDecision {
    bool commit = false;
    std::vector<corfu::StreamId> streams;
    uint64_t deadline_us = 0;
  };

  TxContext& Tls() const;

  // The linearizable barrier (§3.1): asks for the tail and the hosted
  // streams' last offsets without playback_mu_, then takes it into `lock`
  // and folds the answer in.  Returns the tail, for the caller to play to.
  // With `allow_played`, when the views already cover the tail
  // (played_through_), returns at once and leaves `lock` unowned.
  Result<corfu::LogOffset> Barrier(std::unique_lock<std::mutex>& lock,
                                   bool allow_played = false);

  // --- playback core (playback_mu_ held by the dispatcher) -----------------
  // `fresh` lists the hosted objects whose stream cursor sat exactly at this
  // entry — only those views may apply its effects (an object registered
  // late replays old log positions that other objects already consumed).
  // Syncs only if some hosted stream's list ends below `limit`.
  Status PlayUntil(corfu::LogOffset limit);
  Status ProcessRecord(corfu::LogOffset offset, const Record& record,
                       const std::vector<ObjectId>& fresh);
  // The apply helpers below are worker-safe: they touch version tables only
  // under the per-object version_mu and the decision maps only under
  // decision_mu_, so the playback engine may run them concurrently for
  // entries with disjoint access sets.
  Status ApplyCommit(corfu::LogOffset offset, const CommitRecord& commit,
                     const std::vector<ObjectId>& fresh);
  void ApplyUpdate(corfu::LogOffset offset, const WriteOp& write,
                   const std::vector<ObjectId>& fresh);
  Status ApplyEntryParallel(corfu::LogOffset offset,
                            const std::vector<Record>& records,
                            const std::vector<ObjectId>& fresh,
                            obs::TraceContext trace_ctx);
  bool CanEvaluate(const CommitRecord& commit) const;
  bool ValidateReads(const std::vector<ReadDep>& reads) const;
  void ApplyWrites(corfu::LogOffset offset, const std::vector<WriteOp>& writes,
                   const std::vector<ObjectId>& fresh);
  void BumpVersion(ObjectState& state, corfu::LogOffset offset, bool has_key,
                   uint64_t key);
  corfu::LogOffset CurrentVersion(const ObjectState& state, bool has_key,
                                  uint64_t key) const;
  void CheckDecisionDeadlines();

  // Dependency tracker: folds the entry's records into object/key-granular
  // accesses for the engine.  Returns false when the entry must take the
  // sequential path instead — it carries a decision record, or a commit
  // record this runtime cannot evaluate (the §4.1 stall barrier).
  bool CollectAccesses(const std::vector<Record>& records,
                       const std::vector<ObjectId>& fresh,
                       std::vector<PlaybackAccess>* accesses) const;
  // Resolved worker count (>=0) for this runtime's options.
  int PlaybackWorkers() const;

  corfu::LogOffset SnapshotVersionLocked(ObjectId oid,
                                         std::optional<uint64_t> key) const;

  Status EndTxImpl();

  TxId NextTxId();
  Status AppendDecision(TxId txid, bool commit,
                        const std::vector<corfu::StreamId>& streams);
  // Routes through the group-commit batcher when enabled.
  Result<corfu::LogOffset> AppendRecord(Record record,
                                        std::vector<corfu::StreamId> streams);

  corfu::CorfuClient* log_;
  Options options_;
  uint32_t client_id_;
  std::atomic<uint32_t> tx_seq_{1};
  std::unique_ptr<Batcher> batcher_;  // null unless enable_batching

  mutable std::mutex playback_mu_;
  corfu::StreamStore store_;
  std::unordered_map<ObjectId, ObjectState> objects_;
  // The keys of objects_, readable by Barrier without playback_mu_; a leaf
  // lock, taken after playback_mu_ when both are held.
  std::mutex hosted_mu_;
  std::vector<corfu::StreamId> hosted_;
  // Every hosted stream's entries below this offset are applied.  Stored
  // (release) under playback_mu_ only after a PlayUntil that drained with no
  // decision stall; reset to 0 whenever a hosted view starts over
  // (RegisterObject, LoadObject).  Read (acquire) without any lock by
  // QueryHelper's fast path.
  std::atomic<corfu::LogOffset> played_through_{0};

  // Decision machinery.  `decided_` and `awaited_decisions_` are read and
  // written by parallel apply workers (ApplyCommit) as well as the
  // dispatcher, so they get their own leaf lock: decision_mu_ is only ever
  // taken with no other runtime lock held, or under playback_mu_ — never the
  // other way around.  The barrier_*/stalled_ fields remain dispatcher-only
  // (the engine is quiesced whenever they are touched).
  struct StalledRecord {
    corfu::LogOffset offset;
    Record record;
    std::vector<ObjectId> fresh;
  };
  mutable std::mutex decision_mu_;
  std::unordered_map<TxId, bool> decided_;
  std::optional<TxId> barrier_tx_;
  corfu::LogOffset barrier_offset_ = corfu::kInvalidOffset;
  CommitRecord barrier_commit_;
  std::vector<ObjectId> barrier_fresh_;
  uint64_t barrier_since_us_ = 0;
  std::deque<StalledRecord> stalled_;
  std::unordered_map<TxId, AwaitedDecision> awaited_decisions_;

  // GC bookkeeping: per-object forget offsets (§3.2, Naming).
  std::unordered_map<ObjectId, corfu::LogOffset> forget_offsets_;

  // Atomic mirror of the public Stats struct: updates_applied and
  // commit/abort tallies are bumped from apply workers.
  struct AtomicStats {
    std::atomic<uint64_t> commits{0};
    std::atomic<uint64_t> aborts{0};
    std::atomic<uint64_t> updates_applied{0};
    std::atomic<uint64_t> entries_played{0};
    std::atomic<uint64_t> decisions_appended{0};
    std::atomic<uint64_t> decision_stalls{0};
  };
  AtomicStats stats_;

  // Registry instruments (see DESIGN.md "Observability").
  obs::Counter* txn_attempts_;
  obs::Counter* txn_commits_;
  obs::Counter* txn_aborts_;
  obs::Counter* txn_timeouts_;
  obs::Counter* txn_errors_;
  obs::Counter* obs_entries_played_;
  obs::Counter* obs_updates_applied_;
  obs::Counter* obs_parallel_entries_;
  obs::Counter* obs_sequential_entries_;
  obs::Counter* obs_barrier_quiesces_;
  obs::Counter* obs_played_queries_;
  obs::Gauge* playback_position_;
  obs::Histogram* play_lag_;

  // Created lazily by the first PlayUntil when PlaybackWorkers() > 0.
  // Declared last: its destructor joins the worker pool (and with it any
  // async prefetch task holding a StreamStore pointer) before store_ and the
  // version tables above are torn down.
  std::unique_ptr<PlaybackEngine> engine_;
};

}  // namespace tango

#endif  // SRC_RUNTIME_RUNTIME_H_
