#include "src/runtime/runtime.h"

#include <algorithm>
#include <queue>
#include <thread>
#include <utility>

#include "src/obs/slo.h"
#include "src/obs/trace.h"
#include "src/util/logging.h"
#include "src/util/threading.h"

namespace tango {

using corfu::kInvalidOffset;
using corfu::LogOffset;
using corfu::StreamId;

namespace {

std::atomic<uint32_t> g_next_client_id{1};

// Runtime-level checkpoint envelope: the object snapshot plus the version
// bookkeeping needed for conflict detection after a restore.
std::vector<uint8_t> WrapCheckpoint(
    LogOffset version, LogOffset unkeyed_version,
    const std::unordered_map<uint64_t, LogOffset>& key_versions,
    std::vector<uint8_t> object_state) {
  ByteWriter w(64 + object_state.size());
  w.PutU64(version);
  w.PutU64(unkeyed_version);
  w.PutU32(static_cast<uint32_t>(key_versions.size()));
  for (const auto& [key, ver] : key_versions) {
    w.PutU64(key);
    w.PutU64(ver);
  }
  w.PutBlob(object_state);
  return w.Take();
}

}  // namespace

TangoRuntime::TangoRuntime(corfu::CorfuClient* log, Options options)
    : log_(log),
      options_(options),
      client_id_(g_next_client_id.fetch_add(1)),
      store_(log, options_.store) {
  if (options_.enable_batching) {
    batcher_ = std::make_unique<Batcher>(log_, options_.batch);
  }
  auto& reg = obs::MetricsRegistry::Default();
  txn_attempts_ = reg.GetCounter("runtime.txn.attempts");
  txn_commits_ = reg.GetCounter("runtime.txn.commits");
  txn_aborts_ = reg.GetCounter("runtime.txn.aborts");
  txn_timeouts_ = reg.GetCounter("runtime.txn.timeouts");
  txn_errors_ = reg.GetCounter("runtime.txn.errors");
  obs_entries_played_ = reg.GetCounter("runtime.entries_played");
  obs_updates_applied_ = reg.GetCounter("runtime.updates_applied");
  obs_parallel_entries_ = reg.GetCounter("runtime.playback.entries.parallel");
  obs_sequential_entries_ =
      reg.GetCounter("runtime.playback.entries.sequential");
  obs_barrier_quiesces_ = reg.GetCounter("runtime.playback.barrier.quiesces");
  obs_played_queries_ = reg.GetCounter("runtime.query.already_played");
  playback_position_ = reg.GetGauge("runtime.playback.position");
  play_lag_ = reg.GetHistogram("runtime.play.lag_entries");
}

TangoRuntime::~TangoRuntime() = default;

TangoRuntime::TxContext& TangoRuntime::Tls() const {
  // Keyed by the runtime's unique client id, not its address: a recycled
  // heap address must not inherit another (dead) runtime's context.
  static thread_local std::unordered_map<uint32_t, TxContext> tls;
  return tls[client_id_];
}

TxId TangoRuntime::NextTxId() {
  return (static_cast<uint64_t>(client_id_) << 32) |
         tx_seq_.fetch_add(1, std::memory_order_relaxed);
}

// --- registration ------------------------------------------------------------

Status TangoRuntime::RegisterObject(ObjectId oid, TangoObject* object,
                                    ObjectConfig config) {
  if (object == nullptr) {
    return Status(StatusCode::kInvalidArgument, "null object");
  }
  if (oid >= corfu::kSequencerStateStream) {
    return Status(StatusCode::kInvalidArgument, "reserved stream id");
  }
  std::lock_guard<std::mutex> lock(playback_mu_);
  if (objects_.contains(oid)) {
    return Status(StatusCode::kAlreadyExists, "oid already registered");
  }
  ObjectState state;
  state.object = object;
  state.config = config;
  played_through_.store(0, std::memory_order_release);
  objects_.emplace(oid, std::move(state));
  store_.Open(oid);
  std::lock_guard<std::mutex> hosted_lock(hosted_mu_);
  hosted_.push_back(oid);
  return Status::Ok();
}

Status TangoRuntime::UnregisterObject(ObjectId oid) {
  std::lock_guard<std::mutex> lock(playback_mu_);
  if (objects_.erase(oid) == 0) {
    return Status(StatusCode::kNotFound, "oid not registered");
  }
  std::lock_guard<std::mutex> hosted_lock(hosted_mu_);
  std::erase(hosted_, oid);
  return Status::Ok();
}

bool TangoRuntime::Hosts(ObjectId oid) const {
  std::lock_guard<std::mutex> lock(playback_mu_);
  return objects_.contains(oid);
}

// --- version bookkeeping ------------------------------------------------------

void TangoRuntime::BumpVersion(ObjectState& state, LogOffset offset,
                               bool has_key, uint64_t key) {
  std::lock_guard<std::mutex> lock(*state.version_mu);
  // Keyed writes to distinct keys may apply out of log order under parallel
  // playback, so the coarse version takes the max rather than the latest
  // assignment (identical to sequential playback, where offsets only grow).
  if (state.version == kInvalidOffset || offset > state.version) {
    state.version = offset;
  }
  if (has_key) {
    state.key_versions[key] = offset;
  } else {
    state.unkeyed_version = offset;
  }
}

LogOffset TangoRuntime::CurrentVersion(const ObjectState& state, bool has_key,
                                       uint64_t key) const {
  std::lock_guard<std::mutex> lock(*state.version_mu);
  if (!has_key) {
    return state.version;
  }
  // A keyed read conflicts with writes to the same key *and* with keyless
  // writes (which may have touched anything).
  LogOffset v = state.unkeyed_version;
  auto it = state.key_versions.find(key);
  if (it != state.key_versions.end() &&
      (v == kInvalidOffset || it->second > v)) {
    v = it->second;
  }
  return v;
}

LogOffset TangoRuntime::SnapshotVersionLocked(
    ObjectId oid, std::optional<uint64_t> key) const {
  auto it = objects_.find(oid);
  if (it == objects_.end()) {
    return kInvalidOffset;
  }
  return CurrentVersion(it->second, key.has_value(), key.value_or(0));
}

corfu::LogOffset TangoRuntime::VersionOf(ObjectId oid,
                                         std::optional<uint64_t> key) const {
  std::lock_guard<std::mutex> lock(playback_mu_);
  return SnapshotVersionLocked(oid, key);
}

// --- playback ----------------------------------------------------------------

int TangoRuntime::PlaybackWorkers() const {
  if (options_.playback_workers >= 0) {
    return options_.playback_workers;
  }
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) {
    hw = 2;  // unknown topology: assume a small machine
  }
  unsigned half = hw / 2;
  if (half < 1) {
    half = 1;
  }
  return static_cast<int>(std::min(4u, half));
}

Status TangoRuntime::PlayUntil(LogOffset limit) {
  obs::TraceScope span("runtime.play");
  std::vector<StreamId> streams;
  streams.reserve(objects_.size());
  for (const auto& [oid, state] : objects_) {
    streams.push_back(oid);
  }
  if (streams.empty()) {
    return Status::Ok();
  }
  // Entries this call replays to reach the barrier = how far behind the
  // local views were (the playback-lag distribution).
  uint64_t played_here = 0;
  if (std::any_of(streams.begin(), streams.end(), [&](StreamId s) {
        return store_.SyncedTail(s) < limit;
      })) {
    TANGO_RETURN_IF_ERROR(store_.SyncAll(streams).status());
  }

  // Bring up the parallel apply engine lazily (playback_workers == 0 keeps
  // the single-threaded reference path; no threads are ever created then).
  if (engine_ == nullptr && PlaybackWorkers() > 0) {
    PlaybackEngine::Options eopts;
    eopts.workers = PlaybackWorkers();
    eopts.window = std::max<size_t>(1, options_.playback_window);
    engine_ = std::make_unique<PlaybackEngine>(eopts);
  }

  // Min-heap over (next offset, stream) cursors: finding the globally next
  // entry is O(log S) per entry instead of a linear scan of every hosted
  // stream.  Co-located streams surface together at the top of the heap and
  // step through a multiappended entry in lockstep, as before.
  using Cursor = std::pair<LogOffset, StreamId>;
  std::priority_queue<Cursor, std::vector<Cursor>, std::greater<Cursor>> heap;
  for (StreamId s : streams) {
    LogOffset next = store_.NextOffset(s);
    if (next != kInvalidOffset) {
      heap.emplace(next, s);
    }
  }

  Status status;
  std::vector<ObjectId> fresh;
  std::vector<PlaybackAccess> accesses;
  const obs::TraceContext trace_ctx = obs::CurrentTrace();
  while (!heap.empty()) {
    const LogOffset best = heap.top().first;
    if (best >= limit) {
      break;
    }

    // Overlap the next window's fetch with this window's apply: kick off a
    // background batched read on the engine's pool before fetching `best`
    // (which is usually already cached by the previous round's batch).
    if (engine_ != nullptr) {
      store_.StartAsyncPrefetch(best, limit, engine_->executor());
    }

    Result<std::shared_ptr<const corfu::LogEntry>> entry =
        store_.FetchEntry(best);

    // Consume the position only once the fetch has resolved: a transient
    // read error (dropped RPC, unreachable replica) must leave every cursor
    // in place so the retry replays this entry instead of skipping it.
    // kTrimmed is a terminal resolution — forgotten history is consumed.
    if (!entry.ok() && entry.status() != StatusCode::kTrimmed) {
      status = entry.status();
      break;
    }

    // Step every co-located stream through this position in lockstep, so a
    // multiappended record is observed exactly once.
    fresh.clear();
    while (!heap.empty() && heap.top().first == best) {
      StreamId s = heap.top().second;
      heap.pop();
      store_.AdvanceCursor(s);
      objects_[s].last_consumed = best;
      fresh.push_back(s);
      LogOffset next = store_.NextOffset(s);
      if (next != kInvalidOffset) {
        heap.emplace(next, s);
      }
    }
    stats_.entries_played.fetch_add(1, std::memory_order_relaxed);
    obs_entries_played_->Add();
    ++played_here;
    // Report the offset actually consumed (not the requested limit, which
    // playback may never reach when the tail moved or an error hits).
    playback_position_->Set(static_cast<int64_t>(best));

    if (!entry.ok()) {
      continue;  // forgotten (trimmed) history
    }
    if ((*entry)->is_junk()) {
      continue;
    }
    Result<std::vector<Record>> records = DecodeRecords((*entry)->payload);
    if (!records.ok()) {
      status = records.status();
      break;
    }

    // Dependency-tracked dispatch: entries whose access sets the tracker can
    // compute go to the engine, ordered only against conflicting earlier
    // entries.  Barrier entries (decision records, commits that would arm
    // the §4.1 stall) — and everything while a stall is armed — quiesce the
    // engine and take the sequential reference path.
    accesses.clear();
    const bool parallel = engine_ != nullptr && !barrier_tx_.has_value() &&
                          CollectAccesses(*records, fresh, &accesses);
    if (parallel) {
      obs_parallel_entries_->Add();
      auto recs = std::make_shared<const std::vector<Record>>(
          std::move(*records));
      engine_->Schedule(
          best, std::move(accesses),
          [this, best, recs, fresh_copy = fresh, trace_ctx] {
            return ApplyEntryParallel(best, *recs, fresh_copy, trace_ctx);
          });
    } else {
      if (engine_ != nullptr) {
        obs_barrier_quiesces_->Add();
        status = engine_->Quiesce();
        if (!status.ok()) {
          break;
        }
      }
      obs_sequential_entries_->Add();
      for (const Record& record : *records) {
        status = ProcessRecord(best, record, fresh);
        if (!status.ok()) {
          break;
        }
      }
      if (!status.ok()) {
        break;
      }
    }
  }

  // Drain outstanding applies (and surface any worker error) before the
  // caller observes the views; fold or await the last async fetch batch so
  // no background read outlives this playback round unobserved.
  if (engine_ != nullptr) {
    Status drained = engine_->Quiesce();
    if (status.ok()) {
      status = drained;
    }
    store_.DrainAsyncPrefetch(true);
  }
  if (!status.ok()) {
    return status;
  }
  play_lag_->Record(played_here);
  if (!barrier_tx_.has_value()) {
    // Nothing is stalled, so every stream's known offsets below `limit` are
    // applied, and its known offsets are complete up to its synced tail.
    LogOffset through = limit;
    for (StreamId s : streams) {
      through = std::min(through, store_.SyncedTail(s));
    }
    played_through_.store(through, std::memory_order_release);
  }
  CheckDecisionDeadlines();
  return Status::Ok();
}

bool TangoRuntime::CollectAccesses(const std::vector<Record>& records,
                                   const std::vector<ObjectId>& fresh,
                                   std::vector<PlaybackAccess>* accesses) const {
  auto is_fresh = [&fresh](ObjectId oid) {
    return std::find(fresh.begin(), fresh.end(), oid) != fresh.end();
  };
  for (const Record& record : records) {
    switch (record.type) {
      case RecordType::kUpdate: {
        const WriteOp& w = record.update.write;
        if (is_fresh(w.oid)) {
          accesses->push_back(
              PlaybackAccess{w.oid, w.has_key, w.key, /*write=*/true});
        }
        break;
      }
      case RecordType::kCommit: {
        const CommitRecord& c = record.commit;
        // An undecided commit with an unhosted read dep would arm the stall
        // barrier — a hard ordering point the engine must not reorder
        // around.  (Decided transactions skip validation entirely, so they
        // stay parallel even when unhosted reads are involved.)
        bool known;
        {
          std::lock_guard<std::mutex> lock(decision_mu_);
          known = decided_.contains(c.txid);
        }
        if (!known && !CanEvaluate(c)) {
          return false;
        }
        if (!known) {
          // Validation reads the version of every read dep; serialize
          // against earlier writes to those keys.
          for (const ReadDep& dep : c.reads) {
            accesses->push_back(
                PlaybackAccess{dep.oid, dep.has_key, dep.key, /*write=*/false});
          }
        }
        for (const WriteOp& w : c.writes) {
          if (is_fresh(w.oid)) {
            accesses->push_back(
                PlaybackAccess{w.oid, w.has_key, w.key, /*write=*/true});
          }
        }
        break;
      }
      case RecordType::kDecision:
        // Touches the dispatcher-only barrier machinery.
        return false;
      case RecordType::kCheckpoint:
        break;  // no live-playback effect
    }
  }
  return true;
}

Status TangoRuntime::ApplyEntryParallel(LogOffset offset,
                                        const std::vector<Record>& records,
                                        const std::vector<ObjectId>& fresh,
                                        obs::TraceContext trace_ctx) {
  // Parent this worker-side span under the dispatcher's runtime.play span.
  obs::TraceScope span("runtime.playback.task", trace_ctx, /*node=*/0);
  for (const Record& record : records) {
    switch (record.type) {
      case RecordType::kUpdate:
        ApplyUpdate(offset, record.update.write, fresh);
        break;
      case RecordType::kCommit: {
        TANGO_RETURN_IF_ERROR(ApplyCommit(offset, record.commit, fresh));
        break;
      }
      case RecordType::kDecision:
      case RecordType::kCheckpoint:
        break;  // never scheduled (decision) / no live effect (checkpoint)
    }
  }
  return Status::Ok();
}

Status TangoRuntime::ProcessRecord(LogOffset offset, const Record& record,
                                   const std::vector<ObjectId>& fresh) {
  // While a commit record awaits its decision, every other record queues
  // behind it so applies stay in strict log order (§4.1).
  if (barrier_tx_.has_value() && record.type != RecordType::kDecision) {
    stalled_.push_back(StalledRecord{offset, record, fresh});
    return Status::Ok();
  }

  switch (record.type) {
    case RecordType::kUpdate:
      ApplyUpdate(offset, record.update.write, fresh);
      return Status::Ok();
    case RecordType::kCommit:
      return ApplyCommit(offset, record.commit, fresh);
    case RecordType::kDecision: {
      TxId txid = record.decision.txid;
      {
        std::lock_guard<std::mutex> lock(decision_mu_);
        decided_.emplace(txid, record.decision.commit);
        awaited_decisions_.erase(txid);
      }
      if (barrier_tx_.has_value() && *barrier_tx_ == txid) {
        bool commit = record.decision.commit;
        if (commit) {
          ApplyWrites(barrier_offset_, barrier_commit_.writes, barrier_fresh_);
          stats_.commits.fetch_add(1, std::memory_order_relaxed);
        } else {
          stats_.aborts.fetch_add(1, std::memory_order_relaxed);
        }
        barrier_tx_.reset();
        // Drain the stalled pipeline; a queued commit may re-arm the barrier,
        // in which case the loop stops and the rest stays queued.
        while (!stalled_.empty() && !barrier_tx_.has_value()) {
          StalledRecord next = std::move(stalled_.front());
          stalled_.pop_front();
          TANGO_RETURN_IF_ERROR(
              ProcessRecord(next.offset, next.record, next.fresh));
        }
      }
      return Status::Ok();
    }
    case RecordType::kCheckpoint:
      // Redundant during live playback; consumed by LoadObject.
      return Status::Ok();
  }
  return Status(StatusCode::kInternal, "unknown record type");
}

bool TangoRuntime::CanEvaluate(const CommitRecord& commit) const {
  for (const ReadDep& dep : commit.reads) {
    if (!objects_.contains(dep.oid)) {
      return false;
    }
  }
  return true;
}

bool TangoRuntime::ValidateReads(const std::vector<ReadDep>& reads) const {
  for (const ReadDep& dep : reads) {
    auto it = objects_.find(dep.oid);
    if (it == objects_.end()) {
      return false;  // cannot vouch for an unhosted read
    }
    if (CurrentVersion(it->second, dep.has_key, dep.key) != dep.version) {
      return false;
    }
  }
  return true;
}

void TangoRuntime::ApplyUpdate(LogOffset offset, const WriteOp& w,
                               const std::vector<ObjectId>& fresh) {
  auto it = objects_.find(w.oid);
  if (it == objects_.end() ||
      std::find(fresh.begin(), fresh.end(), w.oid) == fresh.end()) {
    return;  // remote object, or this stream already played past here
  }
  obs::TraceScope span("runtime.apply");
  BumpVersion(it->second, offset, w.has_key, w.key);
  it->second.object->Apply(w.data, offset);
  stats_.updates_applied.fetch_add(1, std::memory_order_relaxed);
  obs_updates_applied_->Add();
}

void TangoRuntime::ApplyWrites(LogOffset offset,
                               const std::vector<WriteOp>& writes,
                               const std::vector<ObjectId>& fresh) {
  for (const WriteOp& w : writes) {
    ApplyUpdate(offset, w, fresh);
  }
}

Status TangoRuntime::ApplyCommit(LogOffset offset, const CommitRecord& commit,
                                 const std::vector<ObjectId>& fresh) {
  bool known;
  bool outcome;
  {
    std::lock_guard<std::mutex> lock(decision_mu_);
    auto decided = decided_.find(commit.txid);
    known = decided != decided_.end();
    outcome = known && decided->second;
  }

  if (!known) {
    if (!CanEvaluate(commit)) {
      // Some read-set object is not hosted here: stall until the decision
      // record arrives (Figure 6, App2).  Only the dispatcher reaches this
      // branch — CollectAccesses routes non-evaluable commits to the
      // sequential path, so a parallel worker never arms the barrier.
      barrier_tx_ = commit.txid;
      barrier_offset_ = offset;
      barrier_commit_ = commit;
      barrier_fresh_ = fresh;
      barrier_since_us_ = NowMicros();
      stats_.decision_stalls.fetch_add(1, std::memory_order_relaxed);
      return Status::Ok();
    }
    outcome = ValidateReads(commit.reads);
    {
      std::lock_guard<std::mutex> lock(decision_mu_);
      auto [it, inserted] = decided_.emplace(commit.txid, outcome);
      if (!inserted) {
        outcome = it->second;  // raced with EndTx recording its own outcome
      }
    }

    // If some other client might host a written object without hosting the
    // read set, it is waiting on a decision record.  The generator appends
    // it synchronously in EndTx; as a fallback, we (a read-set host) append
    // it after a timeout in case the generator crashed.
    bool is_ours = (commit.txid >> 32) == client_id_;
    if (!is_ours) {
      bool needs_decision = false;
      std::vector<StreamId> streams;
      for (const WriteOp& w : commit.writes) {
        auto it = objects_.find(w.oid);
        if (it == objects_.end() || it->second.config.needs_decision_records) {
          needs_decision = true;
        }
        if (std::find(streams.begin(), streams.end(), w.oid) ==
            streams.end()) {
          streams.push_back(w.oid);
        }
      }
      if (needs_decision) {
        AwaitedDecision awaited;
        awaited.commit = outcome;
        awaited.streams = std::move(streams);
        awaited.deadline_us =
            NowMicros() +
            static_cast<uint64_t>(options_.decision_timeout_ms) * 1000;
        std::lock_guard<std::mutex> lock(decision_mu_);
        awaited_decisions_.emplace(commit.txid, std::move(awaited));
      }
    }
  }

  if (outcome) {
    ApplyWrites(offset, commit.writes, fresh);
    stats_.commits.fetch_add(1, std::memory_order_relaxed);
  } else {
    stats_.aborts.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::Ok();
}

void TangoRuntime::CheckDecisionDeadlines() {
  // Collect due decisions under the lock, append outside it (AppendDecision
  // does log RPCs).  A due entry stays queued, with a fresh deadline, until
  // its append succeeds or a decision record for it plays, so a failed
  // append is retried after another timeout.
  std::vector<std::pair<TxId, AwaitedDecision>> due;
  {
    std::lock_guard<std::mutex> lock(decision_mu_);
    if (awaited_decisions_.empty()) {
      return;
    }
    uint64_t now = NowMicros();
    for (auto& [txid, awaited] : awaited_decisions_) {
      if (now >= awaited.deadline_us) {
        awaited.deadline_us =
            now + static_cast<uint64_t>(options_.decision_timeout_ms) * 1000;
        due.emplace_back(txid, awaited);
      }
    }
  }
  for (const auto& [txid, awaited] : due) {
    // The generator appears to have crashed before publishing its decision;
    // we host the read set, so we publish it (§4.1, Failure Handling).
    Status st = AppendDecision(txid, awaited.commit, awaited.streams);
    if (st.ok()) {
      stats_.decisions_appended.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(decision_mu_);
      awaited_decisions_.erase(txid);
    }
  }
}

Result<LogOffset> TangoRuntime::AppendRecord(Record record,
                                             std::vector<StreamId> streams) {
  if (batcher_ != nullptr) {
    return batcher_->Append(std::move(record), std::move(streams));
  }
  std::vector<uint8_t> payload = EncodeRecord(record);
  return log_->AppendToStreams(payload, streams);
}

Status TangoRuntime::AppendDecision(TxId txid, bool commit,
                                    const std::vector<StreamId>& streams) {
  Result<LogOffset> offset =
      AppendRecord(MakeDecisionRecord(txid, commit), streams);
  return offset.status();
}

// --- helpers -------------------------------------------------------------------

Status TangoRuntime::UpdateHelper(ObjectId oid, std::span<const uint8_t> data,
                                  std::optional<uint64_t> key) {
  TxContext& ctx = Tls();
  if (ctx.active) {
    WriteOp w;
    w.oid = oid;
    w.has_key = key.has_value();
    w.key = key.value_or(0);
    w.data.assign(data.begin(), data.end());
    ctx.writes.push_back(std::move(w));
    return Status::Ok();
  }
  Result<LogOffset> offset = AppendRecord(MakeUpdateRecord(oid, data, key),
                                          {oid});
  return offset.status();
}

Status TangoRuntime::QueryHelper(ObjectId oid, std::optional<uint64_t> key) {
  TxContext& ctx = Tls();
  if (ctx.active) {
    std::lock_guard<std::mutex> lock(playback_mu_);
    if (!objects_.contains(oid)) {
      // §4.1 D: transactions cannot read objects without a local view.
      return Status(StatusCode::kInvalidArgument,
                    "transactional read of unhosted object");
    }
    ReadDep dep;
    dep.oid = oid;
    dep.has_key = key.has_value();
    dep.key = key.value_or(0);
    dep.version = SnapshotVersionLocked(oid, key);
    for (const ReadDep& existing : ctx.reads) {
      if (existing.oid == dep.oid && existing.has_key == dep.has_key &&
          existing.key == dep.key) {
        return Status::Ok();  // first-read version already recorded
      }
    }
    ctx.reads.push_back(dep);
    return Status::Ok();
  }

  // Linearizable accessor: place a marker at the current tail and play all
  // hosted streams up to it (§3.1, Consistency).
  obs::TraceScope span("runtime.query");
  std::unique_lock<std::mutex> lock;
  TANGO_ASSIGN_OR_RETURN(LogOffset tail,
                         Barrier(lock, /*allow_played=*/true));
  if (!lock.owns_lock()) {
    // Nothing to fold or apply.  Overdue fallback decisions still go out, as
    // a playback round would send them.
    obs_played_queries_->Add();
    CheckDecisionDeadlines();
    return Status::Ok();
  }
  return PlayUntil(tail);
}

Result<LogOffset> TangoRuntime::Barrier(std::unique_lock<std::mutex>& lock,
                                        bool allow_played) {
  const std::vector<StreamId> streams = [this] {
    std::lock_guard<std::mutex> hosted_lock(hosted_mu_);
    return hosted_;
  }();
  // A failed ask fails the accessor rather than letting it return a stale
  // view as linearizable.
  Result<corfu::SequencerTailInfo> info = log_->StreamTails(streams);
  if (!info.ok()) {
    return info.status();
  }
  if (allow_played &&
      info->tail <= played_through_.load(std::memory_order_acquire)) {
    return info->tail;
  }
  lock = std::unique_lock<std::mutex>(playback_mu_);
  TANGO_RETURN_IF_ERROR(store_.Fold(streams, *info));
  return info->tail;
}

Status TangoRuntime::SyncTo(LogOffset limit) {
  std::lock_guard<std::mutex> lock(playback_mu_);
  return PlayUntil(limit);
}

// --- transactions ----------------------------------------------------------------

Status TangoRuntime::BeginTx() {
  TxContext& ctx = Tls();
  if (ctx.active) {
    return Status(StatusCode::kFailedPrecondition,
                  "nested transactions are not supported");
  }
  ctx.active = true;
  ctx.writes.clear();
  ctx.reads.clear();
  return Status::Ok();
}

void TangoRuntime::AbortTx() {
  TxContext& ctx = Tls();
  ctx.active = false;
  ctx.writes.clear();
  ctx.reads.clear();
}

bool TangoRuntime::InTx() const { return Tls().active; }

Status TangoRuntime::EndTx() {
  TxContext& ctx = Tls();
  // A non-empty commit lands in exactly one outcome counter, so
  // runtime.txn.attempts == commits + aborts + timeouts + errors.
  bool counted = ctx.active && (!ctx.writes.empty() || !ctx.reads.empty());
  obs::TraceScope span("txn.commit");
  if (counted) {
    txn_attempts_->Add();
  }
  uint64_t start_us =
      counted && obs::MetricsEnabled() ? NowMicros() : 0;
  Status st = EndTxImpl();
  if (start_us != 0 && (st.ok() || st == StatusCode::kAborted)) {
    // Aborts count against the objective too: a conflict retry is latency
    // the caller eats, not a free pass.
    obs::SloTracker::Default().Record(obs::SloOp::kTxnCommit,
                                      NowMicros() - start_us);
  }
  if (counted) {
    if (st.ok()) {
      txn_commits_->Add();
    } else if (st == StatusCode::kAborted) {
      txn_aborts_->Add();
    } else if (st == StatusCode::kTimeout) {
      txn_timeouts_->Add();
    } else {
      txn_errors_->Add();
    }
  }
  return st;
}

Status TangoRuntime::EndTxImpl() {
  TxContext& ctx = Tls();
  if (!ctx.active) {
    return Status(StatusCode::kFailedPrecondition, "no active transaction");
  }
  std::vector<WriteOp> writes = std::move(ctx.writes);
  std::vector<ReadDep> reads = std::move(ctx.reads);
  AbortTx();  // clear the context whatever happens below

  if (writes.empty() && reads.empty()) {
    return Status::Ok();
  }

  if (writes.empty()) {
    // Read-only transaction: no commit record; check the tail (one round
    // trip to the sequencer), play forward, validate locally (§3.2).
    std::unique_lock<std::mutex> lock;
    TANGO_ASSIGN_OR_RETURN(LogOffset tail, Barrier(lock));
    TANGO_RETURN_IF_ERROR(PlayUntil(tail));
    return ValidateReads(reads)
               ? Status::Ok()
               : Status(StatusCode::kAborted, "read-only validation failed");
  }

  TxId txid = NextTxId();
  std::vector<StreamId> streams;
  for (const WriteOp& w : writes) {
    if (std::find(streams.begin(), streams.end(), w.oid) == streams.end()) {
      streams.push_back(w.oid);
    }
  }

  // Does any client potentially host a written object without the read set?
  // Hosted objects say so via their config; writes to objects we do not host
  // are conservatively assumed to need a decision record.
  bool needs_decision = false;
  bool in_hosted_stream = false;
  {
    std::lock_guard<std::mutex> lock(playback_mu_);
    for (StreamId oid : streams) {
      auto it = objects_.find(oid);
      if (it == objects_.end() || it->second.config.needs_decision_records) {
        needs_decision = true;
      }
      if (it != objects_.end()) {
        in_hosted_stream = true;
      }
    }
    for (const ReadDep& dep : reads) {
      if (!objects_.contains(dep.oid)) {
        return Status(StatusCode::kInvalidArgument,
                      "transactional read of unhosted object");
      }
    }
  }

  Record commit_record = MakeCommitRecord(txid, std::move(writes), reads);
  Result<LogOffset> position = AppendRecord(commit_record, streams);
  if (!position.ok()) {
    return position.status();
  }

  bool committed;
  if (reads.empty()) {
    // Write-only transaction: commits unconditionally; no playback needed
    // before returning to the caller (§3.2).
    committed = true;
  } else {
    // Play forward to the commit position.  Outcomes:
    //   * our commit was processed via a hosted stream: use its decision;
    //   * the pipeline drained past our position without meeting it (pure
    //     remote-write): every hosted view sits exactly at the commit
    //     position, so validate the read set directly;
    //   * the pipeline is stalled behind an *earlier* undecided commit:
    //     queue our commit in order if no hosted stream carries it, then
    //     keep playing to the advancing tail so the blocking decision
    //     record (which lands *after* our position) gets processed.  The
    //     chain always unwinds — the earliest undecided commit's generator
    //     hosts its own read set and never stalls on itself.
    uint64_t deadline_us =
        NowMicros() + 2000ull * options_.decision_timeout_ms;
    bool inserted_manually = false;
    for (bool first = true;; first = false) {
      // The first round plays exactly to our commit; later ones follow the
      // tail so that a blocking decision record gets played too.
      std::unique_lock<std::mutex> lock;
      TANGO_ASSIGN_OR_RETURN(LogOffset tail, Barrier(lock));
      TANGO_RETURN_IF_ERROR(
          PlayUntil(first ? *position + 1 : std::max(*position + 1, tail)));
      {
        std::lock_guard<std::mutex> decision_lock(decision_mu_);
        auto it = decided_.find(txid);
        if (it != decided_.end()) {
          committed = it->second;
          break;
        }
      }
      if (!in_hosted_stream && !inserted_manually) {
        if (!barrier_tx_.has_value() || barrier_offset_ > *position) {
          committed = ValidateReads(reads);
          std::lock_guard<std::mutex> decision_lock(decision_mu_);
          decided_.emplace(txid, committed);
          break;
        }
        // Stalled below our position and no stream will deliver our commit
        // to this pipeline: inject it at its log position so it validates
        // in order once the barrier clears.
        TANGO_RETURN_IF_ERROR(ProcessRecord(*position, commit_record, {}));
        inserted_manually = true;
        continue;  // the injection may already have resolved
      }
      lock.unlock();
      if (NowMicros() > deadline_us) {
        return Status(StatusCode::kTimeout,
                      "commit blocked behind an undecided transaction");
      }
      // The blocking decision record is usually one append behind; poll
      // tightly so the pipeline restarts as soon as it lands.
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  if (needs_decision && !reads.empty()) {
    TANGO_RETURN_IF_ERROR(AppendDecision(txid, committed, streams));
  }
  return committed ? Status::Ok()
                   : Status(StatusCode::kAborted, "read-set conflict");
}

Status TangoRuntime::EndTxStale() {
  TxContext& ctx = Tls();
  if (!ctx.active) {
    return Status(StatusCode::kFailedPrecondition, "no active transaction");
  }
  if (!ctx.writes.empty()) {
    AbortTx();
    return Status(StatusCode::kInvalidArgument,
                  "stale-snapshot commit is read-only");
  }
  std::vector<ReadDep> reads = std::move(ctx.reads);
  AbortTx();
  std::lock_guard<std::mutex> lock(playback_mu_);
  return ValidateReads(reads)
             ? Status::Ok()
             : Status(StatusCode::kAborted, "stale snapshot conflicted");
}

// --- checkpoints & GC ---------------------------------------------------------------

Result<LogOffset> TangoRuntime::WriteCheckpoint(ObjectId oid) {
  std::vector<uint8_t> wrapped;
  LogOffset covered;
  {
    std::unique_lock<std::mutex> lock;
    TANGO_ASSIGN_OR_RETURN(LogOffset tail, Barrier(lock));
    auto it = objects_.find(oid);
    if (it == objects_.end()) {
      return Status(StatusCode::kNotFound, "oid not registered");
    }
    if (!it->second.object->SupportsCheckpoint()) {
      return Status(StatusCode::kInvalidArgument,
                    "object does not support checkpoints");
    }
    TANGO_RETURN_IF_ERROR(PlayUntil(tail));
    covered = it->second.last_consumed;
    wrapped = WrapCheckpoint(it->second.version, it->second.unkeyed_version,
                             it->second.key_versions,
                             it->second.object->Checkpoint());
  }
  std::vector<uint8_t> payload =
      EncodeRecord(MakeCheckpointRecord(oid, covered, std::move(wrapped)));
  return log_->AppendToStreams(payload, {oid});
}

Status TangoRuntime::LoadObject(ObjectId oid) {
  std::lock_guard<std::mutex> lock(playback_mu_);
  auto it = objects_.find(oid);
  if (it == objects_.end()) {
    return Status(StatusCode::kNotFound, "oid not registered");
  }
  // The view starts over from a checkpoint or from the beginning.
  played_through_.store(0, std::memory_order_release);
  Result<LogOffset> synced = store_.Sync(oid);
  if (!synced.ok()) {
    return synced.status();
  }
  const std::vector<LogOffset>& offsets = store_.KnownOffsets(oid);

  // Search newest-first for the latest checkpoint record, prefetching
  // backward so the scan batches its reads.
  bool history_trimmed = false;
  for (auto rit = offsets.rbegin(); rit != offsets.rend(); ++rit) {
    Result<std::shared_ptr<const corfu::LogEntry>> entry = store_.FetchEntry(
        *rit, corfu::StreamStore::PrefetchDirection::kBackward);
    if (!entry.ok()) {
      if (entry.status() == StatusCode::kTrimmed) {
        history_trimmed = true;
        break;  // nothing older survives
      }
      return entry.status();
    }
    if ((*entry)->is_junk()) {
      continue;
    }
    Result<std::vector<Record>> records = DecodeRecords((*entry)->payload);
    if (!records.ok()) {
      return records.status();
    }
    for (const Record& record : *records) {
      if (record.type != RecordType::kCheckpoint ||
          record.checkpoint.oid != oid) {
        continue;
      }
      // Restore the envelope: versions first, then the object snapshot.
      ByteReader r(record.checkpoint.state);
      ObjectState& state = it->second;
      state.version = r.GetU64();
      state.unkeyed_version = r.GetU64();
      uint32_t nkeys = r.GetU32();
      state.key_versions.clear();
      for (uint32_t i = 0; i < nkeys; ++i) {
        uint64_t key = r.GetU64();
        state.key_versions[key] = r.GetU64();
      }
      std::vector<uint8_t> snapshot = r.GetBlob();
      if (!r.ok()) {
        return Status(StatusCode::kInternal, "malformed checkpoint envelope");
      }
      state.object->Clear();
      state.object->Restore(snapshot);
      state.last_consumed = *rit;
      if (record.checkpoint.covered == kInvalidOffset) {
        store_.ResetCursor(oid);
      } else {
        store_.SeekCursorAfter(oid, record.checkpoint.covered);
      }
      return Status::Ok();
    }
  }

  if (history_trimmed) {
    return Status(StatusCode::kFailedPrecondition,
                  "stream history trimmed and no checkpoint found");
  }
  // No checkpoint: rebuild by full replay.
  ObjectState& state = it->second;
  state.object->Clear();
  state.version = kInvalidOffset;
  state.unkeyed_version = kInvalidOffset;
  state.key_versions.clear();
  state.last_consumed = kInvalidOffset;
  store_.ResetCursor(oid);
  return Status::Ok();
}

Status TangoRuntime::Forget(ObjectId oid, LogOffset offset) {
  std::lock_guard<std::mutex> lock(playback_mu_);
  if (!objects_.contains(oid)) {
    return Status(StatusCode::kNotFound, "oid not registered");
  }
  forget_offsets_[oid] = offset;
  LogOffset min_forget = kInvalidOffset;
  for (const auto& [id, state] : objects_) {
    auto it = forget_offsets_.find(id);
    LogOffset f = it == forget_offsets_.end() ? 0 : it->second;
    min_forget = std::min(min_forget, f);
  }
  if (min_forget == 0 || min_forget == kInvalidOffset) {
    return Status::Ok();
  }
  return log_->TrimPrefix(min_forget);
}

TangoRuntime::Stats TangoRuntime::stats() const {
  Stats s;
  s.commits = stats_.commits.load(std::memory_order_relaxed);
  s.aborts = stats_.aborts.load(std::memory_order_relaxed);
  s.updates_applied = stats_.updates_applied.load(std::memory_order_relaxed);
  s.entries_played = stats_.entries_played.load(std::memory_order_relaxed);
  s.decisions_appended =
      stats_.decisions_appended.load(std::memory_order_relaxed);
  s.decision_stalls = stats_.decision_stalls.load(std::memory_order_relaxed);
  return s;
}

}  // namespace tango
