#include "src/corfu/log_client.h"

#include "src/obs/slo.h"
#include "src/obs/trace.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "src/util/logging.h"
#include "src/util/threading.h"

namespace corfu {

using tango::ByteReader;
using tango::ByteWriter;
using tango::NodeId;
using tango::Result;
using tango::Status;
using tango::StatusCode;

Status StorageWrite(tango::Transport* t, NodeId node, Epoch epoch,
                    LogOffset local, const std::vector<uint8_t>& bytes) {
  ByteWriter w(16 + bytes.size());
  w.PutU32(epoch);
  w.PutU64(local);
  w.PutBlob(bytes);
  return t->Call(node, kStorageWrite, w.bytes(), nullptr);
}

Result<std::vector<uint8_t>> StorageRead(tango::Transport* t, NodeId node,
                                         Epoch epoch, LogOffset local) {
  ByteWriter w(12);
  w.PutU32(epoch);
  w.PutU64(local);
  std::vector<uint8_t> resp;
  Status st = t->Call(node, kStorageRead, w.bytes(), &resp);
  if (!st.ok()) {
    return st;
  }
  ByteReader r(resp);
  std::vector<uint8_t> page = r.GetBlob();
  if (!r.ok()) {
    return Status(StatusCode::kInternal, "malformed read response");
  }
  return page;
}

Result<LogOffset> StorageLocalTail(tango::Transport* t, NodeId node,
                                   Epoch epoch) {
  ByteWriter w(4);
  w.PutU32(epoch);
  std::vector<uint8_t> resp;
  TANGO_RETURN_IF_ERROR(t->Call(node, kStorageLocalTail, w.bytes(), &resp));
  ByteReader r(resp);
  return r.GetU64();
}

namespace {

tango::RetryPolicy MakeRetryPolicy(const CorfuClient::Options& options) {
  tango::RetryPolicy::Options retry = options.retry;
  retry.max_attempts = options.max_epoch_retries;
  return tango::RetryPolicy(retry);
}

}  // namespace

CorfuClient::CorfuClient(tango::Transport* transport, NodeId projection_store,
                         Options options)
    : transport_(transport),
      projection_store_(projection_store),
      options_(options),
      retry_(MakeRetryPolicy(options)) {
  auto& reg = tango::obs::MetricsRegistry::Default();
  appends_ = reg.GetCounter("log.appends");
  append_retries_ = reg.GetCounter("log.append_retries");
  fills_ = reg.GetCounter("log.fills");
  epoch_refreshes_ = reg.GetCounter("log.epoch_refreshes");
  hole_timeouts_ = reg.GetCounter("log.hole_timeouts");
  busy_backoffs_ = reg.GetCounter("overload.client.busy_backoffs");
  unwritten_reads_ = reg.GetCounter("log.read.unwritten");
  completion_waits_ = reg.GetCounter("log.hole.completion_waits");
  hole_polls_ = reg.GetCounter("log.hole.polls");
  append_latency_ = reg.GetHistogram("log.append.latency_us");
  Status st = RefreshProjection();
  TANGO_CHECK(st.ok()) << "initial projection fetch failed: " << st.ToString();
}

CorfuClient::~CorfuClient() { pipeline_.reset(); }

AppendPipeline& CorfuClient::pipeline() {
  std::call_once(pipeline_once_, [&] {
    pipeline_ = std::make_unique<AppendPipeline>(this, options_.pipeline);
  });
  return *pipeline_;
}

AppendPipeline::Handle CorfuClient::AppendAsync(
    std::span<const uint8_t> payload, std::vector<StreamId> streams,
    AppendPipeline::Completion completion) {
  return pipeline().Submit(payload, std::move(streams), std::move(completion));
}

Projection CorfuClient::Snapshot() const {
  std::shared_lock<std::shared_mutex> lock(projection_mu_);
  return projection_;
}

Projection CorfuClient::projection() const { return Snapshot(); }

Status CorfuClient::RefreshProjection() {
  Result<Projection> p = FetchProjection(transport_, projection_store_);
  if (!p.ok()) {
    return p.status();
  }
  std::unique_lock<std::shared_mutex> lock(projection_mu_);
  if (p->epoch >= projection_.epoch) {
    projection_ = std::move(p).value();
  }
  return Status::Ok();
}

Status CorfuClient::WithEpochRetry(
    const std::function<Status(const Projection&)>& op) {
  // kSealedEpoch means our projection is stale; kUnavailable may mean the
  // node we are calling was replaced by a reconfiguration we have not seen
  // yet.  Both refresh and retry with backoff.
  auto retryable = [](const Status& st) {
    return st == StatusCode::kSealedEpoch || st == StatusCode::kUnavailable ||
           st == StatusCode::kTimeout;
  };
  tango::RetryPolicy::Attempt attempt = retry_.Begin();
  Status st = op(Snapshot());
  while (retryable(st) && attempt.ShouldRetry()) {
    epoch_refreshes_->Add();
    TANGO_RETURN_IF_ERROR(RefreshProjection());
    st = op(Snapshot());
    if (retryable(st)) {
      // A reconfiguration is mid-flight (sealed but not yet proposed); back
      // off — with jitter, so the retrying herd does not stampede the
      // projection store in lockstep — and let it land.
      attempt.BackoffSleep();
    }
  }
  return st;
}

Status CorfuClient::ChainWrite(const Projection& p, LogOffset offset,
                               const std::vector<uint8_t>& bytes) {
  const std::vector<NodeId>& chain = p.ChainFor(offset);
  LogOffset local = p.LocalOffsetFor(offset);

  // Write the head first; it decides who owns the offset.
  Status head = StorageWrite(transport_, chain[0], p.epoch, local, bytes);
  if (!head.ok() && head != StatusCode::kWritten) {
    return head;
  }

  const std::vector<uint8_t>* value = &bytes;
  std::vector<uint8_t> winner;
  if (head == StatusCode::kWritten) {
    // Someone else owns this offset.  Complete the chain with *their* value
    // so the tail converges, then report the loss.
    Result<std::vector<uint8_t>> existing =
        StorageRead(transport_, chain[0], p.epoch, local);
    if (!existing.ok()) {
      return existing.status();
    }
    winner = std::move(existing).value();
    value = &winner;
  }

  for (size_t i = 1; i < chain.size(); ++i) {
    Status st = StorageWrite(transport_, chain[i], p.epoch, local, *value);
    if (!st.ok() && st != StatusCode::kWritten) {
      return st;
    }
  }
  return head;  // OK if we won, kWritten if we lost
}

Result<std::vector<uint8_t>> CorfuClient::ChainRead(const Projection& p,
                                                    LogOffset offset) {
  const std::vector<NodeId>& chain = p.ChainFor(offset);
  LogOffset local = p.LocalOffsetFor(offset);
  return StorageRead(transport_, chain.back(), p.epoch, local);
}

Result<LogOffset> CorfuClient::Append(std::span<const uint8_t> payload) {
  return AppendToStreams(payload, {});
}

Result<LogOffset> CorfuClient::AppendToStreams(
    std::span<const uint8_t> payload, const std::vector<StreamId>& streams) {
  tango::obs::TraceScope span("log.append");
  uint64_t start_us = tango::obs::MetricsEnabled() ? tango::NowMicros() : 0;
  tango::RetryPolicy::Attempt attempt = retry_.Begin();
  for (bool first = true;; first = false) {
    if (!first) {
      if (!attempt.ShouldRetry()) {
        break;
      }
      append_retries_->Add();
    }
    Projection p = Snapshot();
    Result<SequencerGrant> grant = GrantTokens(p, /*count=*/1, streams);
    if (!grant.ok()) {
      if (grant.status() == StatusCode::kBusy) {
        // The sequencer shed the grant: it is alive, just overloaded.  Honor
        // its retry-after hint (jittered) instead of refreshing anything.
        busy_backoffs_->Add();
        attempt.BackoffSleep(grant.status().retry_after_us());
        continue;
      }
      if (grant.status() == StatusCode::kSealedEpoch ||
          grant.status() == StatusCode::kUnavailable ||
          grant.status() == StatusCode::kTimeout) {
        // Sealed, or the sequencer died: refresh and retry on the (possibly
        // reconfigured) projection after a jittered backoff.
        TANGO_RETURN_IF_ERROR(RefreshProjection());
        attempt.BackoffSleep();
        continue;
      }
      return grant.status();
    }
    // This attempt owns the offset until it returns or moves on to a fresh
    // token; readers waiting on it are released either way.
    struct Release {
      CorfuClient* client;
      LogOffset offset;
      ~Release() { client->ReleaseOffset(offset); }
    } release{this, grant->start};

    LogEntry entry;
    entry.epoch = p.epoch;
    entry.type = EntryType::kData;
    entry.headers.reserve(streams.size());
    for (size_t i = 0; i < streams.size(); ++i) {
      StreamHeader h;
      h.stream = streams[i];
      h.backpointers = grant->backpointers()[i];
      while (h.backpointers.size() < p.backpointer_count) {
        h.backpointers.push_back(kInvalidOffset);
      }
      entry.headers.push_back(std::move(h));
    }
    entry.payload.assign(payload.begin(), payload.end());

    Result<std::vector<uint8_t>> encoded = EncodeEntry(entry, grant->start);
    if (!encoded.ok()) {
      return encoded.status();
    }
    if (encoded->size() > p.page_size) {
      return Status(StatusCode::kOutOfRange, "entry exceeds page size");
    }

    Status st = ChainWrite(p, grant->start, *encoded);
    if (st.ok()) {
      appends_->Add();
      if (start_us != 0) {
        uint64_t latency_us = tango::NowMicros() - start_us;
        append_latency_->Record(latency_us);
        tango::obs::SloTracker::Default().Record(tango::obs::SloOp::kAppend,
                                                 latency_us);
      }
      return grant->start;
    }
    if (st == StatusCode::kWritten || st == StatusCode::kTrimmed) {
      // Lost the offset (a filler beat us after a stall, or GC passed us by).
      // Grab a fresh offset and try again immediately — no cool-down needed,
      // just a fresh token.
      attempt.CountAttempt();
      continue;
    }
    if (st == StatusCode::kSealedEpoch) {
      TANGO_RETURN_IF_ERROR(RefreshProjection());
      continue;
    }
    if (st == StatusCode::kUnavailable || st == StatusCode::kTimeout) {
      // A chain node died (or a partition swallowed the write): refresh —
      // a HealthMonitor may already have reconfigured around it — back off
      // and retry on the surviving chain.
      TANGO_RETURN_IF_ERROR(RefreshProjection());
      attempt.BackoffSleep();
      continue;
    }
    return st;
  }
  return Status(StatusCode::kTimeout, "append retries exhausted");
}

Result<LogEntry> CorfuClient::Read(LogOffset offset) {
  tango::obs::TraceScope span("log.read");
  uint64_t start_us = tango::obs::MetricsEnabled() ? tango::NowMicros() : 0;
  std::vector<uint8_t> page;
  Status st = WithEpochRetry([&](const Projection& p) {
    Result<std::vector<uint8_t>> r = ChainRead(p, offset);
    if (r.ok()) {
      page = std::move(r).value();
    }
    return r.status();
  });
  if (!st.ok()) {
    return st;
  }
  if (start_us != 0) {
    tango::obs::SloTracker::Default().Record(
        tango::obs::SloOp::kRead, tango::NowMicros() - start_us);
  }
  return DecodeEntry(page, offset);
}

Result<std::vector<CorfuClient::BatchedRead>> CorfuClient::ReadBatch(
    std::span<const LogOffset> offsets) {
  tango::obs::TraceScope span("log.read_batch");
  uint64_t start_us = tango::obs::MetricsEnabled() ? tango::NowMicros() : 0;
  std::vector<BatchedRead> out(offsets.size());
  if (offsets.empty()) {
    return out;
  }
  // Indices into `offsets` still awaiting a result.  A sealed or unreachable
  // sub-batch re-queues only its own indices for the next attempt.
  std::vector<size_t> pending(offsets.size());
  for (size_t i = 0; i < pending.size(); ++i) {
    pending[i] = i;
  }
  Status last_retryable = Status::Ok();
  tango::RetryPolicy::Attempt attempt = retry_.Begin();
  for (bool first = true;; first = false) {
    if (!first) {
      if (!attempt.ShouldRetry()) {
        break;
      }
      TANGO_RETURN_IF_ERROR(RefreshProjection());
      attempt.BackoffSleep();
    }
    Projection p = Snapshot();

    // Group the pending offsets per replica set; each group is one RPC to
    // that chain's tail.
    std::vector<std::vector<size_t>> groups(p.replica_sets.size());
    for (size_t idx : pending) {
      groups[p.SetIndexFor(offsets[idx])].push_back(idx);
    }
    std::vector<const std::vector<size_t>*> live;
    for (const std::vector<size_t>& g : groups) {
      if (!g.empty()) {
        live.push_back(&g);
      }
    }

    std::vector<Status> rpc_status(live.size());
    std::vector<std::vector<uint8_t>> rpc_resp(live.size());
    ParallelDispatch(tango::ThreadPool::Shared(), live.size(), [&](size_t g) {
      const std::vector<size_t>& group = *live[g];
      ByteWriter w(8 + 8 * group.size());
      w.PutU32(p.epoch);
      w.PutU32(static_cast<uint32_t>(group.size()));
      for (size_t idx : group) {
        w.PutU64(p.LocalOffsetFor(offsets[idx]));
      }
      const std::vector<NodeId>& chain = p.ChainFor(offsets[group[0]]);
      rpc_status[g] = transport_->Call(chain.back(), kStorageReadBatch,
                                       w.bytes(), &rpc_resp[g]);
    });

    pending.clear();
    for (size_t g = 0; g < live.size(); ++g) {
      const std::vector<size_t>& group = *live[g];
      const Status& st = rpc_status[g];
      if (st == StatusCode::kSealedEpoch || st == StatusCode::kUnavailable ||
          st == StatusCode::kTimeout) {
        last_retryable = st;
        pending.insert(pending.end(), group.begin(), group.end());
        continue;
      }
      if (!st.ok()) {
        return st;  // hard error: malformed request, internal fault, ...
      }
      ByteReader r(rpc_resp[g]);
      uint32_t count = r.GetU32();
      if (!r.ok() || count != group.size()) {
        return Status(StatusCode::kInternal, "malformed batch read response");
      }
      for (size_t idx : group) {
        StatusCode code = static_cast<StatusCode>(r.GetU8());
        if (code != StatusCode::kOk) {
          out[idx].status = Status(code);
          continue;
        }
        std::vector<uint8_t> page = r.GetBlob();
        if (!r.ok()) {
          return Status(StatusCode::kInternal,
                        "malformed batch read response");
        }
        Result<LogEntry> entry = DecodeEntry(page, offsets[idx]);
        if (entry.ok()) {
          out[idx].status = Status::Ok();
          out[idx].entry = std::move(entry).value();
        } else {
          out[idx].status = entry.status();
        }
      }
    }
    if (pending.empty()) {
      if (start_us != 0) {
        // One SLO sample per batch: a batched read is one user-visible
        // operation regardless of how many offsets it covers.
        tango::obs::SloTracker::Default().Record(
            tango::obs::SloOp::kRead, tango::NowMicros() - start_us);
      }
      return out;
    }
  }
  return last_retryable.ok()
             ? Status(StatusCode::kTimeout, "read batch retries exhausted")
             : last_retryable;
}

Result<SequencerGrant> CorfuClient::GrantTokens(
    const Projection& p, uint32_t count, const std::vector<StreamId>& streams) {
  // The ticket covers the window between the sequencer granting an offset
  // (readers can see it in the tail from then on) and the reply reaching us.
  uint64_t ticket;
  {
    std::lock_guard<std::mutex> lock(own_mu_);
    ticket = next_grant_ticket_++;
    grants_inflight_.insert(ticket);
  }
  Result<SequencerGrant> grant =
      SequencerNext(transport_, p.sequencer, p.epoch, count, streams);
  std::lock_guard<std::mutex> lock(own_mu_);
  grants_inflight_.erase(ticket);
  if (grant.ok()) {
    for (uint32_t t = 0; t < count; ++t) {
      own_pending_.insert(grant->start + t);
    }
    granted_through_ = std::max(granted_through_, grant->start + count);
  }
  if (own_waiters_ > 0) {
    own_cv_.notify_all();
  }
  return grant;
}

void CorfuClient::ReleaseOffset(LogOffset offset) {
  std::lock_guard<std::mutex> lock(own_mu_);
  own_pending_.erase(offset);
  if (own_waiters_ > 0) {
    own_cv_.notify_all();
  }
}

CorfuClient::OwnProbe CorfuClient::ProbeOwn(LogOffset offset,
                                            bool all_grants) {
  std::lock_guard<std::mutex> lock(own_mu_);
  OwnProbe probe;
  probe.pending = own_pending_.contains(offset);
  if (!grants_inflight_.empty() &&
      (all_grants || offset >= granted_through_)) {
    probe.grants = next_grant_ticket_;
  }
  return probe;
}

bool CorfuClient::AwaitOwnWriteUntil(LogOffset offset, const OwnProbe& probe,
                                     uint64_t deadline_us) {
  if (!probe.pending && probe.grants == 0) {
    return false;
  }
  const auto until = std::chrono::steady_clock::time_point(
      std::chrono::microseconds(deadline_us));
  std::unique_lock<std::mutex> lock(own_mu_);
  auto own = [&] { return own_pending_.contains(offset); };
  auto grants_landed = [&] {
    return grants_inflight_.empty() ||
           *grants_inflight_.begin() >= probe.grants;
  };
  ++own_waiters_;
  own_cv_.wait_until(lock, until, [&] { return own() || grants_landed(); });
  const bool is_own = probe.pending || own();
  if (own() && tango::NowMicros() < deadline_us) {
    completion_waits_->Add();
    own_cv_.wait_until(lock, until, [&] { return !own(); });
  }
  --own_waiters_;
  return is_own;
}

uint64_t CorfuClient::AwaitOwnWrite(LogOffset offset) {
  const OwnProbe probe = ProbeOwn(offset, /*all_grants=*/false);
  if (!probe.pending && probe.grants == 0) {
    return 0;
  }
  const uint64_t deadline =
      tango::NowMicros() +
      static_cast<uint64_t>(options_.hole_timeout_ms) * 1000;
  (void)AwaitOwnWriteUntil(offset, probe, deadline);
  return deadline;
}

Result<LogEntry> CorfuClient::ReadRepair(LogOffset offset,
                                         uint64_t deadline_us) {
  auto unwritten = [&](const Result<LogEntry>& r) {
    if (r.ok() || r.status() != StatusCode::kUnwritten) {
      return false;
    }
    unwritten_reads_->Add();
    return true;
  };
  // Probed before the read: an own write that ends between the read and the
  // wait below is still recognised as ours.
  const OwnProbe probe = ProbeOwn(offset, /*all_grants=*/true);
  Result<LogEntry> entry = Read(offset);
  if (!unwritten(entry)) {
    return entry;
  }
  const uint64_t deadline =
      deadline_us != 0
          ? deadline_us
          : tango::NowMicros() +
                static_cast<uint64_t>(options_.hole_timeout_ms) * 1000;
  // Our own write still in flight: wait for its completion, then read once.
  if (AwaitOwnWriteUntil(offset, probe, deadline)) {
    entry = Read(offset);
    if (!unwritten(entry)) {
      return entry;
    }
  }
  // Another client's straggling writer: poll until the timeout, then declare
  // a hole and fill it.
  while (tango::NowMicros() < deadline) {
    hole_polls_->Add();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    entry = Read(offset);
    if (!unwritten(entry)) {
      return entry;
    }
  }
  hole_timeouts_->Add();
  TANGO_RETURN_IF_ERROR(Fill(offset));
  return Read(offset);
}

Result<LogOffset> CorfuClient::CheckTail() {
  LogOffset tail = 0;
  Status st = WithEpochRetry([&](const Projection& p) -> Status {
    Result<SequencerTailInfo> info =
        SequencerTail(transport_, p.sequencer, p.epoch, {});
    if (!info.ok()) {
      return info.status();
    }
    tail = info->tail;
    return Status::Ok();
  });
  if (!st.ok()) {
    return st;
  }
  return tail;
}

Result<LogOffset> CorfuClient::CheckTailSlow() {
  Projection p = Snapshot();
  LogOffset tail = 0;
  for (size_t set = 0; set < p.replica_sets.size(); ++set) {
    Result<LogOffset> local_tail =
        StorageLocalTail(transport_, p.replica_sets[set].back(), p.epoch);
    if (!local_tail.ok()) {
      return local_tail.status();
    }
    if (*local_tail > 0) {
      tail = std::max(tail, p.GlobalOffsetFor(set, *local_tail - 1) + 1);
    }
  }
  return tail;
}

Status CorfuClient::Trim(LogOffset offset) {
  return WithEpochRetry([&](const Projection& p) -> Status {
    const std::vector<NodeId>& chain = p.ChainFor(offset);
    LogOffset local = p.LocalOffsetFor(offset);
    ByteWriter w(12);
    w.PutU32(p.epoch);
    w.PutU64(local);
    for (NodeId node : chain) {
      TANGO_RETURN_IF_ERROR(
          transport_->Call(node, kStorageTrim, w.bytes(), nullptr));
    }
    return Status::Ok();
  });
}

Status CorfuClient::TrimPrefix(LogOffset limit) {
  return WithEpochRetry([&](const Projection& p) -> Status {
    size_t num_sets = p.replica_sets.size();
    for (size_t set = 0; set < num_sets; ++set) {
      // Local offsets below this limit map to global offsets < limit.
      LogOffset local_limit =
          limit > set ? (limit - set + num_sets - 1) / num_sets : 0;
      ByteWriter w(12);
      w.PutU32(p.epoch);
      w.PutU64(local_limit);
      for (NodeId node : p.replica_sets[set]) {
        TANGO_RETURN_IF_ERROR(
            transport_->Call(node, kStorageTrimPrefix, w.bytes(), nullptr));
      }
    }
    return Status::Ok();
  });
}

Status CorfuClient::Fill(LogOffset offset) {
  fills_->Add();
  return WithEpochRetry([&](const Projection& p) -> Status {
    std::vector<uint8_t> junk = EncodeJunkEntry(p.epoch);
    Status st = ChainWrite(p, offset, junk);
    if (st == StatusCode::kWritten) {
      return Status::Ok();  // a real value won; hole resolved either way
    }
    return st;
  });
}

Result<SequencerTailInfo> CorfuClient::StreamTails(
    const std::vector<StreamId>& streams) {
  SequencerTailInfo out;
  Status st = WithEpochRetry([&](const Projection& p) -> Status {
    Result<SequencerTailInfo> info =
        SequencerTail(transport_, p.sequencer, p.epoch, streams);
    if (!info.ok()) {
      return info.status();
    }
    out = std::move(info).value();
    return Status::Ok();
  });
  if (!st.ok()) {
    return st;
  }
  return out;
}

Result<std::unordered_map<StreamId, StreamTail>>
CorfuClient::RebuildSequencerState(uint64_t max_entries) {
  Result<LogOffset> tail = CheckTailSlow();
  if (!tail.ok()) {
    return tail.status();
  }
  Projection p = Snapshot();
  std::unordered_map<StreamId, StreamTail> state;
  uint64_t scanned = 0;
  for (LogOffset o = *tail; o > 0 && scanned < max_entries; --o, ++scanned) {
    Result<LogEntry> entry = Read(o - 1);
    if (!entry.ok()) {
      if (entry.status() == StatusCode::kTrimmed) {
        break;  // everything below is gone
      }
      continue;  // unwritten hole mid-log: skip
    }
    for (const StreamHeader& h : entry->headers) {
      StreamTail& t = state[h.stream];
      if (t.size() < p.backpointer_count) {
        t.push_back(o - 1);  // backward scan yields most-recent-first order
      }
    }
    if (entry->FindHeader(kSequencerStateStream) != nullptr) {
      // A sequencer checkpoint: everything older is summarized here, so the
      // scan stops.  Offsets collected above (newer) take precedence; the
      // checkpoint backfills each stream's list up to K.
      ByteReader r(entry->payload);
      Result<Sequencer::DumpedState> dump = DecodeSequencerState(r);
      if (dump.ok()) {
        for (auto& [stream, offsets] : dump->streams) {
          StreamTail& t = state[stream];
          for (LogOffset older : offsets) {
            if (t.size() >= p.backpointer_count) {
              break;
            }
            if (t.empty() || older < t.back()) {
              t.push_back(older);
            }
          }
        }
        break;
      }
    }
  }
  return state;
}

Result<LogOffset> CorfuClient::WriteSequencerCheckpoint() {
  Projection p = Snapshot();
  Result<Sequencer::DumpedState> dump =
      SequencerDump(transport_, p.sequencer, p.epoch);
  if (!dump.ok()) {
    return dump.status();
  }
  ByteWriter w;
  EncodeSequencerState(dump->tail, dump->streams, w);
  return AppendToStreams(w.bytes(), {kSequencerStateStream});
}

Result<SealedTails> SealAll(tango::Transport* transport,
                            const Projection& next) {
  SealedTails tails;
  tails.local.resize(next.replica_sets.size());
  ByteWriter w(4);
  w.PutU32(next.epoch);
  for (size_t set = 0; set < next.replica_sets.size(); ++set) {
    for (tango::NodeId node : next.replica_sets[set]) {
      std::vector<uint8_t> resp;
      TANGO_RETURN_IF_ERROR(
          transport->Call(node, kStorageSeal, w.bytes(), &resp));
      ByteReader r(resp);
      LogOffset local_tail = r.GetU64();
      tails.local[set].push_back(local_tail);
      if (local_tail > 0) {
        tails.global_tail = std::max(
            tails.global_tail, next.GlobalOffsetFor(set, local_tail - 1) + 1);
      }
    }
  }
  return tails;
}

Status Reconfigure(CorfuClient* client,
                   const std::function<void(Projection&)>& mutate,
                   uint64_t rebuild_scan_limit) {
  // Rebuild stream state from the log *before* sealing (reads still work
  // either way, but this keeps the sealed window short).  A kSealedEpoch
  // here means the storage is sealed above our (stale or reset) projection
  // epoch — tolerate it and redo the rebuild once the new projection is
  // installed and our reads carry a current epoch.
  Result<std::unordered_map<StreamId, StreamTail>> state =
      client->RebuildSequencerState(rebuild_scan_limit);
  if (!state.ok() &&
      state.status().code() != tango::StatusCode::kSealedEpoch) {
    return state.status();
  }

  Projection current = client->projection();
  Projection next = current;
  mutate(next);
  next.epoch = current.epoch + 1;

  // A durable store's seal records outlive an in-memory projection store:
  // after a daemon restart the nodes may already be sealed above the epoch
  // this client believes is current.  Discover the highest sealed epoch so
  // the new epoch fences it; nodes that cannot answer are left to the seal
  // round below, which reports the real failure.
  for (size_t set = 0; set < next.replica_sets.size(); ++set) {
    for (tango::NodeId node : next.replica_sets[set]) {
      std::vector<uint8_t> resp;
      Status st = client->transport()->Call(node, kStorageSealedEpoch, {},
                                            &resp);
      if (!st.ok()) {
        continue;
      }
      ByteReader r(resp);
      Epoch sealed = r.GetU32();
      if (sealed >= next.epoch) {
        next.epoch = sealed + 1;
      }
    }
  }

  // Seal every storage node at the new epoch, collecting tails.
  Result<SealedTails> tails = SealAll(client->transport(), next);
  if (!tails.ok()) {
    return tails.status();
  }

  // Install the new projection; if we lose the race, adopt the winner and
  // report the conflict to the caller.
  Status proposed =
      ProposeProjection(client->transport(), client->projection_store(), next);
  if (!proposed.ok()) {
    (void)client->RefreshProjection();
    return proposed;
  }

  // Redo a rebuild that was fenced by a pre-existing seal, now that the
  // installed projection gives our reads the sealed epoch.
  TANGO_RETURN_IF_ERROR(client->RefreshProjection());
  if (!state.ok()) {
    state = client->RebuildSequencerState(rebuild_scan_limit);
    if (!state.ok()) {
      return state.status();
    }
  }

  // Bring the (possibly new) sequencer up to speed: sealed tail plus the
  // backpointer state recovered from the log.
  return SequencerBootstrap(client->transport(), next.sequencer, next.epoch,
                            tails->global_tail, *state);
}

}  // namespace corfu
