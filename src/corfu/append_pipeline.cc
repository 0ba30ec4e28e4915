#include "src/corfu/append_pipeline.h"

#include <algorithm>
#include <utility>

#include "src/corfu/entry.h"
#include "src/corfu/log_client.h"
#include "src/obs/flight.h"
#include "src/util/retry.h"
#include "src/util/threading.h"

namespace corfu {

using tango::Result;
using tango::Status;
using tango::StatusCode;

struct AppendPipeline::Handle::State {
  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  Status status = Status::Ok();
  LogOffset offset = kInvalidOffset;
};

Status AppendPipeline::Handle::Wait() const {
  std::unique_lock<std::mutex> lock(state_->m);
  state_->cv.wait(lock, [&] { return state_->done; });
  return state_->status;
}

LogOffset AppendPipeline::Handle::offset() const {
  std::lock_guard<std::mutex> lock(state_->m);
  return state_->offset;
}

AppendPipeline::AppendPipeline(CorfuClient* client, Options options)
    : client_(client), options_(options) {
  options_.window = std::max(options_.window, 1u);
  options_.grant_batch =
      std::clamp(options_.grant_batch, 1u, kMaxGrantBatch);
  cwnd_ = static_cast<double>(options_.window);
  auto& reg = tango::obs::MetricsRegistry::Default();
  depth_gauge_ = reg.GetGauge("log.pipeline.depth");
  grant_rpcs_ = reg.GetCounter("log.pipeline.grant_rpcs");
  tokens_granted_ = reg.GetCounter("log.pipeline.tokens_granted");
  abandoned_counter_ = reg.GetCounter("log.pipeline.tokens_abandoned");
  grant_batch_hist_ = reg.GetHistogram("log.pipeline.grant_batch");
  grant_stage_us_ = reg.GetHistogram("log.append.stage.grant_us");
  write_stage_us_ = reg.GetHistogram("log.append.stage.write_us");
  cwnd_gauge_ = reg.GetGauge("overload.pipeline.cwnd");
  busy_counter_ = reg.GetCounter("overload.pipeline.busy");
  cwnd_gauge_->Set(static_cast<int64_t>(cwnd_));
  workers_.reserve(options_.window);
  for (uint32_t i = 0; i < options_.window; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

uint32_t AppendPipeline::WindowLimitLocked() const {
  return std::max(1u, static_cast<uint32_t>(cwnd_));
}

uint32_t AppendPipeline::window_limit() const {
  std::lock_guard<std::mutex> lock(mu_);
  return WindowLimitLocked();
}

void AppendPipeline::ShrinkWindow() {
  std::lock_guard<std::mutex> lock(mu_);
  cwnd_ = std::max(1.0, cwnd_ / 2.0);
  cwnd_gauge_->Set(static_cast<int64_t>(cwnd_));
}

void AppendPipeline::GrowWindow() {
  std::lock_guard<std::mutex> lock(mu_);
  if (cwnd_ < static_cast<double>(options_.window)) {
    cwnd_ = std::min(static_cast<double>(options_.window),
                     cwnd_ + 1.0 / std::max(cwnd_, 1.0));
    // The window may have widened past the current depth; admit a blocked
    // submitter.
    window_cv_.notify_one();
  }
  cwnd_gauge_->Set(static_cast<int64_t>(cwnd_));
}

AppendPipeline::~AppendPipeline() { Shutdown(); }

AppendPipeline::Handle AppendPipeline::Submit(
    std::span<const uint8_t> payload, std::vector<StreamId> streams,
    Completion completion) {
  Handle handle;
  handle.state_ = std::make_shared<Handle::State>();

  // Fail oversized records up front — before they consume a window slot or a
  // sequencer token that would become a junk hole.
  Projection p = client_->Snapshot();
  if (EntryOverheadBound(streams.size(), p.backpointer_count) +
          payload.size() >
      p.page_size) {
    Work reject;
    reject.state = handle.state_;
    reject.completion = std::move(completion);
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.submitted;
    }
    Complete(reject, Status(StatusCode::kOutOfRange, "entry exceeds page size"),
             kInvalidOffset);
    return handle;
  }

  Work work;
  work.payload.assign(payload.begin(), payload.end());
  work.streams = std::move(streams);
  work.state = handle.state_;
  work.completion = std::move(completion);
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (shut_down_) {
      lock.unlock();
      Complete(work,
               Status(StatusCode::kFailedPrecondition, "pipeline shut down"),
               kInvalidOffset);
      return handle;
    }
    if (queue_.size() + active_ >= WindowLimitLocked()) {
      // The submitter is actually blocked on the window — the stall the
      // flight recorder exists to explain after a crash.
      uint64_t stall_start_us = tango::NowMicros();
      window_cv_.wait(
          lock, [&] { return queue_.size() + active_ < WindowLimitLocked(); });
      tango::obs::FlightRecorder::Default().Record(
          tango::obs::FlightKind::kPipelineStall, "append window stall",
          tango::NowMicros() - stall_start_us, options_.window);
    }
    queue_.push_back(std::move(work));
    depth_gauge_->Set(static_cast<int64_t>(queue_.size() + active_));
    queue_cv_.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.submitted;
  }
  return handle;
}

void AppendPipeline::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [&] { return queue_.empty() && active_ == 0; });
}

void AppendPipeline::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shut_down_ && stopping_) {
      return;
    }
    shut_down_ = true;
    stopping_ = true;
    queue_cv_.notify_all();
  }
  for (std::thread& w : workers_) {
    if (w.joinable()) {
      w.join();
    }
  }
  // Every queued work has been processed; what remains are tokens that were
  // granted but never written.  Junk-fill them so the window leaves no holes
  // behind (first-writer-wins: Fill is a no-op where a real value landed).
  std::vector<Token> leftovers;
  uint64_t pooled_abandoned = 0;
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    for (auto& [streams, bucket] : pool_) {
      for (Token& t : bucket.tokens) {
        leftovers.push_back(std::move(t));
        ++pooled_abandoned;  // unused at teardown: abandoned now
      }
    }
    pool_.clear();
    for (Token& t : abandoned_) {
      leftovers.push_back(std::move(t));
    }
    abandoned_.clear();
  }
  uint64_t filled = 0;
  uint64_t failures = 0;
  for (Token& t : leftovers) {
    Status st = client_->Fill(t.offset);
    if (st.ok()) {
      ++filled;
    } else {
      ++failures;
    }
    client_->ReleaseOffset(t.offset);  // a no-op for abandoned tokens
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.tokens_abandoned += pooled_abandoned;
    stats_.tokens_filled += filled;
    stats_.fill_failures += failures;
  }
  abandoned_counter_->Add(pooled_abandoned);
}

AppendPipeline::Stats AppendPipeline::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void AppendPipeline::WorkerLoop() {
  tango::SetCurrentThreadName("tgo-append");
  for (;;) {
    Work work;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stopping and drained
      }
      work = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
      depth_gauge_->Set(static_cast<int64_t>(queue_.size() + active_));
    }
    ProcessOne(work);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
      depth_gauge_->Set(static_cast<int64_t>(queue_.size() + active_));
      window_cv_.notify_one();
      if (queue_.empty() && active_ == 0) {
        idle_cv_.notify_all();
      }
    }
  }
}

void AppendPipeline::ProcessOne(Work& work) {
  // The same policy loop as the synchronous AppendToStreams, but per-token:
  // a failure abandons only this entry's token, never the whole window.
  tango::RetryPolicy::Attempt attempt = client_->retry_.Begin();
  Status st = Status::Ok();
  for (bool first = true;; first = false) {
    if (!first) {
      if (!attempt.ShouldRetry()) {
        st = Status(StatusCode::kTimeout, "append retries exhausted");
        break;
      }
      client_->append_retries_->Add();
    }
    LogOffset offset = kInvalidOffset;
    st = TryOnce(work, &offset);
    if (st.ok()) {
      client_->appends_->Add();
      GrowWindow();
      Complete(work, st, offset);
      return;
    }
    if (st == StatusCode::kWritten || st == StatusCode::kTrimmed) {
      // Lost the offset to another writer or to GC: no hole, just grab a
      // fresh token immediately.
      attempt.CountAttempt();
      continue;
    }
    if (st == StatusCode::kBusy) {
      // The sequencer shed the grant: multiplicative decrease, then the
      // hinted cooperative pause before asking again.  No projection
      // refresh — the cluster is alive, just loaded.
      busy_counter_->Add();
      ShrinkWindow();
      attempt.BackoffSleep(st.retry_after_us());
      continue;
    }
    if (st == StatusCode::kSealedEpoch) {
      Status refreshed = client_->RefreshProjection();
      if (!refreshed.ok()) {
        st = refreshed;
        break;
      }
      continue;
    }
    if (st == StatusCode::kUnavailable || st == StatusCode::kTimeout) {
      if (st == StatusCode::kTimeout) {
        // A timed-out chain write is congestion evidence just like a shed.
        ShrinkWindow();
      }
      Status refreshed = client_->RefreshProjection();
      if (!refreshed.ok()) {
        st = refreshed;
        break;
      }
      attempt.BackoffSleep();
      continue;
    }
    break;  // hard error
  }
  Complete(work, st, kInvalidOffset);
}

Status AppendPipeline::TryOnce(const Work& work, LogOffset* out) {
  Projection p = client_->Snapshot();
  Token token;
  {
    tango::obs::ScopedTimer timer(grant_stage_us_);
    TANGO_RETURN_IF_ERROR(AcquireToken(p, work.streams, &token));
  }

  LogEntry entry;
  entry.epoch = p.epoch;
  entry.type = EntryType::kData;
  entry.headers.reserve(work.streams.size());
  for (size_t i = 0; i < work.streams.size(); ++i) {
    StreamHeader h;
    h.stream = work.streams[i];
    h.backpointers = token.backpointers[i];
    while (h.backpointers.size() < p.backpointer_count) {
      h.backpointers.push_back(kInvalidOffset);
    }
    entry.headers.push_back(std::move(h));
  }
  entry.payload = work.payload;

  Result<std::vector<uint8_t>> encoded = EncodeEntry(entry, token.offset);
  if (!encoded.ok()) {
    Abandon(std::move(token));
    return encoded.status();
  }
  if (encoded->size() > p.page_size) {
    Abandon(std::move(token));
    return Status(StatusCode::kOutOfRange, "entry exceeds page size");
  }

  Status st;
  {
    tango::obs::ScopedTimer timer(write_stage_us_);
    st = client_->ChainWrite(p, token.offset, *encoded);
  }
  if (st.ok()) {
    client_->ReleaseOffset(token.offset);
    *out = token.offset;
    return st;
  }
  if (st == StatusCode::kWritten || st == StatusCode::kTrimmed) {
    // The offset is occupied (or reclaimed) — not a hole, nothing to fill.
    client_->ReleaseOffset(token.offset);
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.tokens_lost;
    return st;
  }
  // Sealed epoch or chain failure with the offset still unwritten: the token
  // becomes a hole we owe a junk-fill for.
  Abandon(std::move(token));
  return st;
}

Status AppendPipeline::AcquireToken(const Projection& p,
                                    const std::vector<StreamId>& streams,
                                    Token* out) {
  std::unique_lock<std::mutex> lock(pool_mu_);
  Bucket& bucket = pool_[streams];
  ++bucket.waiting;
  for (;;) {
    while (!bucket.tokens.empty()) {
      Token t = std::move(bucket.tokens.front());
      bucket.tokens.pop_front();
      if (t.epoch == p.epoch) {
        --bucket.waiting;
        *out = std::move(t);
        return Status::Ok();
      }
      // Granted under an epoch that has since been sealed; it can never be
      // written, only filled.
      client_->ReleaseOffset(t.offset);
      abandoned_.push_back(std::move(t));
      abandoned_counter_->Add();
      std::lock_guard<std::mutex> slock(stats_mu_);
      ++stats_.tokens_abandoned;
    }
    if (!bucket.grant_inflight) {
      break;  // this worker becomes the granter
    }
    bucket.cv.wait(lock);
  }

  bucket.grant_inflight = true;
  // One RPC buys at least a full batch of tokens — more when even more
  // appends are already waiting on this stream set.  Surplus tokens stay
  // pooled for the next submissions (the steady-state fast path: no grant
  // round trip at all) and are junk-filled at Shutdown if never used.
  uint32_t count =
      std::min(std::max(bucket.waiting, options_.grant_batch), kMaxGrantBatch);
  lock.unlock();
  Result<SequencerGrant> grant = client_->GrantTokens(p, count, streams);
  lock.lock();
  bucket.grant_inflight = false;
  if (!grant.ok()) {
    --bucket.waiting;
    bucket.cv.notify_all();  // let another waiter try (or fail) the grant
    return grant.status();
  }
  grant_rpcs_->Add();
  tokens_granted_->Add(count);
  grant_batch_hist_->Record(count);
  {
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.grant_rpcs;
    stats_.tokens_granted += count;
  }
  for (uint32_t t = 0; t < count; ++t) {
    Token token;
    token.offset = grant->start + t;
    token.epoch = p.epoch;
    if (!grant->token_backpointers.empty()) {
      token.backpointers = std::move(grant->token_backpointers[t]);
    }
    bucket.tokens.push_back(std::move(token));
  }
  bucket.cv.notify_all();

  // Take our own token (front of the fresh batch).
  Token t = std::move(bucket.tokens.front());
  bucket.tokens.pop_front();
  --bucket.waiting;
  *out = std::move(t);
  return Status::Ok();
}

void AppendPipeline::Abandon(Token token) {
  // Readers waiting on this offset fall back to the poll and fill.
  client_->ReleaseOffset(token.offset);
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    abandoned_.push_back(std::move(token));
  }
  abandoned_counter_->Add();
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.tokens_abandoned;
}

void AppendPipeline::Complete(Work& work, const Status& status,
                              LogOffset offset) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (status.ok()) {
      ++stats_.completed_ok;
    } else {
      ++stats_.completed_error;
    }
  }
  if (work.completion) {
    work.completion(status, offset);
  }
  {
    std::lock_guard<std::mutex> lock(work.state->m);
    work.state->status = status;
    work.state->offset = offset;
    work.state->done = true;
  }
  work.state->cv.notify_all();
}

}  // namespace corfu
