#include "src/corfu/sequencer.h"

#include <algorithm>

#include "src/obs/slo.h"
#include "src/util/threading.h"

namespace corfu {

using tango::ByteReader;
using tango::ByteWriter;
using tango::NodeId;
using tango::Result;
using tango::Status;
using tango::StatusCode;

namespace {

void EncodeStreamTails(const std::vector<StreamTail>& tails, ByteWriter& w) {
  w.PutU16(static_cast<uint16_t>(tails.size()));
  for (const StreamTail& t : tails) {
    w.PutU8(static_cast<uint8_t>(t.size()));
    for (LogOffset o : t) {
      w.PutU64(o);
    }
  }
}

std::vector<StreamTail> DecodeStreamTails(ByteReader& r) {
  uint16_t n = r.GetU16();
  std::vector<StreamTail> tails;
  tails.reserve(n);
  for (int i = 0; i < n; ++i) {
    uint8_t count = r.GetU8();
    StreamTail t;
    t.reserve(count);
    for (int j = 0; j < count; ++j) {
      t.push_back(r.GetU64());
    }
    tails.push_back(std::move(t));
  }
  return tails;
}

}  // namespace

Sequencer::Sequencer(tango::Transport* transport, NodeId node, Epoch epoch,
                     uint32_t backpointer_count, SequencerAdmission admission)
    : transport_(transport),
      node_(node),
      backpointer_count_(backpointer_count),
      epoch_(epoch) {
  auto& reg = tango::obs::MetricsRegistry::Default();
  tokens_ = reg.GetCounter("sequencer.tokens");
  tail_checks_ = reg.GetCounter("sequencer.tail_checks");
  sealed_rejects_ = reg.GetCounter("sequencer.sealed_rejects");
  tail_gauge_ = reg.GetGauge("sequencer.tail");
  stream_gauge_ = reg.GetGauge("sequencer.streams");
  shed_ = reg.GetCounter("overload.sequencer.shed");
  admitted_tokens_ = reg.GetCounter("overload.sequencer.admitted_tokens");
  retry_after_us_ = reg.GetHistogram("overload.sequencer.retry_after_us");
  set_admission(admission);
  dispatcher_.Register(kSequencerNext, [this](ByteReader& q, ByteWriter& p) {
    return HandleNext(q, p);
  });
  dispatcher_.Register(kSequencerTail, [this](ByteReader& q, ByteWriter& p) {
    return HandleTail(q, p);
  });
  dispatcher_.Register(kSequencerBootstrap,
                       [this](ByteReader& q, ByteWriter& p) {
                         return HandleBootstrap(q, p);
                       });
  dispatcher_.Register(kSequencerDump, [this](ByteReader& q, ByteWriter& p) {
    return HandleDump(q, p);
  });
  transport_->RegisterNode(node_, dispatcher_.AsHandler());
}

Sequencer::~Sequencer() { transport_->UnregisterNode(node_); }

namespace {

double BurstOf(const SequencerAdmission& admission) {
  return static_cast<double>(admission.burst_tokens != 0
                                 ? admission.burst_tokens
                                 : admission.capacity_tokens_per_sec / 8);
}

}  // namespace

void Sequencer::set_admission(SequencerAdmission admission) {
  std::lock_guard<std::mutex> lock(mu_);
  admission_ = admission;
  // A fresh bucket starts full so startup bursts are absorbed.
  bucket_.tokens = BurstOf(admission_);
  bucket_.last_refill_us = tango::NowMicros();
}

Status Sequencer::Admit(uint32_t count) {
  if (admission_.capacity_tokens_per_sec == 0) {
    return Status::Ok();
  }
  uint64_t now_us = tango::NowMicros();
  double rate = static_cast<double>(admission_.capacity_tokens_per_sec);
  double burst = std::max(BurstOf(admission_), static_cast<double>(count));
  if (now_us > bucket_.last_refill_us) {
    bucket_.tokens = std::min(
        burst,
        bucket_.tokens +
            rate * static_cast<double>(now_us - bucket_.last_refill_us) * 1e-6);
  }
  bucket_.last_refill_us = now_us;
  double need = static_cast<double>(count);
  if (bucket_.tokens >= need) {
    bucket_.tokens -= need;
    admitted_tokens_->Add(count);
    tango::obs::SloTracker::Default().Record(tango::obs::SloOp::kAdmission, 0);
    return Status::Ok();
  }
  // Retry-after = time for the deficit to refill.  Clamped: a floor so the
  // client's sleep is worth the syscall, a ceiling so one huge batch cannot
  // park a client for minutes.
  uint64_t hint = std::clamp<uint64_t>(
      static_cast<uint64_t>((need - bucket_.tokens) / rate * 1e6), 200,
      1'000'000);
  shed_->Add();
  retry_after_us_->Record(hint);
  tango::obs::SloTracker::Default().Record(tango::obs::SloOp::kAdmission,
                                           hint);
  return Status::Busy(static_cast<uint32_t>(hint), "sequencer overloaded");
}

Result<SequencerGrant> Sequencer::Next(Epoch epoch, uint32_t count,
                                       const std::vector<StreamId>& streams) {
  if (count == 0 || count > kMaxGrantBatch) {
    return Status(StatusCode::kInvalidArgument, "grant count out of range");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (epoch != epoch_) {
    sealed_rejects_->Add();
    return Status(StatusCode::kSealedEpoch, "sequencer epoch mismatch");
  }
  TANGO_RETURN_IF_ERROR(Admit(count));
  SequencerGrant grant;
  grant.start = tail_;
  grant.count = count;
  tail_ += count;
  tokens_->Add(count);
  tail_gauge_->Set(static_cast<int64_t>(tail_));
  if (!streams.empty()) {
    grant.token_backpointers.resize(count);
    for (uint32_t token = 0; token < count; ++token) {
      std::vector<StreamTail>& bps = grant.token_backpointers[token];
      bps.reserve(streams.size());
      for (StreamId s : streams) {
        StreamTail& t = streams_[s];
        bps.push_back(t);
        // Record the token as this stream's most recent entry, so the next
        // token of the same grant chains to it.
        t.insert(t.begin(), grant.start + token);
        if (t.size() > backpointer_count_) {
          t.resize(backpointer_count_);
        }
      }
    }
  }
  stream_gauge_->Set(static_cast<int64_t>(streams_.size()));
  return grant;
}

Result<SequencerTailInfo> Sequencer::Tail(
    Epoch epoch, const std::vector<StreamId>& streams) {
  std::lock_guard<std::mutex> lock(mu_);
  if (epoch != epoch_) {
    sealed_rejects_->Add();
    return Status(StatusCode::kSealedEpoch, "sequencer epoch mismatch");
  }
  tail_checks_->Add();
  SequencerTailInfo info;
  info.tail = tail_;
  info.backpointers.reserve(streams.size());
  for (StreamId s : streams) {
    auto it = streams_.find(s);
    info.backpointers.push_back(it == streams_.end() ? StreamTail{}
                                                     : it->second);
  }
  return info;
}

Status Sequencer::Bootstrap(Epoch epoch, LogOffset tail,
                            std::unordered_map<StreamId, StreamTail> state) {
  std::lock_guard<std::mutex> lock(mu_);
  if (epoch < epoch_) {
    return Status(StatusCode::kSealedEpoch, "bootstrap epoch too old");
  }
  epoch_ = epoch;
  tail_ = std::max(tail_, tail);
  for (auto& [stream, offsets] : state) {
    StreamTail& t = streams_[stream];
    if (t.empty()) {
      t = std::move(offsets);
    }
  }
  return Status::Ok();
}

Result<Sequencer::DumpedState> Sequencer::Dump(Epoch epoch) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (epoch != epoch_) {
    return Status(StatusCode::kSealedEpoch, "sequencer epoch mismatch");
  }
  DumpedState dump;
  dump.tail = tail_;
  dump.streams = streams_;
  return dump;
}

size_t Sequencer::StreamCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return streams_.size();
}

Status Sequencer::HandleNext(ByteReader& req, ByteWriter& resp) {
  Epoch epoch = req.GetU32();
  uint32_t count = req.GetU32();
  uint16_t num_streams = req.GetU16();
  std::vector<StreamId> streams;
  streams.reserve(num_streams);
  for (int i = 0; i < num_streams; ++i) {
    streams.push_back(req.GetU32());
  }
  if (!req.ok()) {
    return Status(StatusCode::kInvalidArgument, "malformed next request");
  }
  Result<SequencerGrant> grant = Next(epoch, count, streams);
  if (!grant.ok()) {
    return grant.status();
  }
  resp.PutU64(grant->start);
  // Number of per-token backpointer groups: 0 for streamless (raw offset
  // batching) grants, `count` otherwise.
  resp.PutU16(static_cast<uint16_t>(grant->token_backpointers.size()));
  for (const std::vector<StreamTail>& bps : grant->token_backpointers) {
    EncodeStreamTails(bps, resp);
  }
  return Status::Ok();
}

Status Sequencer::HandleTail(ByteReader& req, ByteWriter& resp) {
  Epoch epoch = req.GetU32();
  uint16_t num_streams = req.GetU16();
  std::vector<StreamId> streams;
  streams.reserve(num_streams);
  for (int i = 0; i < num_streams; ++i) {
    streams.push_back(req.GetU32());
  }
  if (!req.ok()) {
    return Status(StatusCode::kInvalidArgument, "malformed tail request");
  }
  Result<SequencerTailInfo> info = Tail(epoch, streams);
  if (!info.ok()) {
    return info.status();
  }
  resp.PutU64(info->tail);
  EncodeStreamTails(info->backpointers, resp);
  return Status::Ok();
}

Status Sequencer::HandleBootstrap(ByteReader& req, ByteWriter& /*resp*/) {
  Epoch epoch = req.GetU32();
  LogOffset tail = req.GetU64();
  uint32_t num_streams = req.GetU32();
  std::unordered_map<StreamId, StreamTail> state;
  state.reserve(num_streams);
  for (uint32_t i = 0; i < num_streams; ++i) {
    StreamId id = req.GetU32();
    uint8_t count = req.GetU8();
    StreamTail t;
    t.reserve(count);
    for (int j = 0; j < count; ++j) {
      t.push_back(req.GetU64());
    }
    state[id] = std::move(t);
  }
  if (!req.ok()) {
    return Status(StatusCode::kInvalidArgument, "malformed bootstrap");
  }
  return Bootstrap(epoch, tail, std::move(state));
}

Status Sequencer::HandleDump(ByteReader& req, ByteWriter& resp) {
  Epoch epoch = req.GetU32();
  Result<DumpedState> dump = Dump(epoch);
  if (!dump.ok()) {
    return dump.status();
  }
  EncodeSequencerState(dump->tail, dump->streams, resp);
  return Status::Ok();
}

void EncodeSequencerState(LogOffset tail,
                          const std::unordered_map<StreamId, StreamTail>& state,
                          ByteWriter& w) {
  w.PutU64(tail);
  w.PutU32(static_cast<uint32_t>(state.size()));
  for (const auto& [stream, offsets] : state) {
    w.PutU32(stream);
    w.PutU8(static_cast<uint8_t>(offsets.size()));
    for (LogOffset o : offsets) {
      w.PutU64(o);
    }
  }
}

Result<Sequencer::DumpedState> DecodeSequencerState(ByteReader& r) {
  Sequencer::DumpedState dump;
  dump.tail = r.GetU64();
  uint32_t count = r.GetU32();
  dump.streams.reserve(count);
  for (uint32_t i = 0; i < count && r.ok(); ++i) {
    StreamId stream = r.GetU32();
    uint8_t n = r.GetU8();
    StreamTail t;
    t.reserve(n);
    for (int j = 0; j < n; ++j) {
      t.push_back(r.GetU64());
    }
    dump.streams.emplace(stream, std::move(t));
  }
  if (!r.ok()) {
    return Status(StatusCode::kInvalidArgument, "malformed sequencer state");
  }
  return dump;
}

Result<Sequencer::DumpedState> SequencerDump(tango::Transport* transport,
                                             NodeId sequencer, Epoch epoch) {
  ByteWriter w;
  w.PutU32(epoch);
  std::vector<uint8_t> resp;
  Status st = transport->Call(sequencer, kSequencerDump, w.bytes(), &resp);
  if (!st.ok()) {
    return st;
  }
  ByteReader r(resp);
  return DecodeSequencerState(r);
}

Result<SequencerGrant> SequencerNext(tango::Transport* transport,
                                     NodeId sequencer, Epoch epoch,
                                     uint32_t count,
                                     const std::vector<StreamId>& streams) {
  ByteWriter w;
  w.PutU32(epoch);
  w.PutU32(count);
  w.PutU16(static_cast<uint16_t>(streams.size()));
  for (StreamId s : streams) {
    w.PutU32(s);
  }
  std::vector<uint8_t> resp;
  Status st = transport->Call(sequencer, kSequencerNext, w.bytes(), &resp);
  if (!st.ok()) {
    return st;
  }
  ByteReader r(resp);
  SequencerGrant grant;
  grant.start = r.GetU64();
  grant.count = count;
  uint16_t groups = r.GetU16();
  grant.token_backpointers.reserve(groups);
  for (uint16_t i = 0; i < groups && r.ok(); ++i) {
    grant.token_backpointers.push_back(DecodeStreamTails(r));
  }
  if (!r.ok()) {
    return Status(StatusCode::kInternal, "malformed grant response");
  }
  return grant;
}

Result<SequencerTailInfo> SequencerTail(tango::Transport* transport,
                                        NodeId sequencer, Epoch epoch,
                                        const std::vector<StreamId>& streams) {
  ByteWriter w;
  w.PutU32(epoch);
  w.PutU16(static_cast<uint16_t>(streams.size()));
  for (StreamId s : streams) {
    w.PutU32(s);
  }
  std::vector<uint8_t> resp;
  Status st = transport->Call(sequencer, kSequencerTail, w.bytes(), &resp);
  if (!st.ok()) {
    return st;
  }
  ByteReader r(resp);
  SequencerTailInfo info;
  info.tail = r.GetU64();
  info.backpointers = DecodeStreamTails(r);
  if (!r.ok()) {
    return Status(StatusCode::kInternal, "malformed tail response");
  }
  return info;
}

Status SequencerBootstrap(
    tango::Transport* transport, NodeId sequencer, Epoch epoch, LogOffset tail,
    const std::unordered_map<StreamId, StreamTail>& state) {
  ByteWriter w;
  w.PutU32(epoch);
  w.PutU64(tail);
  w.PutU32(static_cast<uint32_t>(state.size()));
  for (const auto& [stream, offsets] : state) {
    w.PutU32(stream);
    w.PutU8(static_cast<uint8_t>(offsets.size()));
    for (LogOffset o : offsets) {
      w.PutU64(o);
    }
  }
  return transport->Call(sequencer, kSequencerBootstrap, w.bytes(), nullptr);
}

}  // namespace corfu
