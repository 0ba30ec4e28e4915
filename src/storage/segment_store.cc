#include "src/storage/segment_store.h"

#include <algorithm>
#include <cstdio>

#include "src/obs/flight.h"
#include "src/util/crc32c.h"
#include "src/util/logging.h"
#include "src/util/serialize.h"
#include "src/util/threading.h"

namespace corfu::storage {

using tango::ByteReader;
using tango::ByteWriter;
using tango::Result;
using tango::Status;
using tango::StatusCode;

namespace {

// Sanity bound on a record's `len` field; anything larger is framing
// corruption, not a real record.
constexpr uint32_t kMaxRecordLen = 1u << 30;

// Writes all of `bytes`, retrying short writes (write(2) is allowed to stop
// early; the fault injector exercises this on purpose).
Status AppendFully(File* file, std::span<const uint8_t> bytes) {
  size_t done = 0;
  while (done < bytes.size()) {
    Result<size_t> n = file->Append(bytes.subspan(done));
    if (!n.ok()) {
      return n.status();
    }
    if (*n == 0) {
      return Status(StatusCode::kUnavailable, "write made no progress");
    }
    done += *n;
  }
  return Status::Ok();
}

}  // namespace

const SegmentStoreBackend::PageRef* SegmentStoreBackend::PageIndex::Find(
    LogOffset local) const {
  auto it = chunks_.find(local >> kChunkBits);
  if (it == chunks_.end()) {
    return nullptr;
  }
  const PageRef& ref = it->second->slots[local & (kChunkSlots - 1)];
  return ref.record_len == 0 ? nullptr : &ref;
}

void SegmentStoreBackend::PageIndex::Insert(LogOffset local,
                                            const PageRef& ref) {
  std::unique_ptr<Chunk>& chunk = chunks_[local >> kChunkBits];
  if (chunk == nullptr) {
    chunk = std::make_unique<Chunk>();
  }
  chunk->slots[local & (kChunkSlots - 1)] = ref;
  ++chunk->live;
  ++size_;
}

SegmentStoreBackend::PageRef SegmentStoreBackend::PageIndex::Erase(
    LogOffset local) {
  auto it = chunks_.find(local >> kChunkBits);
  if (it == chunks_.end()) {
    return PageRef{};
  }
  PageRef& slot = it->second->slots[local & (kChunkSlots - 1)];
  PageRef ref = slot;
  if (ref.record_len != 0) {
    slot = PageRef{};
    --size_;
    if (--it->second->live == 0) {
      chunks_.erase(it);
    }
  }
  return ref;
}

template <typename Fn>
void SegmentStoreBackend::PageIndex::EraseBelow(LogOffset limit, Fn fn) {
  for (auto it = chunks_.begin();
       it != chunks_.end() && (it->first << kChunkBits) < limit;) {
    const LogOffset base = it->first << kChunkBits;
    const LogOffset end = std::min(kChunkSlots, limit - base);
    Chunk& chunk = *it->second;
    for (LogOffset i = 0; i < end; ++i) {
      if (chunk.slots[i].record_len != 0) {
        fn(chunk.slots[i]);
        chunk.slots[i] = PageRef{};
        --chunk.live;
        --size_;
      }
    }
    it = chunk.live == 0 ? chunks_.erase(it) : std::next(it);
  }
}

std::string SegmentStoreBackend::SegmentFileName(uint32_t id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "seg-%08x.log", id);
  return buf;
}

std::string SegmentStoreBackend::SegmentPath(uint32_t id) const {
  return options_.dir + "/" + SegmentFileName(id);
}

SegmentStoreBackend::SegmentStoreBackend(SegmentStoreOptions options)
    : options_(std::move(options)),
      fs_(options_.fs != nullptr ? options_.fs : PosixFileSystem()) {
  auto& reg = tango::obs::MetricsRegistry::Default();
  m_records_ = reg.GetCounter("storage.segment.records");
  m_bytes_ = reg.GetCounter("storage.segment.bytes");
  m_fsyncs_ = reg.GetCounter("storage.segment.fsyncs");
  m_flushes_ = reg.GetCounter("storage.segment.flushes");
  m_gc_deleted_ = reg.GetCounter("storage.segment.gc_deleted");
  m_corrupt_ = reg.GetCounter("storage.segment.corrupt_rejected");
  m_failstop_ = reg.GetCounter("storage.segment.failstop");
  m_window_waits_ = reg.GetCounter("storage.segment.window_waits");
}

Result<std::unique_ptr<SegmentStoreBackend>> SegmentStoreBackend::Open(
    SegmentStoreOptions options) {
  std::unique_ptr<SegmentStoreBackend> store(
      new SegmentStoreBackend(std::move(options)));
  TANGO_RETURN_IF_ERROR(store->Recover());
  if (store->options_.flush_interval_ms > 0) {
    store->flusher_ = std::thread([s = store.get()] { s->FlusherLoop(); });
  }
  return store;
}

SegmentStoreBackend::~SegmentStoreBackend() {
  std::unique_lock<std::mutex> lk(mu_);
  if (flusher_.joinable()) {
    stop_flusher_ = true;
    flusher_cv_.notify_all();
    lk.unlock();
    flusher_.join();
    lk.lock();
  }
  // Best-effort final flush so a graceful shutdown leaves nothing buffered.
  if (!failed_) {
    uint64_t target = accepted_seq_;
    if (FlushToSeqLocked(target, lk).ok()) {
      (void)SyncToSeqLocked(target, lk);
    }
  }
  std::vector<std::pair<uint64_t, AckCallback>> parked;
  parked.swap(parked_);
  lk.unlock();
  for (auto& [seq, done] : parked) {
    done(Status(StatusCode::kUnavailable, "segment store closed"));
  }
}

Status SegmentStoreBackend::Recover() {
  TANGO_RETURN_IF_ERROR(fs_->CreateDir(options_.dir));
  auto names = fs_->List(options_.dir);
  if (!names.ok()) {
    return names.status();
  }
  std::vector<uint32_t> ids;
  for (const std::string& name : *names) {
    if (name.size() == 16 && name.rfind("seg-", 0) == 0 &&
        name.compare(12, 4, ".log") == 0) {
      ids.push_back(
          static_cast<uint32_t>(std::strtoul(name.c_str() + 4, nullptr, 16)));
    }
  }
  std::sort(ids.begin(), ids.end());

  if (ids.empty()) {
    auto file = fs_->Open(SegmentPath(0));
    if (!file.ok()) {
      return file.status();
    }
    segments_[0].file = std::move(*file);
    active_id_ = 0;
    return Status::Ok();
  }

  for (size_t i = 0; i < ids.size(); ++i) {
    uint32_t id = ids[i];
    bool is_final = (i + 1 == ids.size());
    auto file = fs_->Open(SegmentPath(id));
    if (!file.ok()) {
      return file.status();
    }
    auto size = (*file)->Size();
    if (!size.ok()) {
      return size.status();
    }
    std::vector<uint8_t> image(static_cast<size_t>(*size));
    if (!image.empty()) {
      auto n = (*file)->ReadAt(0, image);
      if (!n.ok()) {
        return n.status();
      }
      if (*n != image.size()) {
        return Status(StatusCode::kUnavailable, "segment short read");
      }
    }

    ++recovery_.segments_scanned;
    Segment& seg = segments_[id];
    seg.file = std::move(*file);

    uint64_t pos = 0;
    bool bad = false;
    bool crc_bad = false;
    while (pos < image.size()) {
      uint64_t remaining = image.size() - pos;
      if (remaining < kFrameHeader + kBodyHeader) {
        bad = true;
        break;
      }
      ByteReader frame(image.data() + pos, kFrameHeader);
      uint32_t len = frame.GetU32();
      uint32_t crc = frame.GetU32();
      if (len < kBodyHeader || len > kMaxRecordLen ||
          pos + kFrameHeader + len > image.size()) {
        bad = true;
        break;
      }
      if (tango::Crc32c(image.data() + pos + kFrameHeader, len) != crc) {
        bad = true;
        crc_bad = true;
        ++recovery_.corrupt_records;
        break;
      }
      ByteReader body(image.data() + pos + kFrameHeader, len);
      uint8_t type = body.GetU8();
      Epoch epoch = body.GetU32();
      LogOffset local = body.GetU64();
      std::span<const uint8_t> payload(
          image.data() + pos + kFrameHeader + kBodyHeader, len - kBodyHeader);
      TANGO_RETURN_IF_ERROR(ApplyRecord(id, pos, kFrameHeader + len, type,
                                        epoch, local, payload));
      ++recovery_.records_replayed;
      pos += kFrameHeader + len;
    }

    seg.end = pos;
    if (bad) {
      uint64_t dropped = image.size() - pos;
      if (is_final) {
        // Torn tail: the crash interrupted the last group flush.  Truncate
        // back to the last whole record and carry on appending from there.
        recovery_.torn_bytes_truncated += dropped;
        TANGO_LOG(kWarning)
            << "segment store: truncating torn tail of " << SegmentPath(id)
            << " (" << dropped << " bytes"
            << (crc_bad ? ", CRC mismatch" : "") << ")";
        TANGO_RETURN_IF_ERROR(seg.file->Truncate(pos));
      } else {
        // Mid-log corruption: records beyond this point in the segment are
        // unreachable.  Surface it loudly; the lost pages read as holes and
        // the chain's other replica serves them.
        recovery_.skipped_bytes += dropped;
        m_corrupt_->Add();
        TANGO_LOG(kWarning)
            << "segment store: corrupt record in " << SegmentPath(id)
            << " at offset " << pos << "; skipping " << dropped
            << " unreachable bytes";
      }
    }
  }

  active_id_ = ids.back();
  tango::obs::FlightRecorder::Default().Record(
      tango::obs::FlightKind::kRecovery, "segment store recovered",
      recovery_.segments_scanned, recovery_.pages_recovered);
  return Status::Ok();
}

Status SegmentStoreBackend::ApplyRecord(uint32_t segment, uint64_t record_off,
                                        uint64_t record_len, uint8_t type,
                                        Epoch epoch, LogOffset local,
                                        std::span<const uint8_t> payload) {
  switch (type) {
    case kRecWrite: {
      if (local + 1 > local_tail_) {
        local_tail_ = local + 1;
      }
      if (local < trim_prefix_ || trimmed_.contains(local) ||
          pages_.Contains(local)) {
        break;  // dead or duplicate write; keep the first/live state
      }
      pages_.Insert(local, PageRef{record_off, segment,
                                   static_cast<uint32_t>(record_len)});
      ++segments_[segment].live_pages;
      ++recovery_.pages_recovered;
      break;
    }
    case kRecSeal:
      sealed_epoch_ = std::max(sealed_epoch_, epoch);
      break;
    case kRecTrim: {
      if (local < trim_prefix_) {
        break;
      }
      PageRef ref = pages_.Erase(local);
      if (ref.record_len != 0) {
        --segments_[ref.segment].live_pages;
        ++trimmed_count_;
      }
      trimmed_.insert(local);
      break;
    }
    case kRecTrimPrefix:
      ApplyTrimPrefixLocked(local);
      break;
    case kRecCheckpoint: {
      ByteReader r(payload.data(), payload.size());
      LogOffset tail = r.GetU64();
      uint64_t trimmed_total = r.GetU64();
      uint32_t n = r.GetU32();
      sealed_epoch_ = std::max(sealed_epoch_, epoch);
      ApplyTrimPrefixLocked(local);
      local_tail_ = std::max(local_tail_, tail);
      trimmed_count_ = std::max(trimmed_count_, trimmed_total);
      for (uint32_t i = 0; i < n && r.ok(); ++i) {
        LogOffset o = r.GetU64();
        if (o < trim_prefix_) {
          continue;
        }
        PageRef ref = pages_.Erase(o);
        if (ref.record_len != 0) {
          --segments_[ref.segment].live_pages;
        }
        trimmed_.insert(o);
      }
      if (!r.ok()) {
        return Status(StatusCode::kInternal, "malformed checkpoint record");
      }
      break;
    }
    default:
      return Status(StatusCode::kInternal, "unknown record type");
  }
  return Status::Ok();
}

void SegmentStoreBackend::ApplyTrimPrefixLocked(LogOffset limit) {
  if (limit <= trim_prefix_) {
    return;
  }
  pages_.EraseBelow(limit, [&](const PageRef& ref) {
    --segments_[ref.segment].live_pages;
    ++trimmed_count_;
  });
  trimmed_.erase(trimmed_.begin(), trimmed_.lower_bound(limit));
  trim_prefix_ = limit;
}

Status SegmentStoreBackend::CheckEpochLocked(Epoch epoch) const {
  if (epoch < sealed_epoch_) {
    return Status(StatusCode::kSealedEpoch, "node sealed at higher epoch");
  }
  return Status::Ok();
}

Status SegmentStoreBackend::EnsureRoomLocked(size_t record_size,
                                             std::unique_lock<std::mutex>& lk) {
  while (true) {
    if (failed_) {
      return Status(StatusCode::kUnavailable, "segment store failed stop");
    }
    if (rolling_) {
      cv_.wait(lk);
      continue;
    }
    Segment& active = segments_[active_id_];
    if (active.end == 0 || active.end + record_size <= options_.segment_bytes) {
      return Status::Ok();
    }
    rolling_ = true;
    Status s = RollSegmentLocked(lk);
    rolling_ = false;
    cv_.notify_all();
    if (!s.ok()) {
      return s;
    }
  }
}

uint64_t SegmentStoreBackend::AdmitRecordLocked(
    uint8_t type, Epoch epoch, LogOffset local,
    std::span<const uint8_t> payload, PageRef* ref) {
  uint32_t len = static_cast<uint32_t>(kBodyHeader + payload.size());
  ByteWriter body(len);
  body.PutU8(type);
  body.PutU32(epoch);
  body.PutU64(local);
  body.PutBytes(payload.data(), payload.size());
  uint32_t crc = tango::Crc32c(body.bytes().data(), body.size());

  Segment& active = segments_[active_id_];
  if (ref != nullptr) {
    *ref = PageRef{active.end, active_id_,
                   static_cast<uint32_t>(kFrameHeader + len)};
  }
  ByteWriter frame(kFrameHeader);
  frame.PutU32(len);
  frame.PutU32(crc);
  buf_.insert(buf_.end(), frame.bytes().begin(), frame.bytes().end());
  buf_.insert(buf_.end(), body.bytes().begin(), body.bytes().end());
  active.end += kFrameHeader + len;
  m_records_->Add();
  return ++accepted_seq_;
}

Status SegmentStoreBackend::FlushToSeqLocked(uint64_t seq,
                                             std::unique_lock<std::mutex>& lk) {
  while (written_seq_ < seq) {
    if (failed_) {
      return Status(StatusCode::kUnavailable, "segment store failed stop");
    }
    if (writer_active_) {
      cv_.wait(lk);
      continue;
    }
    if (buf_.empty()) {
      // Nothing buffered yet written_seq_ lags: cannot happen, but never
      // spin on it.
      written_seq_ = accepted_seq_;
      break;
    }
    writer_active_ = true;
    std::vector<uint8_t> batch;
    batch.swap(buf_);
    uint64_t batch_seq = accepted_seq_;
    File* file = segments_[active_id_].file.get();
    lk.unlock();
    Status s = AppendFully(file, batch);
    lk.lock();
    writer_active_ = false;
    if (!s.ok()) {
      FailStopLocked("group flush failed", s);
      return s;
    }
    written_seq_ = std::max(written_seq_, batch_seq);
    flushes_.fetch_add(1);
    m_flushes_->Add();
    m_bytes_->Add(batch.size());
    cv_.notify_all();
  }
  return Status::Ok();
}

Status SegmentStoreBackend::SyncToSeqLocked(uint64_t seq,
                                            std::unique_lock<std::mutex>& lk) {
  while (synced_seq_ < seq) {
    if (failed_) {
      return Status(StatusCode::kUnavailable, "segment store failed stop");
    }
    if (written_seq_ < seq) {
      TANGO_RETURN_IF_ERROR(FlushToSeqLocked(seq, lk));
      continue;
    }
    if (syncer_active_) {
      cv_.wait(lk);
      continue;
    }
    syncer_active_ = true;
    // Unsynced records always live in the active segment: a roll fsyncs the
    // outgoing segment before switching.
    uint64_t target = written_seq_;
    File* file = segments_[active_id_].file.get();
    lk.unlock();
    Status s = file->Sync();
    lk.lock();
    syncer_active_ = false;
    if (!s.ok()) {
      FailStopLocked("fsync failed", s);
      return s;
    }
    synced_seq_ = std::max(synced_seq_, target);
    fsyncs_.fetch_add(1);
    m_fsyncs_->Add();
    cv_.notify_all();
  }
  return Status::Ok();
}

void SegmentStoreBackend::FailStopLocked(const char* what, const Status& s) {
  failed_ = true;
  m_failstop_->Add();
  tango::obs::FlightRecorder::Default().Record(
      tango::obs::FlightKind::kFailstop, what);
  TANGO_LOG(kError) << "segment store: " << what << ", entering fail-stop: "
                    << s.ToString();
  cv_.notify_all();
  flusher_cv_.notify_all();  // the flusher fails the parked acks
}

bool SegmentStoreBackend::WindowHasRoomLocked(uint64_t seq) const {
  uint64_t window = std::max<uint32_t>(options_.fsync_batch, 1);
  // An fsync may already cover `seq` and records nobody has acked yet.
  uint64_t last = std::max(acked_seq_, seq);
  return last <= synced_seq_ || last - synced_seq_ < window;
}

void SegmentStoreBackend::KickFlusherLocked() {
  if (!sync_wanted_) {
    sync_wanted_ = true;
    flusher_cv_.notify_one();
  }
}

std::optional<Status> SegmentStoreBackend::WaitDurableLocked(
    uint64_t seq, std::unique_lock<std::mutex>& lk,
    const std::function<AckCallback()>& park) {
  TANGO_RETURN_IF_ERROR(FlushToSeqLocked(seq, lk));
  if (WindowHasRoomLocked(seq)) {
    // Fsync ahead of the window: once half of it is written but unsynced,
    // the flusher starts an fsync, so that acks rarely find it full.
    if (options_.flush_interval_ms > 0 && !syncer_active_ &&
        written_seq_ - synced_seq_ >=
            std::max<uint32_t>(options_.fsync_batch / 2, 1)) {
      KickFlusherLocked();
    }
  } else {
    m_window_waits_->Add();
    if (park && options_.flush_interval_ms > 0 && !failed_) {
      if (AckCallback done = park()) {
        parked_.emplace_back(seq, std::move(done));
        KickFlusherLocked();
        return std::nullopt;
      }
    }
    TANGO_RETURN_IF_ERROR(SyncToSeqLocked(seq, lk));
  }
  acked_seq_ = std::max(acked_seq_, seq);
  return Status::Ok();
}

void SegmentStoreBackend::CompleteParkedLocked(
    std::unique_lock<std::mutex>& lk) {
  auto waiting = std::partition(
      parked_.begin(), parked_.end(),
      [this](const auto& p) { return !failed_ && p.first > synced_seq_; });
  if (waiting == parked_.end()) {
    return;
  }
  std::vector<std::pair<uint64_t, AckCallback>> ready(
      std::make_move_iterator(waiting), std::make_move_iterator(parked_.end()));
  parked_.erase(waiting, parked_.end());
  Status st = failed_ ? Status(StatusCode::kUnavailable,
                               "segment store failed stop")
                      : Status::Ok();
  lk.unlock();
  for (auto& [seq, done] : ready) {
    done(st);
  }
  lk.lock();
}

Status SegmentStoreBackend::RollSegmentLocked(std::unique_lock<std::mutex>& lk) {
  // Close the outgoing segment durably so every unsynced record is always in
  // the active file (SyncToSeqLocked relies on this).
  uint64_t target = accepted_seq_;
  TANGO_RETURN_IF_ERROR(FlushToSeqLocked(target, lk));
  TANGO_RETURN_IF_ERROR(SyncToSeqLocked(target, lk));
  uint32_t id = active_id_ + 1;
  auto file = fs_->Open(SegmentPath(id));
  if (!file.ok()) {
    FailStopLocked("segment open failed", file.status());
    return file.status();
  }
  segments_[id].file = std::move(*file);
  active_id_ = id;
  return Status::Ok();
}

void SegmentStoreBackend::MaybeGcLocked(std::unique_lock<std::mutex>& lk) {
  bool any_dead = false;
  for (const auto& [id, seg] : segments_) {
    if (id != active_id_ && seg.live_pages == 0) {
      any_dead = true;
      break;
    }
  }
  if (!any_dead || failed_) {
    return;
  }
  // Snapshot the reconstructed state into a checkpoint record first: once it
  // is durable, recovery no longer needs anything in the dead segments.
  ByteWriter snap;
  snap.PutU64(local_tail_);
  snap.PutU64(trimmed_count_);
  snap.PutU32(static_cast<uint32_t>(trimmed_.size()));
  for (LogOffset o : trimmed_) {
    snap.PutU64(o);
  }
  size_t record_size = kFrameHeader + kBodyHeader + snap.size();
  if (!EnsureRoomLocked(record_size, lk).ok()) {
    return;
  }
  uint64_t seq = AdmitRecordLocked(kRecCheckpoint, sealed_epoch_, trim_prefix_,
                                   snap.bytes(), nullptr);
  if (!FlushToSeqLocked(seq, lk).ok() || !SyncToSeqLocked(seq, lk).ok()) {
    return;
  }
  // EnsureRoom/Flush/Sync can drop the lock; re-scan for victims against the
  // state as it stands now.  Anything that died meanwhile had its trim
  // admitted after the checkpoint, so replay order stays correct.
  std::vector<uint32_t> victims;
  for (const auto& [id, seg] : segments_) {
    if (id != active_id_ && seg.live_pages == 0) {
      victims.push_back(id);
    }
  }
  for (uint32_t id : victims) {
    Status s = fs_->Remove(SegmentPath(id));
    if (!s.ok()) {
      TANGO_LOG(kWarning) << "segment store: GC unlink failed for "
                          << SegmentPath(id) << ": " << s.ToString();
      continue;
    }
    segments_.erase(id);
    gc_deleted_.fetch_add(1);
    m_gc_deleted_->Add();
    tango::obs::FlightRecorder::Default().Record(
        tango::obs::FlightKind::kGc, "gc deleted segment", id, trim_prefix_);
  }
}

Result<std::vector<uint8_t>> SegmentStoreBackend::ReadPageLocked(
    const PageRef& ref, LogOffset local) {
  auto it = segments_.find(ref.segment);
  if (it == segments_.end()) {
    return Status(StatusCode::kInternal, "page ref to deleted segment");
  }
  std::vector<uint8_t> record(ref.record_len);
  auto n = it->second.file->ReadAt(ref.record_off, record);
  bool ok = n.ok() && *n == record.size();
  if (ok) {
    ByteReader frame(record.data(), kFrameHeader);
    uint32_t len = frame.GetU32();
    uint32_t crc = frame.GetU32();
    ok = len == record.size() - kFrameHeader &&
         tango::Crc32c(record.data() + kFrameHeader, len) == crc;
    if (ok) {
      ByteReader body(record.data() + kFrameHeader, len);
      uint8_t type = body.GetU8();
      body.GetU32();  // epoch
      LogOffset rec_local = body.GetU64();
      ok = type == kRecWrite && rec_local == local;
    }
  }
  if (!ok) {
    // Never serve bytes that fail the checksum: surface the corruption and
    // report the slot unwritten so the chain's other replica serves it.
    corrupt_reads_.fetch_add(1);
    m_corrupt_->Add();
    TANGO_LOG(kWarning) << "segment store: CRC-rejected page at local offset "
                        << local << " (segment " << ref.segment << ")";
    return Status(StatusCode::kUnwritten);
  }
  return std::vector<uint8_t>(record.begin() + kFrameHeader + kBodyHeader,
                              record.end());
}

Status SegmentStoreBackend::Put(Epoch epoch, LogOffset local,
                                std::span<const uint8_t> bytes) {
  return *PutOrPark(epoch, local, bytes, {});
}

std::optional<Status> SegmentStoreBackend::PutOrPark(
    Epoch epoch, LogOffset local, std::span<const uint8_t> bytes,
    const std::function<AckCallback()>& park) {
  std::unique_lock<std::mutex> lk(mu_);
  TANGO_RETURN_IF_ERROR(
      EnsureRoomLocked(kFrameHeader + kBodyHeader + bytes.size(), lk));
  TANGO_RETURN_IF_ERROR(CheckEpochLocked(epoch));
  if (local < trim_prefix_ || trimmed_.contains(local)) {
    return Status(StatusCode::kTrimmed);
  }
  if (pages_.Contains(local)) {
    return Status(StatusCode::kWritten);
  }
  PageRef ref;
  uint64_t seq = AdmitRecordLocked(kRecWrite, epoch, local, bytes, &ref);
  pages_.Insert(local, ref);
  ++segments_[ref.segment].live_pages;
  if (local + 1 > local_tail_) {
    local_tail_ = local + 1;
  }
  return WaitDurableLocked(seq, lk, park);
}

Result<std::vector<uint8_t>> SegmentStoreBackend::Get(Epoch epoch,
                                                      LogOffset local) {
  std::unique_lock<std::mutex> lk(mu_);
  TANGO_RETURN_IF_ERROR(CheckEpochLocked(epoch));
  if (local < trim_prefix_ || trimmed_.contains(local)) {
    return Status(StatusCode::kTrimmed);
  }
  const PageRef* ref = pages_.Find(local);
  if (ref == nullptr) {
    return Status(StatusCode::kUnwritten);
  }
  if (!buf_.empty() || writer_active_) {
    TANGO_RETURN_IF_ERROR(FlushToSeqLocked(accepted_seq_, lk));
    ref = pages_.Find(local);  // the lock was dropped; re-resolve
    if (ref == nullptr) {
      return Status(local < trim_prefix_ || trimmed_.contains(local)
                        ? StatusCode::kTrimmed
                        : StatusCode::kUnwritten);
    }
  }
  return ReadPageLocked(*ref, local);
}

Status SegmentStoreBackend::GetBatch(
    Epoch epoch, const std::vector<LogOffset>& locals,
    std::vector<Result<std::vector<uint8_t>>>* pages) {
  std::unique_lock<std::mutex> lk(mu_);
  TANGO_RETURN_IF_ERROR(CheckEpochLocked(epoch));
  // Resolve every ref before flushing, as Get does: the flush drops the
  // lock, and a Put admitted meanwhile has a ref past the file's written
  // end.  Pages admitted after this point read as unwritten, which
  // linearizes the batch here.
  std::vector<PageRef> refs;  // record_len 0: not written
  refs.reserve(locals.size());
  for (LogOffset local : locals) {
    const PageRef* ref = pages_.Find(local);
    refs.push_back(ref == nullptr ? PageRef{} : *ref);
  }
  if (!buf_.empty() || writer_active_) {
    TANGO_RETURN_IF_ERROR(FlushToSeqLocked(accepted_seq_, lk));
    TANGO_RETURN_IF_ERROR(CheckEpochLocked(epoch));
  }
  pages->reserve(pages->size() + locals.size());
  for (size_t i = 0; i < locals.size(); ++i) {
    LogOffset local = locals[i];
    // Checked after the flush: a trim in its window may have let GC delete
    // the resolved ref's segment.
    if (local < trim_prefix_ || trimmed_.contains(local)) {
      pages->emplace_back(Status(StatusCode::kTrimmed));
    } else if (refs[i].record_len == 0) {
      pages->emplace_back(Status(StatusCode::kUnwritten));
    } else {
      pages->emplace_back(ReadPageLocked(refs[i], local));
    }
  }
  return Status::Ok();
}

Result<LogOffset> SegmentStoreBackend::Seal(Epoch epoch) {
  std::unique_lock<std::mutex> lk(mu_);
  TANGO_RETURN_IF_ERROR(
      EnsureRoomLocked(kFrameHeader + kBodyHeader, lk));
  if (epoch <= sealed_epoch_) {
    return Status(StatusCode::kSealedEpoch, "seal epoch not newer");
  }
  sealed_epoch_ = epoch;
  uint64_t seq = AdmitRecordLocked(kRecSeal, epoch, 0, {}, nullptr);
  LogOffset tail = local_tail_;
  // Seals fence lagging epochs; they are never deferrable to a batch.
  TANGO_RETURN_IF_ERROR(FlushToSeqLocked(seq, lk));
  TANGO_RETURN_IF_ERROR(SyncToSeqLocked(seq, lk));
  return tail;
}

Status SegmentStoreBackend::Trim(Epoch epoch, LogOffset local) {
  std::unique_lock<std::mutex> lk(mu_);
  TANGO_RETURN_IF_ERROR(
      EnsureRoomLocked(kFrameHeader + kBodyHeader, lk));
  TANGO_RETURN_IF_ERROR(CheckEpochLocked(epoch));
  if (local < trim_prefix_) {
    return Status::Ok();  // already gone
  }
  PageRef ref = pages_.Erase(local);
  if (ref.record_len != 0) {
    --segments_[ref.segment].live_pages;
    ++trimmed_count_;
  }
  trimmed_.insert(local);
  uint64_t seq = AdmitRecordLocked(kRecTrim, epoch, local, {}, nullptr);
  TANGO_RETURN_IF_ERROR(*WaitDurableLocked(seq, lk, {}));
  MaybeGcLocked(lk);
  return Status::Ok();
}

Status SegmentStoreBackend::TrimPrefix(Epoch epoch, LogOffset limit) {
  std::unique_lock<std::mutex> lk(mu_);
  TANGO_RETURN_IF_ERROR(
      EnsureRoomLocked(kFrameHeader + kBodyHeader, lk));
  TANGO_RETURN_IF_ERROR(CheckEpochLocked(epoch));
  if (limit <= trim_prefix_) {
    return Status::Ok();
  }
  ApplyTrimPrefixLocked(limit);
  uint64_t seq = AdmitRecordLocked(kRecTrimPrefix, epoch, limit, {}, nullptr);
  TANGO_RETURN_IF_ERROR(*WaitDurableLocked(seq, lk, {}));
  MaybeGcLocked(lk);
  return Status::Ok();
}

Result<LogOffset> SegmentStoreBackend::LocalTail(Epoch epoch) {
  std::unique_lock<std::mutex> lk(mu_);
  TANGO_RETURN_IF_ERROR(CheckEpochLocked(epoch));
  return local_tail_;
}

Status SegmentStoreBackend::Sync() {
  std::unique_lock<std::mutex> lk(mu_);
  uint64_t target = accepted_seq_;
  TANGO_RETURN_IF_ERROR(FlushToSeqLocked(target, lk));
  return SyncToSeqLocked(target, lk);
}

Epoch SegmentStoreBackend::sealed_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sealed_epoch_;
}

size_t SegmentStoreBackend::PageCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pages_.size();
}

uint64_t SegmentStoreBackend::trimmed_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return trimmed_count_;
}

size_t SegmentStoreBackend::segment_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return segments_.size();
}

bool SegmentStoreBackend::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

void SegmentStoreBackend::FlusherLoop() {
  tango::SetCurrentThreadName("tgo-flush");
  std::unique_lock<std::mutex> lk(mu_);
  // One round per kick (fsync-ahead or a parked ack) and per interval.
  while (!stop_flusher_ && !failed_) {
    flusher_cv_.wait_for(
        lk, std::chrono::milliseconds(options_.flush_interval_ms),
        [this] { return stop_flusher_ || sync_wanted_ || failed_; });
    if (stop_flusher_) {
      break;  // the destructor fails what is still parked
    }
    sync_wanted_ = false;
    uint64_t target = accepted_seq_;
    if (!failed_ && synced_seq_ < target &&
        FlushToSeqLocked(target, lk).ok()) {
      (void)SyncToSeqLocked(target, lk);
    }
    CompleteParkedLocked(lk);
  }
  if (failed_) {
    CompleteParkedLocked(lk);  // nothing parks once the store has failed
  }
}

}  // namespace corfu::storage
