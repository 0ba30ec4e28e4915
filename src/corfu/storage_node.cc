#include "src/corfu/storage_node.h"

#include <chrono>
#include <thread>

#include "src/obs/flight.h"
#include "src/storage/memory_backend.h"
#include "src/storage/segment_store.h"
#include "src/util/logging.h"

namespace corfu {

using corfu::storage::MemoryBackend;
using corfu::storage::SegmentStoreBackend;
using corfu::storage::SegmentStoreOptions;
using tango::ByteReader;
using tango::ByteWriter;
using tango::NodeId;
using tango::Result;
using tango::Status;
using tango::StatusCode;

StorageNode::StorageNode(tango::Transport* transport, NodeId node,
                         Options options)
    : transport_(transport), node_(node), options_(options) {
  auto& reg = tango::obs::MetricsRegistry::Default();
  writes_ok_ = reg.GetCounter("storage.write.ok");
  writes_lost_ = reg.GetCounter("storage.write.lost_race");
  reads_ok_ = reg.GetCounter("storage.read.ok");
  reads_unwritten_ = reg.GetCounter("storage.read.unwritten");
  reads_trimmed_ = reg.GetCounter("storage.read.trimmed");
  seals_ = reg.GetCounter("storage.seals");
  trims_ = reg.GetCounter("storage.trims");
  batch_size_ = reg.GetHistogram("storage.read_batch.size");
  dispatcher_.Register(kStorageWrite, [this](ByteReader& q, ByteWriter& p) {
    return HandleWrite(q, p);
  });
  dispatcher_.Register(kStorageRead, [this](ByteReader& q, ByteWriter& p) {
    return HandleRead(q, p);
  });
  dispatcher_.Register(kStorageReadBatch,
                       [this](ByteReader& q, ByteWriter& p) {
                         return HandleReadBatch(q, p);
                       });
  dispatcher_.Register(kStorageSeal, [this](ByteReader& q, ByteWriter& p) {
    return HandleSeal(q, p);
  });
  dispatcher_.Register(kStorageTrim, [this](ByteReader& q, ByteWriter& p) {
    return HandleTrim(q, p);
  });
  dispatcher_.Register(kStorageTrimPrefix,
                       [this](ByteReader& q, ByteWriter& p) {
                         return HandleTrimPrefix(q, p);
                       });
  dispatcher_.Register(kStorageLocalTail,
                       [this](ByteReader& q, ByteWriter& p) {
                         return HandleLocalTail(q, p);
                       });
  dispatcher_.Register(kStorageSealedEpoch,
                       [this](ByteReader& q, ByteWriter& p) {
                         return HandleSealedEpoch(q, p);
                       });

  if (!options_.data_dir.empty()) {
    SegmentStoreOptions seg;
    seg.dir = options_.data_dir;
    seg.fs = options_.fs;
    seg.segment_bytes = options_.segment_bytes;
    seg.fsync_batch = options_.fsync_batch;
    seg.flush_interval_ms = options_.flush_interval_ms;
    auto store = SegmentStoreBackend::Open(std::move(seg));
    TANGO_CHECK(store.ok()) << "node " << node_
                            << ": cannot open segment store at "
                            << options_.data_dir << ": "
                            << store.status().ToString();
    backend_ = std::move(*store);
  } else {
    backend_ = std::make_unique<MemoryBackend>();
  }
  transport_->RegisterNode(node_, dispatcher_.AsHandler());
}

StorageNode::~StorageNode() { transport_->UnregisterNode(node_); }

void StorageNode::SimulateMedia(uint32_t latency_us) {
  if (latency_us == 0) {
    return;
  }
  if (options_.serialize_media_access) {
    std::lock_guard<std::mutex> lock(media_mu_);
    std::this_thread::sleep_for(std::chrono::microseconds(latency_us));
  } else {
    std::this_thread::sleep_for(std::chrono::microseconds(latency_us));
  }
}

Status StorageNode::WriteLocal(Epoch epoch, LogOffset local,
                               std::vector<uint8_t> bytes) {
  return Write(epoch, local, bytes, nullptr);
}

Status StorageNode::CountWrite(Status s) {
  if (s.ok()) {
    writes_ok_->Add();
  } else if (s.code() == StatusCode::kWritten) {
    writes_lost_->Add();
  }
  return s;
}

Status StorageNode::Write(Epoch epoch, LogOffset local,
                          std::span<const uint8_t> bytes,
                          const ByteReader* req) {
  if (bytes.size() > options_.page_size) {
    return Status(StatusCode::kInvalidArgument, "entry exceeds page size");
  }
  SimulateMedia(options_.write_latency_us);
  if (req == nullptr) {
    return CountWrite(backend_->Put(epoch, local, bytes));
  }
  // A handler call: when the ack has to wait for an fsync, the reply goes out
  // from the backend's flusher instead of blocking this thread.  Over
  // InProcTransport DeferReply is null and the ack waits inline.
  using AckCallback = storage::StorageBackend::AckCallback;
  std::optional<Status> s = backend_->PutOrPark(
      epoch, local, bytes, [this, req]() -> AckCallback {
        std::shared_ptr<tango::DeferredReply> reply = tango::DeferReply(*req);
        if (reply == nullptr) {
          return nullptr;
        }
        return [this, reply](Status st) { reply->Complete(CountWrite(st)); };
      });
  return s.has_value() ? CountWrite(*s) : Status::Ok();
}

Result<std::vector<uint8_t>> StorageNode::ReadLocal(Epoch epoch,
                                                    LogOffset local) {
  SimulateMedia(options_.read_latency_us);
  Result<std::vector<uint8_t>> page = backend_->Get(epoch, local);
  if (page.ok()) {
    reads_ok_->Add();
  } else if (page.status().code() == StatusCode::kTrimmed) {
    reads_trimmed_->Add();
  } else if (page.status().code() == StatusCode::kUnwritten) {
    reads_unwritten_->Add();
  }
  return page;
}

Status StorageNode::ReadBatchLocal(
    Epoch epoch, const std::vector<LogOffset>& locals,
    std::vector<Result<std::vector<uint8_t>>>* pages) {
  // One media pass for the whole batch: the device still transfers every
  // page, but seek/setup cost and the RPC round trip are amortized.
  SimulateMedia(options_.read_latency_us *
                static_cast<uint32_t>(locals.size()));
  batch_size_->Record(locals.size());
  pages->clear();
  TANGO_RETURN_IF_ERROR(backend_->GetBatch(epoch, locals, pages));
  // Tally locally and publish once per batch: per-slot atomic increments
  // would put ~one RMW per log entry on the batched read hot path.
  uint64_t ok = 0, unwritten = 0, trimmed = 0;
  for (const Result<std::vector<uint8_t>>& page : *pages) {
    if (page.ok()) {
      ++ok;
    } else if (page.status().code() == StatusCode::kTrimmed) {
      ++trimmed;
    } else if (page.status().code() == StatusCode::kUnwritten) {
      ++unwritten;
    }
  }
  if (trimmed > 0) {
    reads_trimmed_->Add(trimmed);
  }
  if (unwritten > 0) {
    reads_unwritten_->Add(unwritten);
  }
  if (ok > 0) {
    reads_ok_->Add(ok);
  }
  return Status::Ok();
}

Result<LogOffset> StorageNode::Seal(Epoch epoch) {
  Result<LogOffset> tail = backend_->Seal(epoch);
  if (tail.ok()) {
    seals_->Add();
  }
  return tail;
}

Status StorageNode::TrimLocal(Epoch epoch, LogOffset local) {
  TANGO_RETURN_IF_ERROR(backend_->Trim(epoch, local));
  trims_->Add();
  return Status::Ok();
}

Status StorageNode::TrimPrefixLocal(Epoch epoch, LogOffset local_limit) {
  return backend_->TrimPrefix(epoch, local_limit);
}

size_t StorageNode::PageCount() const { return backend_->PageCount(); }

uint64_t StorageNode::trimmed_count() const {
  return backend_->trimmed_count();
}

Status StorageNode::HandleWrite(ByteReader& req, ByteWriter& /*resp*/) {
  Epoch epoch = req.GetU32();
  LogOffset local = req.GetU64();
  std::vector<uint8_t> bytes = req.GetBlob();
  if (!req.ok()) {
    return Status(StatusCode::kInvalidArgument, "malformed write");
  }
  return Write(epoch, local, bytes, &req);
}

Status StorageNode::HandleRead(ByteReader& req, ByteWriter& resp) {
  Epoch epoch = req.GetU32();
  LogOffset local = req.GetU64();
  if (!req.ok()) {
    return Status(StatusCode::kInvalidArgument, "malformed read");
  }
  Result<std::vector<uint8_t>> page = ReadLocal(epoch, local);
  if (!page.ok()) {
    return page.status();
  }
  resp.PutBlob(*page);
  return Status::Ok();
}

Status StorageNode::HandleReadBatch(ByteReader& req, ByteWriter& resp) {
  Epoch epoch = req.GetU32();
  uint32_t count = req.GetU32();
  if (!req.ok() || count > kMaxReadBatch) {
    return Status(StatusCode::kInvalidArgument, "malformed batch read");
  }
  std::vector<LogOffset> locals(count);
  for (uint32_t i = 0; i < count; ++i) {
    locals[i] = req.GetU64();
  }
  if (!req.ok()) {
    return Status(StatusCode::kInvalidArgument, "malformed batch read");
  }
  std::vector<Result<std::vector<uint8_t>>> pages;
  TANGO_RETURN_IF_ERROR(ReadBatchLocal(epoch, locals, &pages));
  resp.PutU32(count);
  for (const Result<std::vector<uint8_t>>& page : pages) {
    resp.PutU8(static_cast<uint8_t>(page.status().code()));
    if (page.ok()) {
      resp.PutBlob(*page);
    }
  }
  return Status::Ok();
}

Status StorageNode::HandleSeal(ByteReader& req, ByteWriter& resp) {
  Epoch epoch = req.GetU32();
  Result<LogOffset> tail = Seal(epoch);
  if (!tail.ok()) {
    return tail.status();
  }
  tango::obs::FlightRecorder::Default().Record(tango::obs::FlightKind::kSeal,
                                        "storage sealed epoch", epoch, *tail,
                                        node_);
  resp.PutU64(*tail);
  return Status::Ok();
}

Status StorageNode::HandleTrim(ByteReader& req, ByteWriter& /*resp*/) {
  Epoch epoch = req.GetU32();
  LogOffset local = req.GetU64();
  return TrimLocal(epoch, local);
}

Status StorageNode::HandleTrimPrefix(ByteReader& req, ByteWriter& /*resp*/) {
  Epoch epoch = req.GetU32();
  LogOffset local_limit = req.GetU64();
  return TrimPrefixLocal(epoch, local_limit);
}

Status StorageNode::HandleLocalTail(ByteReader& req, ByteWriter& resp) {
  Epoch epoch = req.GetU32();
  Result<LogOffset> tail = backend_->LocalTail(epoch);
  if (!tail.ok()) {
    return tail.status();
  }
  resp.PutU64(*tail);
  return Status::Ok();
}

Status StorageNode::HandleSealedEpoch(ByteReader& /*req*/, ByteWriter& resp) {
  resp.PutU32(backend_->sealed_epoch());
  return Status::Ok();
}

}  // namespace corfu
