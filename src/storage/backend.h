// StorageBackend: the persistence engine under a StorageNode.
//
// The CORFU protocol shell (epoch fencing wire format, RPC handlers, media
// simulation, metrics) lives in corfu::StorageNode; everything that must
// survive a crash — the write-once page index, the sealed epoch, trim
// state and the local tail — lives behind this interface.  Two engines
// implement it:
//
//   - MemoryBackend       (memory_backend.h): the original in-memory
//     FlashSegment map.  No durability; keeps benches and most tests fast.
//   - SegmentStoreBackend (segment_store.h): a log-structured segment store
//     with CRC32C-checksummed records, group-flushed writes with fsync
//     batching, segment-granularity GC, and crash-consistent recovery.
//
// Contract notes:
//   - All methods are thread-safe; epoch checks are atomic with the state
//     mutation (a Put cannot be admitted after a Seal that fenced it).
//   - Put enforces write-once (kWritten) and trim fencing (kTrimmed).
//   - A durable backend's Put returns only once the record is recoverable
//     after a process kill (handed to the kernel); fsync batching governs
//     the media-loss window, and Sync() forces it closed.
//   - PutOrPark is Put for a caller that must not wait for an fsync; the
//     engine may keep its ack and complete it from its own thread.

#ifndef SRC_STORAGE_BACKEND_H_
#define SRC_STORAGE_BACKEND_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "src/corfu/types.h"
#include "src/util/status.h"

namespace corfu::storage {

class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  // Human-readable engine name ("memory", "segment") for logs and stats.
  virtual const char* name() const = 0;

  // Write-once durable put.  kSealedEpoch if `epoch` is stale, kTrimmed if
  // the offset was trimmed, kWritten if already written, kUnavailable if the
  // engine cannot persist (a failed durable engine is fail-stop for writes
  // but keeps serving reads).
  virtual tango::Status Put(Epoch epoch, LogOffset local,
                            std::span<const uint8_t> bytes) = 0;

  // Completes a parked write ack with the status Put would have returned.
  using AckCallback = std::function<void(tango::Status)>;

  // Put for a caller that must not wait for an fsync, such as an RPC handler
  // on an event loop.  When the ack has to wait for one and the engine runs
  // fsyncs in the background, the engine calls `park` once, under its lock,
  // for the callback that completes the ack, keeps that callback, and
  // returns nullopt; the callback then runs exactly once, from another
  // thread.  When `park` is empty or returns an empty callback, the ack
  // waits inline as in Put.  Engines that never wait for an fsync keep this
  // default.
  virtual std::optional<tango::Status> PutOrPark(
      Epoch epoch, LogOffset local, std::span<const uint8_t> bytes,
      const std::function<AckCallback()>& /*park*/) {
    return Put(epoch, local, bytes);
  }

  // kUnwritten / kTrimmed / kSealedEpoch as per the protocol.  Corrupt
  // on-media records are never served: they read as kUnwritten (the chain's
  // other replica has the data — that is why entries are mirrored).
  virtual tango::Result<std::vector<uint8_t>> Get(Epoch epoch,
                                                  LogOffset local) = 0;

  // Vectored read under one epoch check, atomic with respect to seals and
  // trims.  Appends one Result per offset to *pages, in order; the call
  // fails only on a stale epoch.
  virtual tango::Status GetBatch(
      Epoch epoch, const std::vector<LogOffset>& locals,
      std::vector<tango::Result<std::vector<uint8_t>>>* pages) = 0;

  // Durably raises the sealed epoch (strictly increasing) and returns the
  // local tail at the instant of sealing.
  virtual tango::Result<LogOffset> Seal(Epoch epoch) = 0;

  virtual tango::Status Trim(Epoch epoch, LogOffset local) = 0;
  virtual tango::Status TrimPrefix(Epoch epoch, LogOffset limit) = 0;

  // Local tail (one past the highest written offset), fenced by epoch.
  virtual tango::Result<LogOffset> LocalTail(Epoch epoch) = 0;

  // Durability barrier: on return, everything previously accepted is on
  // media (no-op for the in-memory engine).
  virtual tango::Status Sync() = 0;

  virtual Epoch sealed_epoch() const = 0;
  virtual size_t PageCount() const = 0;
  virtual uint64_t trimmed_count() const = 0;
};

}  // namespace corfu::storage

#endif  // SRC_STORAGE_BACKEND_H_
