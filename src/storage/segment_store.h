// SegmentStoreBackend: a durable, log-structured segment store.
//
// The write-once page space of one storage node is persisted as an ordered
// sequence of fixed-size segment files (<dir>/seg-XXXXXXXX.log) holding
// length-prefixed, CRC32C-checksummed records:
//
//   u32 len     bytes covered by the crc (13-byte body header + payload)
//   u32 crc     CRC32C over the `len` bytes that follow
//   u8  type    1=page write  2=seal  3=trim  4=trim-prefix  5=checkpoint
//   u32 epoch   epoch the operation was admitted under
//   u64 local   page offset / trim limit / 0
//   ...         payload (page bytes for writes, state snapshot for checkpoints)
//
// Write path (the LogBase/PersistentLog shape): Put admits the record under
// the store mutex (write-once + trim + epoch checks, index update), appends
// it to a group write buffer, then waits for durability *outside* the admit
// lock.  One thread at a time drains the buffer with a single write(2)
// (group flush — concurrent appenders share the syscall) and one thread at
// a time fsyncs (group commit — an fsync covers every record written before
// it).  An append is acked once its bytes reach the kernel (crash-consistent
// against kill -9).  `fsync_batch` N bounds the power-loss window: acked but
// unsynced records never reach N, so an ack that would make them N waits
// for an fsync covering its record (N=1 fsyncs every append).  The
// background flusher keeps that wait rare: once N/2 records are written but
// unsynced it fsyncs ahead of the window, and it closes the window by time.
// A PutOrPark caller that finds the window full parks its ack with the
// flusher instead of fsyncing on its own thread; an in-proc Put fsyncs
// inline.  Seals and segment rolls always fsync on the calling thread —
// fencing must not be reorderable with a power cut.
//
// Recovery: Open scans the segments in order, replaying records to rebuild
// the page index, sealed epoch, trim state and local tail.  A short or
// CRC-mismatched record in the final segment is a torn tail: the file is
// truncated back to the last good boundary and the store continues from
// there.  A corrupt record in an earlier segment is surfaced (counted,
// logged) and never served — the affected pages read as kUnwritten so the
// chain's other replica serves them; bytes are re-verified against the CRC
// on every read, so bit rot after recovery is also caught.
//
// GC is segment-granular: trims decrement per-segment live-page counts, and
// a sealed segment whose pages are all dead is deleted after a checkpoint
// record (sealed epoch, trim watermarks, tail, live trim set) is made
// durable in the active segment, so recovery never needs the deleted file.
//
// Media errors (failed write(2), failed fsync, ENOSPC) fail the store stop:
// subsequent mutations return kUnavailable while reads keep serving — the
// health monitor routes around a fail-stopped node exactly like a dead one.

#ifndef SRC_STORAGE_SEGMENT_STORE_H_
#define SRC_STORAGE_SEGMENT_STORE_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/storage/backend.h"
#include "src/storage/fault_fs.h"

namespace corfu::storage {

struct SegmentStoreOptions {
  std::string dir;
  // File abstraction; nullptr uses the real PosixFileSystem().  Tests pass a
  // FaultInjectingFs here.
  FileSystem* fs = nullptr;
  // Roll to a new segment file once the active one reaches this size.
  uint64_t segment_bytes = 8ull << 20;
  // Acked but unsynced records stay below N (group commit); 1 = fsync every
  // record.  Acks are kill-9-safe at any setting; N bounds the
  // media-power-loss window.
  uint32_t fsync_batch = 64;
  // Background flush+fsync cadence in ms; 0 disables the thread, and with it
  // fsync-ahead and parked acks.
  uint32_t flush_interval_ms = 20;
};

class SegmentStoreBackend : public StorageBackend {
 public:
  struct RecoveryStats {
    uint64_t segments_scanned = 0;
    uint64_t records_replayed = 0;
    uint64_t pages_recovered = 0;
    uint64_t torn_bytes_truncated = 0;  // tail bytes dropped from last segment
    uint64_t corrupt_records = 0;       // CRC-rejected complete records
    uint64_t skipped_bytes = 0;         // unreachable bytes after corruption
  };

  // Scans `options.dir` (created if absent) and recovers the store.
  static tango::Result<std::unique_ptr<SegmentStoreBackend>> Open(
      SegmentStoreOptions options);

  ~SegmentStoreBackend() override;

  SegmentStoreBackend(const SegmentStoreBackend&) = delete;
  SegmentStoreBackend& operator=(const SegmentStoreBackend&) = delete;

  const char* name() const override { return "segment"; }

  tango::Status Put(Epoch epoch, LogOffset local,
                    std::span<const uint8_t> bytes) override;
  std::optional<tango::Status> PutOrPark(
      Epoch epoch, LogOffset local, std::span<const uint8_t> bytes,
      const std::function<AckCallback()>& park) override;
  tango::Result<std::vector<uint8_t>> Get(Epoch epoch,
                                          LogOffset local) override;
  tango::Status GetBatch(
      Epoch epoch, const std::vector<LogOffset>& locals,
      std::vector<tango::Result<std::vector<uint8_t>>>* pages) override;
  tango::Result<LogOffset> Seal(Epoch epoch) override;
  tango::Status Trim(Epoch epoch, LogOffset local) override;
  tango::Status TrimPrefix(Epoch epoch, LogOffset limit) override;
  tango::Result<LogOffset> LocalTail(Epoch epoch) override;
  tango::Status Sync() override;

  Epoch sealed_epoch() const override;
  size_t PageCount() const override;
  uint64_t trimmed_count() const override;

  // Introspection for tests and stats.
  const RecoveryStats& recovery_stats() const { return recovery_; }
  size_t segment_count() const;
  bool failed() const;
  uint64_t fsyncs() const { return fsyncs_.load(); }
  uint64_t group_flushes() const { return flushes_.load(); }
  uint64_t gc_deleted_segments() const { return gc_deleted_.load(); }
  uint64_t corrupt_reads() const { return corrupt_reads_.load(); }

  // On-disk framing constants, shared with tests that build or corrupt
  // record images by hand.
  static constexpr size_t kFrameHeader = 8;   // len + crc
  static constexpr size_t kBodyHeader = 13;   // type + epoch + local
  static constexpr uint8_t kRecWrite = 1;
  static constexpr uint8_t kRecSeal = 2;
  static constexpr uint8_t kRecTrim = 3;
  static constexpr uint8_t kRecTrimPrefix = 4;
  static constexpr uint8_t kRecCheckpoint = 5;

  static std::string SegmentFileName(uint32_t id);

 private:
  struct PageRef {
    uint64_t record_off = 0;  // offset of the frame header in the segment file
    uint32_t segment = 0;
    uint32_t record_len = 0;  // full record size: frame header + body; 0 in
                              // an empty index slot (no record is that short)
  };
  static_assert(sizeof(PageRef) == 16);

  // The page index: local offset -> PageRef, dense within fixed-size chunks
  // of slots, so a page costs one 16-byte slot rather than a hash node, and a
  // sparse offset costs one chunk, never a gap-sized allocation.  Chunks are
  // keyed by local >> kChunkBits and freed once their last page goes.
  class PageIndex {
   public:
    // The page's ref, or null.  Valid until the next mutation.
    const PageRef* Find(LogOffset local) const;
    bool Contains(LogOffset local) const { return Find(local) != nullptr; }
    // `local` must not be indexed yet.
    void Insert(LogOffset local, const PageRef& ref);
    // Removes the page; returns its ref, or a ref with record_len 0 if absent.
    PageRef Erase(LogOffset local);
    // Removes every page below `limit`, calling fn(ref) for each.  Visits
    // only the chunks below `limit`, so the cost is the trimmed range.
    template <typename Fn>
    void EraseBelow(LogOffset limit, Fn fn);
    size_t size() const { return size_; }

   private:
    static constexpr int kChunkBits = 10;  // 1024 slots = 16 KiB per chunk
    static constexpr LogOffset kChunkSlots = LogOffset{1} << kChunkBits;
    struct Chunk {
      std::array<PageRef, kChunkSlots> slots{};
      uint32_t live = 0;
    };
    std::map<LogOffset, std::unique_ptr<Chunk>> chunks_;
    size_t size_ = 0;
  };

  struct Segment {
    std::unique_ptr<File> file;
    uint64_t end = 0;        // logical size including buffered bytes
    uint64_t live_pages = 0;
  };

  explicit SegmentStoreBackend(SegmentStoreOptions options);

  tango::Status Recover();
  tango::Status ApplyRecord(uint32_t segment, uint64_t record_off,
                            uint64_t record_len, uint8_t type, Epoch epoch,
                            LogOffset local,
                            std::span<const uint8_t> payload);

  std::string SegmentPath(uint32_t id) const;
  tango::Status CheckEpochLocked(Epoch epoch) const;
  // Shared by runtime TrimPrefix, recovery replay and checkpoint replay.
  void ApplyTrimPrefixLocked(LogOffset limit);

  // Rolls the active segment if `record_size` would overflow it.  May drop
  // the lock (roll waits for the in-flight flush), so protocol checks must
  // happen AFTER this returns.
  tango::Status EnsureRoomLocked(size_t record_size,
                                 std::unique_lock<std::mutex>& lk);
  // Serializes one record into the group buffer without dropping the lock
  // and returns its commit sequence number; *ref (may be null) receives the
  // record's on-disk location.
  uint64_t AdmitRecordLocked(uint8_t type, Epoch epoch, LogOffset local,
                             std::span<const uint8_t> payload, PageRef* ref);
  // Group flush: returns once every record up to `seq` has reached the
  // kernel (write(2) completed).
  tango::Status FlushToSeqLocked(uint64_t seq, std::unique_lock<std::mutex>& lk);
  // Group commit: returns once every record up to `seq` is fsynced.
  tango::Status SyncToSeqLocked(uint64_t seq, std::unique_lock<std::mutex>& lk);
  // Flushes record `seq` and applies the fsync-batch window to its ack:
  // nullopt means the ack was parked (see PutOrPark).
  std::optional<tango::Status> WaitDurableLocked(
      uint64_t seq, std::unique_lock<std::mutex>& lk,
      const std::function<AckCallback()>& park);
  // Whether acking `seq` now keeps acked-but-unsynced records below
  // fsync_batch.
  bool WindowHasRoomLocked(uint64_t seq) const;
  // Wakes the flusher for an fsync round.
  void KickFlusherLocked();
  // Runs the parked acks an fsync now covers (all of them, with
  // kUnavailable, once the store has failed).  Drops the lock to run them.
  void CompleteParkedLocked(std::unique_lock<std::mutex>& lk);
  // Enters fail-stop after a media error.
  void FailStopLocked(const char* what, const tango::Status& s);
  // Rolls to a fresh segment (flushes + fsyncs the old one).
  tango::Status RollSegmentLocked(std::unique_lock<std::mutex>& lk);
  // Deletes sealed segments with zero live pages (after a checkpoint).
  void MaybeGcLocked(std::unique_lock<std::mutex>& lk);
  // Reads a record back and CRC-verifies it; serves the payload.
  tango::Result<std::vector<uint8_t>> ReadPageLocked(const PageRef& ref,
                                                     LogOffset local);

  void FlusherLoop();

  SegmentStoreOptions options_;
  FileSystem* fs_;

  mutable std::mutex mu_;
  std::condition_variable cv_;

  // Durable state (mirrors MemoryBackend).
  Epoch sealed_epoch_ = 0;
  PageIndex pages_;
  LogOffset trim_prefix_ = 0;
  std::set<LogOffset> trimmed_;  // single trims at or above trim_prefix_
  LogOffset local_tail_ = 0;
  uint64_t trimmed_count_ = 0;

  // Segment files.
  std::map<uint32_t, Segment> segments_;  // ordered by id
  uint32_t active_id_ = 0;

  // Group write buffer for the active segment.
  std::vector<uint8_t> buf_;
  uint64_t accepted_seq_ = 0;  // records admitted
  uint64_t written_seq_ = 0;   // records handed to the kernel
  uint64_t synced_seq_ = 0;    // records fsynced
  uint64_t acked_seq_ = 0;     // highest record acked
  bool writer_active_ = false;
  bool syncer_active_ = false;
  bool rolling_ = false;  // a roll is switching the active segment
  bool failed_ = false;

  RecoveryStats recovery_;
  std::atomic<uint64_t> fsyncs_{0};
  std::atomic<uint64_t> flushes_{0};
  std::atomic<uint64_t> gc_deleted_{0};
  std::atomic<uint64_t> corrupt_reads_{0};

  // Background flusher; its state is guarded by mu_.
  std::thread flusher_;
  std::condition_variable flusher_cv_;
  bool stop_flusher_ = false;
  bool sync_wanted_ = false;  // a kick is pending
  // Acks waiting for an fsync to cover their record seq.
  std::vector<std::pair<uint64_t, AckCallback>> parked_;

  // Registry instruments (process-wide).
  tango::obs::Counter* m_records_;
  tango::obs::Counter* m_bytes_;
  tango::obs::Counter* m_fsyncs_;
  tango::obs::Counter* m_flushes_;
  tango::obs::Counter* m_gc_deleted_;
  tango::obs::Counter* m_corrupt_;
  tango::obs::Counter* m_failstop_;
  tango::obs::Counter* m_window_waits_;
};

}  // namespace corfu::storage

#endif  // SRC_STORAGE_SEGMENT_STORE_H_
