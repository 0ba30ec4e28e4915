// MemoryBackend: the original in-memory "flash segment" page store.
//
// Exactly the semantics StorageNode had before the backend split: an
// unordered page map with write-once enforcement, a prefix trim watermark
// plus an individual-trim set, and a sealed epoch.  No durability: a chain
// replica, or SegmentStoreBackend in its place, provides that when needed.
// This is the engine benches use, so its hot paths must stay a map lookup
// under an uncontended mutex.

#ifndef SRC_STORAGE_MEMORY_BACKEND_H_
#define SRC_STORAGE_MEMORY_BACKEND_H_

#include <mutex>
#include <unordered_map>

#include "src/storage/backend.h"

namespace corfu::storage {

class MemoryBackend : public StorageBackend {
 public:
  MemoryBackend() = default;

  const char* name() const override { return "memory"; }

  tango::Status Put(Epoch epoch, LogOffset local,
                    std::span<const uint8_t> bytes) override;
  tango::Result<std::vector<uint8_t>> Get(Epoch epoch,
                                          LogOffset local) override;
  tango::Status GetBatch(
      Epoch epoch, const std::vector<LogOffset>& locals,
      std::vector<tango::Result<std::vector<uint8_t>>>* pages) override;
  tango::Result<LogOffset> Seal(Epoch epoch) override;
  tango::Status Trim(Epoch epoch, LogOffset local) override;
  tango::Status TrimPrefix(Epoch epoch, LogOffset limit) override;
  tango::Result<LogOffset> LocalTail(Epoch epoch) override;
  tango::Status Sync() override { return tango::Status::Ok(); }

  Epoch sealed_epoch() const override;
  size_t PageCount() const override;
  uint64_t trimmed_count() const override;

 private:
  tango::Status CheckEpochLocked(Epoch epoch) const;

  mutable std::mutex mu_;
  Epoch sealed_epoch_ = 0;
  std::unordered_map<LogOffset, std::vector<uint8_t>> pages_;
  // Offsets below this are trimmed wholesale (prefix trim).
  LogOffset trim_prefix_ = 0;
  // Individually trimmed offsets at or above trim_prefix_.
  std::unordered_map<LogOffset, bool> trimmed_;
  LogOffset local_tail_ = 0;  // one past the highest written local offset
  uint64_t trimmed_count_ = 0;
};

}  // namespace corfu::storage

#endif  // SRC_STORAGE_MEMORY_BACKEND_H_
