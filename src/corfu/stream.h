// Streaming CORFU (§5): a readnext/sync interface layered on the shared log.
//
// A stream's metadata is a client-side linked list of the log offsets that
// belong to it.  The list is built lazily by asking the sequencer for the
// stream's last K offsets and striding *backward* through the K-redundant
// backpointers stored in each entry's stream header — N/K random reads for a
// stream with N unseen entries.  Junk entries (filled holes) carry no
// backpointers; when every pointer out of the frontier dead-ends in junk, the
// reader falls back to scanning the log backward offset-by-offset, exactly as
// the paper prescribes.
//
// Thread safety: StreamStore is designed to sit under the Tango runtime's
// playback lock; concurrent Append/MultiAppend calls are safe (they only
// touch the CorfuClient), but Sync/Fold/ReadNext for the same store must be
// externally serialized.  A sync splits into an ask (CorfuClient::StreamTails,
// thread safe, so callers issue it before taking their lock) and a Fold of
// the answer, which is the only part that needs the serialization.

#ifndef SRC_CORFU_STREAM_H_
#define SRC_CORFU_STREAM_H_

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/corfu/log_client.h"
#include "src/obs/metrics.h"
#include "src/corfu/types.h"
#include "src/util/status.h"

namespace tango {
class Executor;
}  // namespace tango

namespace corfu {

// A decoded entry paired with its log position.
struct StreamEntry {
  LogOffset offset = kInvalidOffset;
  std::shared_ptr<const LogEntry> entry;
};

class StreamStore {
 public:
  struct Options {
    // Entries cached across streams (a multiappended entry is fetched from
    // the log once even if it belongs to many local streams).  The cache is
    // LRU: a hit promotes, so hot multiappended entries survive long replays.
    size_t cache_capacity = 8192;
    // Read-ahead depth: on a cache miss, FetchEntry batch-reads up to this
    // many upcoming known offsets in one CorfuClient::ReadBatch call and
    // lands them in the entry cache.  0 disables prefetching entirely (the
    // original one-RPC-per-entry path).
    size_t readahead = 0;
  };

  // Which way FetchEntry prefetches through the known-offset list: forward
  // for playback, backward for newest-first scans (checkpoint search).
  enum class PrefetchDirection { kForward, kBackward };

  explicit StreamStore(CorfuClient* log) : StreamStore(log, Options{}) {}
  StreamStore(CorfuClient* log, Options options);
  ~StreamStore();  // waits out any in-flight async prefetch

  // Registers interest in a stream (idempotent).  Only opened streams can be
  // synced and read.
  void Open(StreamId stream);

  // Appends to a single stream.
  tango::Result<LogOffset> Append(StreamId stream,
                                  std::span<const uint8_t> payload);

  // Appends one entry to several streams atomically (multiappend).
  tango::Result<LogOffset> MultiAppend(std::span<const uint8_t> payload,
                                       const std::vector<StreamId>& streams);

  // Brings the stream's linked list up to date with the sequencer and
  // returns the current global log tail (the position up to which the list
  // is now complete).  Must be called before ReadNext for linearizability.
  // A failed sequencer round trip is the result: entries already discovered
  // stay readable, but no stale tail is ever returned.
  tango::Result<LogOffset> Sync(StreamId stream);

  // Returns the next data entry of the stream, skipping junk.  Returns
  // kUnwritten when the cursor has consumed everything Sync discovered.
  tango::Result<StreamEntry> ReadNext(StreamId stream);

  // Like ReadNext but does not advance the cursor.
  tango::Result<StreamEntry> PeekNext(StreamId stream);

  // Syncs several streams with a single sequencer round trip; returns the
  // global log tail.
  tango::Result<LogOffset> SyncAll(const std::vector<StreamId>& streams);

  // Folds a sequencer answer for `streams` (parallel to info.backpointers)
  // into their lists.  Monotone, so answers may arrive out of order: one
  // older than a stream's synced tail discovers nothing, and synced tails
  // only move forward.
  tango::Status Fold(const std::vector<StreamId>& streams,
                     const SequencerTailInfo& info);

  // The log tail up to which the stream's known offsets are complete.
  LogOffset SyncedTail(StreamId stream) const;

  // Advances the cursor past exactly one known offset (junk included),
  // without fetching it.  Used by global-order playback, which steps all
  // co-located streams through a multiappended entry in lockstep.
  void AdvanceCursor(StreamId stream);

  // Positions the cursor at the first known offset strictly greater than
  // `offset` (used when restoring a view from a checkpoint).
  void SeekCursorAfter(StreamId stream, LogOffset offset);

  // Log offset of the next entry the cursor would deliver, or kInvalidOffset
  // if the cursor is at the synced end.
  LogOffset NextOffset(StreamId stream) const;

  // All known offsets of the stream (ascending; includes junk positions).
  const std::vector<LogOffset>& KnownOffsets(StreamId stream) const;

  // Rewinds the readnext cursor to the beginning of the stream (used to
  // rebuild a view from history, §3.1).
  void ResetCursor(StreamId stream);

  // Cached random read of any log position (repairing holes if needed).
  // With Options::readahead > 0, a miss prefetches the next known offsets in
  // `direction` via one batched read before falling back to ReadRepair for
  // the demanded offset.
  tango::Result<std::shared_ptr<const LogEntry>> FetchEntry(
      LogOffset offset,
      PrefetchDirection direction = PrefetchDirection::kForward);

  // Launches a background batched read of the next Options::readahead
  // uncached known offsets in [from, limit) on `executor`, so the fetch of
  // the next playback window overlaps the apply of the current one.  The
  // `limit` bound is the caller's playback horizon: offsets beyond it belong
  // to a future playback round and must still cross the transport then (a
  // failed fetch has to surface there, not be masked by a stale prefetch).
  // At most one async batch is in flight; calls while one is pending (or
  // with readahead 0) are no-ops.  Results are folded into the entry cache
  // from the owning thread — by the next FetchEntry or DrainAsyncPrefetch
  // call — so the cache itself stays externally serialized.  A FetchEntry
  // miss on an offset covered by the in-flight batch waits for that batch
  // instead of issuing a duplicate read.
  void StartAsyncPrefetch(LogOffset from, LogOffset limit,
                          tango::Executor* executor);

  // Folds a completed async batch into the cache; with `wait`, blocks until
  // the in-flight batch (if any) lands first.
  void DrainAsyncPrefetch(bool wait);

  // Drops every cached entry (bench/test hook; counters are kept).
  void ClearEntryCache();

  CorfuClient* log() const { return log_; }

  // Number of log reads issued for metadata reconstruction (ablation metric).
  uint64_t reconstruction_reads() const { return reconstruction_reads_; }
  // Entry-cache effectiveness counters (demanded FetchEntry lookups only;
  // prefetch inserts are not counted as misses).
  uint64_t cache_hits() const { return cache_hits_; }
  uint64_t cache_misses() const { return cache_misses_; }
  // Number of ReadBatch calls issued by the prefetcher.
  uint64_t prefetch_batches() const { return prefetch_batches_; }

 private:
  struct StreamState {
    std::vector<LogOffset> offsets;  // ascending, complete up to synced_tail
    size_t cursor = 0;               // index into offsets
    LogOffset synced_tail = 0;       // newest tail folded in
  };

  // Walks backpointers (and, on junk dead-ends, scans) to discover every
  // offset of `stream` in (floor, start_set...], appending them ascending.
  tango::Status Backfill(StreamId stream, StreamState& state,
                         const StreamTail& latest);

  StreamState& StateFor(StreamId stream);

  // LRU cache primitives.  Lookup promotes; insert evicts from the cold end.
  std::shared_ptr<const LogEntry> CacheLookup(LogOffset offset);
  void CacheInsert(LogOffset offset, std::shared_ptr<const LogEntry> entry);

  // The first Options::readahead uncached offsets, over every stream's known
  // offsets, from `from` (inclusive) in `direction`; forward stops below
  // `limit`.  A k-way merge over the per-stream lists: O(hosted streams)
  // binary searches per call, then a heap step per offset looked at.
  std::vector<LogOffset> UncachedKnown(LogOffset from, LogOffset limit,
                                       PrefetchDirection direction);

  // Batch-reads up to Options::readahead uncached known offsets starting at
  // `offset` (inclusive) in `direction`, landing successes in the cache.
  // Holes/trims degrade per offset and are simply not cached.
  void Prefetch(LogOffset offset, PrefetchDirection direction);

  // Batch-reads `offsets`, caching every page that decodes (best effort).
  void PrefetchOffsets(const std::vector<LogOffset>& offsets);

  CorfuClient* log_;
  Options options_;
  std::unordered_map<StreamId, StreamState> streams_;

  // LRU entry cache: lru_ front is hottest, back is next to evict.
  struct CachedEntry {
    std::shared_ptr<const LogEntry> entry;
    std::list<LogOffset>::iterator lru_it;
  };
  std::unordered_map<LogOffset, CachedEntry> cache_;
  std::list<LogOffset> lru_;
  uint64_t reconstruction_reads_ = 0;
  uint64_t cache_hits_ = 0;
  uint64_t cache_misses_ = 0;
  uint64_t prefetch_batches_ = 0;

  // In-flight background prefetch.  `offsets` is written by the owning
  // thread before launch and read only by it; the mutex guards the
  // worker-to-owner handoff (inflight flag + results).
  struct AsyncPrefetch {
    std::mutex mu;
    std::condition_variable cv;
    bool inflight = false;
    bool has_results = false;
    std::vector<CorfuClient::BatchedRead> results;
  };
  std::vector<LogOffset> apf_offsets_;  // request of the in-flight batch
  AsyncPrefetch apf_;

  // Registry mirrors of the counters above, plus demanded-read accounting.
  // The cache-hit fast path increments only store.cache.hits (one atomic,
  // to stay inside the read-path overhead budget); every cache miss lands
  // in exactly one of miss_ok/trimmed/errors, so at quiescence
  //   store.cache.misses == store.fetch.miss_ok + store.fetch.trimmed +
  //                         store.fetch.errors
  // and demanded reads == hits + misses (chaos_test asserts both).
  tango::obs::Counter* obs_hits_;
  tango::obs::Counter* obs_misses_;
  tango::obs::Counter* obs_prefetch_batches_;
  tango::obs::Counter* obs_async_batches_;
  tango::obs::Counter* obs_backfill_reads_;
  tango::obs::Counter* fetch_miss_ok_;
  tango::obs::Counter* fetch_trimmed_;
  tango::obs::Counter* fetch_errors_;
};

}  // namespace corfu

#endif  // SRC_CORFU_STREAM_H_
