#include "src/corfu/stream.h"

#include <algorithm>
#include <queue>

#include "src/util/logging.h"
#include "src/util/threading.h"

namespace corfu {

using tango::Result;
using tango::Status;
using tango::StatusCode;

StreamStore::StreamStore(CorfuClient* log, Options options)
    : log_(log), options_(options) {
  auto& reg = tango::obs::MetricsRegistry::Default();
  obs_hits_ = reg.GetCounter("store.cache.hits");
  obs_misses_ = reg.GetCounter("store.cache.misses");
  obs_prefetch_batches_ = reg.GetCounter("store.prefetch.batches");
  obs_async_batches_ = reg.GetCounter("store.prefetch.async_batches");
  obs_backfill_reads_ = reg.GetCounter("store.backfill.reads");
  fetch_miss_ok_ = reg.GetCounter("store.fetch.miss_ok");
  fetch_trimmed_ = reg.GetCounter("store.fetch.trimmed");
  fetch_errors_ = reg.GetCounter("store.fetch.errors");
}

StreamStore::~StreamStore() { DrainAsyncPrefetch(/*wait=*/true); }

void StreamStore::Open(StreamId stream) { (void)StateFor(stream); }

StreamStore::StreamState& StreamStore::StateFor(StreamId stream) {
  return streams_[stream];
}

Result<LogOffset> StreamStore::Append(StreamId stream,
                                      std::span<const uint8_t> payload) {
  return log_->AppendToStreams(payload, {stream});
}

Result<LogOffset> StreamStore::MultiAppend(
    std::span<const uint8_t> payload, const std::vector<StreamId>& streams) {
  return log_->AppendToStreams(payload, streams);
}

std::shared_ptr<const LogEntry> StreamStore::CacheLookup(LogOffset offset) {
  auto it = cache_.find(offset);
  if (it == cache_.end()) {
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);  // promote on hit
  return it->second.entry;
}

void StreamStore::CacheInsert(LogOffset offset,
                              std::shared_ptr<const LogEntry> entry) {
  auto it = cache_.find(offset);
  if (it != cache_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return;  // entries are immutable; keep the existing copy
  }
  lru_.push_front(offset);
  cache_.emplace(offset, CachedEntry{std::move(entry), lru_.begin()});
  while (cache_.size() > options_.cache_capacity) {
    cache_.erase(lru_.back());
    lru_.pop_back();
  }
}

void StreamStore::ClearEntryCache() {
  cache_.clear();
  lru_.clear();
}

void StreamStore::PrefetchOffsets(const std::vector<LogOffset>& offsets) {
  if (offsets.empty()) {
    return;
  }
  ++prefetch_batches_;
  obs_prefetch_batches_->Add();
  Result<std::vector<CorfuClient::BatchedRead>> batch =
      log_->ReadBatch(offsets);
  if (!batch.ok()) {
    return;  // best effort: demand reads repair or surface the error
  }
  for (size_t i = 0; i < offsets.size(); ++i) {
    CorfuClient::BatchedRead& slot = (*batch)[i];
    if (slot.status.ok()) {
      CacheInsert(offsets[i],
                  std::make_shared<const LogEntry>(std::move(slot.entry)));
    }
  }
}

std::vector<LogOffset> StreamStore::UncachedKnown(LogOffset from,
                                                  LogOffset limit,
                                                  PrefetchDirection direction) {
  const bool forward = direction == PrefetchDirection::kForward;
  // A k-way merge over the per-stream lists, nearest offset first: one
  // binary search per stream, then one heap step per offset looked at.
  struct Cursor {
    const std::vector<LogOffset>* offsets;
    size_t next;  // forward: index of the next offset; backward: one past it
  };
  std::vector<Cursor> cursors;
  cursors.reserve(streams_.size());
  for (const auto& [stream, state] : streams_) {
    const std::vector<LogOffset>& offs = state.offsets;
    auto it = forward ? std::lower_bound(offs.begin(), offs.end(), from)
                      : std::upper_bound(offs.begin(), offs.end(), from);
    cursors.push_back({&offs, static_cast<size_t>(it - offs.begin())});
  }
  using Item = std::pair<LogOffset, size_t>;  // (offset, cursor index)
  auto farther = [forward](const Item& a, const Item& b) {
    return forward ? a.first > b.first : a.first < b.first;
  };
  std::priority_queue<Item, std::vector<Item>, decltype(farther)> heap(
      farther);
  auto push = [&](size_t i) {
    const Cursor& c = cursors[i];
    if (forward && c.next < c.offsets->size() &&
        (*c.offsets)[c.next] < limit) {
      heap.emplace((*c.offsets)[c.next], i);
    } else if (!forward && c.next > 0) {
      heap.emplace((*c.offsets)[c.next - 1], i);
    }
  };
  for (size_t i = 0; i < cursors.size(); ++i) {
    push(i);
  }
  std::vector<LogOffset> wanted;
  LogOffset last = kInvalidOffset;
  while (!heap.empty() && wanted.size() < options_.readahead) {
    const auto [offset, i] = heap.top();
    heap.pop();
    if (forward) {
      ++cursors[i].next;
    } else {
      --cursors[i].next;
    }
    push(i);
    // A multi-stream entry comes up once per stream it is in.
    if (offset != last && !cache_.contains(offset)) {
      wanted.push_back(offset);
    }
    last = offset;
  }
  return wanted;
}

void StreamStore::Prefetch(LogOffset offset, PrefetchDirection direction) {
  PrefetchOffsets(UncachedKnown(offset, kInvalidOffset, direction));
}

void StreamStore::StartAsyncPrefetch(LogOffset from, LogOffset limit,
                                     tango::Executor* executor) {
  if (options_.readahead == 0 || executor == nullptr) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(apf_.mu);
    if (apf_.inflight) {
      return;
    }
  }
  DrainAsyncPrefetch(/*wait=*/false);  // fold in a landed batch first

  std::vector<LogOffset> wanted =
      UncachedKnown(from, limit, PrefetchDirection::kForward);
  if (wanted.empty()) {
    return;
  }
  apf_offsets_ = wanted;
  {
    std::lock_guard<std::mutex> lock(apf_.mu);
    apf_.inflight = true;
    apf_.has_results = false;
    apf_.results.clear();
  }
  obs_async_batches_->Add();
  executor->Submit([this, wanted = std::move(wanted)] {
    Result<std::vector<CorfuClient::BatchedRead>> batch =
        log_->ReadBatch(wanted);
    std::lock_guard<std::mutex> lock(apf_.mu);
    if (batch.ok()) {
      apf_.results = std::move(*batch);
      apf_.has_results = true;
    }
    apf_.inflight = false;
    apf_.cv.notify_all();
  });
}

void StreamStore::DrainAsyncPrefetch(bool wait) {
  std::vector<CorfuClient::BatchedRead> results;
  {
    std::unique_lock<std::mutex> lock(apf_.mu);
    if (wait) {
      apf_.cv.wait(lock, [this] { return !apf_.inflight; });
    } else if (apf_.inflight) {
      return;
    }
    if (!apf_.has_results) {
      return;
    }
    results = std::move(apf_.results);
    apf_.has_results = false;
  }
  for (size_t i = 0; i < results.size() && i < apf_offsets_.size(); ++i) {
    if (results[i].status.ok()) {
      CacheInsert(apf_offsets_[i], std::make_shared<const LogEntry>(
                                       std::move(results[i].entry)));
    }
  }
  apf_offsets_.clear();
}

Result<std::shared_ptr<const LogEntry>> StreamStore::FetchEntry(
    LogOffset offset, PrefetchDirection direction) {
  DrainAsyncPrefetch(/*wait=*/false);
  // The cache-hit fast path pays for exactly one counter update; demanded
  // reads are derived as hits + misses, and the full outcome accounting
  // (miss_ok/trimmed/errors) happens only on the slow miss path.
  if (std::shared_ptr<const LogEntry> hit = CacheLookup(offset)) {
    ++cache_hits_;
    obs_hits_->Add();
    return hit;
  }
  ++cache_misses_;
  obs_misses_->Add();
  // A miss on an offset this client is still writing: wait for that write to
  // end (bounded by the hole timeout), so the read below finds it.  A write
  // that never comes is filled by ReadRepair against the same deadline.
  const uint64_t hole_deadline = log_->AwaitOwnWrite(offset);
  // A miss on an offset the in-flight background batch already covers: wait
  // for that batch rather than issuing a duplicate read.
  if (std::binary_search(apf_offsets_.begin(), apf_offsets_.end(), offset)) {
    DrainAsyncPrefetch(/*wait=*/true);
    if (std::shared_ptr<const LogEntry> hit = CacheLookup(offset)) {
      fetch_miss_ok_->Add();
      return hit;
    }
  }
  if (options_.readahead > 0) {
    Prefetch(offset, direction);
    if (std::shared_ptr<const LogEntry> hit = CacheLookup(offset)) {
      fetch_miss_ok_->Add();
      return hit;
    }
    // The batch reported a hole, a trim, or an error for this offset; fall
    // through to the single-read path, which waits out and repairs holes.
  }
  Result<LogEntry> entry = log_->ReadRepair(offset, hole_deadline);
  if (!entry.ok()) {
    if (entry.status() == StatusCode::kTrimmed) {
      fetch_trimmed_->Add();
    } else {
      fetch_errors_->Add();
    }
    return entry.status();
  }
  fetch_miss_ok_->Add();
  auto shared = std::make_shared<const LogEntry>(std::move(entry).value());
  CacheInsert(offset, shared);
  return shared;
}

Status StreamStore::Backfill(StreamId stream, StreamState& state,
                             const StreamTail& latest) {
  const bool have_floor = !state.offsets.empty();
  const LogOffset floor = have_floor ? state.offsets.back() : 0;

  auto is_new = [&](LogOffset o) {
    return o != kInvalidOffset && (!have_floor || o > floor);
  };

  std::vector<LogOffset> discovered;
  std::vector<LogOffset> chain(latest.begin(), latest.end());
  while (true) {
    LogOffset oldest = kInvalidOffset;
    bool any = false;
    for (LogOffset o : chain) {
      if (!is_new(o)) {
        continue;
      }
      discovered.push_back(o);
      any = true;
      if (oldest == kInvalidOffset || o < oldest) {
        oldest = o;
      }
    }
    if (!any) {
      break;  // reached known territory or the start of the stream
    }

    // Stride: one read yields the next K backpointers.
    if (options_.readahead > 1) {
      // Vectored stride: every new frontier offset is a stream member the
      // replay will need anyway, so fetch the whole frontier in one round
      // trip and let the stride read below hit the cache.
      std::vector<LogOffset> frontier;
      for (LogOffset o : chain) {
        if (is_new(o) && !cache_.contains(o)) {
          frontier.push_back(o);
        }
      }
      if (frontier.size() > 1) {
        PrefetchOffsets(frontier);
      }
    }
    ++reconstruction_reads_;
    obs_backfill_reads_->Add();
    Result<std::shared_ptr<const LogEntry>> entry = FetchEntry(oldest);
    if (!entry.ok()) {
      if (entry.status() == StatusCode::kTrimmed) {
        break;  // history below this point was forgotten
      }
      return entry.status();
    }
    const StreamHeader* header = (*entry)->FindHeader(stream);
    if (header != nullptr) {
      chain.assign(header->backpointers.begin(), header->backpointers.end());
      continue;
    }

    // Dead end: the frontier entry is junk (a filled hole carries no
    // backpointers).  Fall back to scanning the log backward until we
    // reconnect with known territory (§5, Failure Handling).  The scan
    // walks raw log offsets, so it prefetches fixed-size descending chunks
    // rather than known-offset runs.
    LogOffset scan = oldest;
    LogOffset batched_floor = oldest;  // offsets in [batched_floor, oldest)
                                       // were already batch-read
    while (scan > 0) {
      --scan;
      if (have_floor && scan <= floor) {
        break;
      }
      if (options_.readahead > 1 && scan < batched_floor) {
        LogOffset lo =
            scan + 1 > options_.readahead ? scan + 1 - options_.readahead : 0;
        if (have_floor && lo <= floor) {
          lo = floor + 1;
        }
        std::vector<LogOffset> chunk;
        for (LogOffset o = scan + 1; o-- > lo;) {
          if (!cache_.contains(o)) {
            chunk.push_back(o);
          }
        }
        PrefetchOffsets(chunk);
        batched_floor = lo;
      }
      ++reconstruction_reads_;
      obs_backfill_reads_->Add();
      Result<std::shared_ptr<const LogEntry>> e = FetchEntry(scan);
      if (!e.ok()) {
        if (e.status() == StatusCode::kTrimmed) {
          break;
        }
        return e.status();
      }
      if ((*e)->FindHeader(stream) != nullptr) {
        discovered.push_back(scan);
      }
    }
    break;
  }

  if (!discovered.empty()) {
    std::sort(discovered.begin(), discovered.end());
    discovered.erase(std::unique(discovered.begin(), discovered.end()),
                     discovered.end());
    state.offsets.insert(state.offsets.end(), discovered.begin(),
                         discovered.end());
  }
  return Status::Ok();
}

LogOffset StreamStore::SyncedTail(StreamId stream) const {
  auto it = streams_.find(stream);
  return it == streams_.end() ? 0 : it->second.synced_tail;
}

Result<LogOffset> StreamStore::Sync(StreamId stream) {
  return SyncAll({stream});
}

Result<LogOffset> StreamStore::SyncAll(const std::vector<StreamId>& streams) {
  Result<SequencerTailInfo> info = log_->StreamTails(streams);
  if (!info.ok()) {
    return info.status();
  }
  TANGO_RETURN_IF_ERROR(Fold(streams, *info));
  return info->tail;
}

Status StreamStore::Fold(const std::vector<StreamId>& streams,
                         const SequencerTailInfo& info) {
  for (size_t i = 0; i < streams.size(); ++i) {
    StreamState& state = StateFor(streams[i]);
    // Backfill only adds offsets above the list's newest one, and every
    // backpointer of an older answer lies at or below it.
    TANGO_RETURN_IF_ERROR(Backfill(streams[i], state, info.backpointers[i]));
    state.synced_tail = std::max(state.synced_tail, info.tail);
  }
  return Status::Ok();
}

Result<StreamEntry> StreamStore::ReadNext(StreamId stream) {
  StreamState& state = StateFor(stream);
  while (state.cursor < state.offsets.size()) {
    LogOffset offset = state.offsets[state.cursor];
    Result<std::shared_ptr<const LogEntry>> entry = FetchEntry(offset);
    if (!entry.ok()) {
      if (entry.status() == StatusCode::kTrimmed) {
        ++state.cursor;  // trimmed history: nothing to deliver
        continue;
      }
      return entry.status();
    }
    ++state.cursor;
    if ((*entry)->is_junk()) {
      continue;  // filled hole: position consumed, nothing to deliver
    }
    StreamEntry out;
    out.offset = offset;
    out.entry = std::move(entry).value();
    return out;
  }
  return Status(StatusCode::kUnwritten, "stream cursor at synced end");
}

Result<StreamEntry> StreamStore::PeekNext(StreamId stream) {
  StreamState& state = StateFor(stream);
  size_t saved = state.cursor;
  Result<StreamEntry> entry = ReadNext(stream);
  state.cursor = saved;
  return entry;
}

LogOffset StreamStore::NextOffset(StreamId stream) const {
  auto it = streams_.find(stream);
  if (it == streams_.end() || it->second.cursor >= it->second.offsets.size()) {
    return kInvalidOffset;
  }
  return it->second.offsets[it->second.cursor];
}

const std::vector<LogOffset>& StreamStore::KnownOffsets(
    StreamId stream) const {
  static const std::vector<LogOffset> kEmpty;
  auto it = streams_.find(stream);
  return it == streams_.end() ? kEmpty : it->second.offsets;
}

void StreamStore::ResetCursor(StreamId stream) { StateFor(stream).cursor = 0; }

void StreamStore::AdvanceCursor(StreamId stream) {
  StreamState& state = StateFor(stream);
  if (state.cursor < state.offsets.size()) {
    ++state.cursor;
  }
}

void StreamStore::SeekCursorAfter(StreamId stream, LogOffset offset) {
  StreamState& state = StateFor(stream);
  state.cursor = static_cast<size_t>(
      std::upper_bound(state.offsets.begin(), state.offsets.end(), offset) -
      state.offsets.begin());
}

}  // namespace corfu
