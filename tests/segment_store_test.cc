// SegmentStoreBackend recovery suite: crash consistency, fault injection,
// corruption rejection, GC, and a fork/kill -9 storm harness proving that no
// acknowledged append is ever lost and no slot ever reads back garbage.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "src/storage/fault_fs.h"
#include "src/storage/segment_store.h"
#include "src/util/crc32c.h"
#include "src/util/random.h"
#include "src/util/threading.h"
#include "tests/test_env.h"

namespace corfu::storage {
namespace {

using tango::StatusCode;
using tango_test::Bytes;
using tango_test::Str;

class SegmentStoreTest : public ::testing::Test {
 protected:
  SegmentStoreTest() {
    dir_ = std::filesystem::temp_directory_path() /
           ("tango-segstore-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter_++));
    // The store creates dir_ itself; leave it absent to cover that path.
  }
  ~SegmentStoreTest() override { std::filesystem::remove_all(dir_); }

  SegmentStoreOptions Opts() {
    SegmentStoreOptions o;
    o.dir = dir_.string();
    o.flush_interval_ms = 0;  // deterministic: no background flusher
    return o;
  }

  std::unique_ptr<SegmentStoreBackend> MustOpen(SegmentStoreOptions o) {
    auto store = SegmentStoreBackend::Open(std::move(o));
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    return std::move(*store);
  }

  std::string SegPath(uint32_t id) {
    return (dir_ / SegmentStoreBackend::SegmentFileName(id)).string();
  }

  std::filesystem::path dir_;
  static int counter_;
};

int SegmentStoreTest::counter_ = 0;

TEST_F(SegmentStoreTest, WriteOnceSemanticsMatchMemoryEngine) {
  auto store = MustOpen(Opts());
  EXPECT_TRUE(store->Put(0, 3, Bytes("first")).ok());
  EXPECT_EQ(store->Put(0, 3, Bytes("second")).code(), StatusCode::kWritten);
  auto page = store->Get(0, 3);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(Str(*page), "first");
  EXPECT_EQ(store->Get(0, 4).status().code(), StatusCode::kUnwritten);

  ASSERT_TRUE(store->Trim(0, 3).ok());
  EXPECT_EQ(store->Get(0, 3).status().code(), StatusCode::kTrimmed);
  EXPECT_EQ(store->Put(0, 3, Bytes("late")).code(), StatusCode::kTrimmed);

  auto tail = store->Seal(2);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(*tail, 4u);
  EXPECT_EQ(store->Put(1, 9, Bytes("stale")).code(), StatusCode::kSealedEpoch);
  EXPECT_TRUE(store->Put(2, 9, Bytes("current")).ok());
}

TEST_F(SegmentStoreTest, StateSurvivesCleanRestart) {
  {
    auto store = MustOpen(Opts());
    for (LogOffset o = 0; o < 20; ++o) {
      ASSERT_TRUE(store->Put(0, o, Bytes("page-" + std::to_string(o))).ok());
    }
    ASSERT_TRUE(store->Trim(0, 19).ok());
    ASSERT_TRUE(store->TrimPrefix(0, 5).ok());
    ASSERT_TRUE(store->Seal(3).ok());
  }
  auto store = MustOpen(Opts());
  EXPECT_EQ(store->sealed_epoch(), 3u);
  EXPECT_EQ(store->PageCount(), 14u);  // 20 - 5 prefix - 1 trim
  for (LogOffset o = 5; o < 19; ++o) {
    auto page = store->Get(3, o);
    ASSERT_TRUE(page.ok()) << "offset " << o;
    EXPECT_EQ(Str(*page), "page-" + std::to_string(o));
  }
  EXPECT_EQ(store->Get(3, 2).status().code(), StatusCode::kTrimmed);
  EXPECT_EQ(store->Get(3, 19).status().code(), StatusCode::kTrimmed);
  EXPECT_EQ(store->Put(3, 7, Bytes("dup")).code(), StatusCode::kWritten);
  auto tail = store->LocalTail(3);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(*tail, 20u);
}

TEST_F(SegmentStoreTest, TornTailTruncatedAndStoreStaysAppendable) {
  {
    auto store = MustOpen(Opts());
    ASSERT_TRUE(store->Put(0, 0, Bytes("good")).ok());
    ASSERT_TRUE(store->Put(0, 1, Bytes("torn-away")).ok());
  }
  ASSERT_TRUE(TearFileTail(SegPath(0), 5).ok());
  {
    auto store = MustOpen(Opts());
    EXPECT_EQ(store->recovery_stats().torn_bytes_truncated, 0u + 8 + 13 + 9 - 5);
    EXPECT_TRUE(store->Get(0, 0).ok());
    // The torn record was never durably acked as recoverable; it reads as a
    // hole, never as garbage.
    EXPECT_EQ(store->Get(0, 1).status().code(), StatusCode::kUnwritten);
    // The tail is clean again: appends keep working across another restart.
    ASSERT_TRUE(store->Put(0, 1, Bytes("rewritten")).ok());
    ASSERT_TRUE(store->Put(0, 2, Bytes("more")).ok());
  }
  auto store = MustOpen(Opts());
  EXPECT_EQ(store->recovery_stats().torn_bytes_truncated, 0u);
  EXPECT_EQ(Str(*store->Get(0, 1)), "rewritten");
  EXPECT_EQ(Str(*store->Get(0, 2)), "more");
}

TEST_F(SegmentStoreTest, BitFlipInFinalSegmentDropsOnlyTheTail) {
  uint64_t second_record_off;
  {
    auto store = MustOpen(Opts());
    ASSERT_TRUE(store->Put(0, 0, Bytes("keep-me")).ok());
    second_record_off = std::filesystem::file_size(SegPath(0));
    ASSERT_TRUE(store->Put(0, 1, Bytes("rot-me")).ok());
  }
  // Flip one payload bit of the second record: recovery must CRC-reject it
  // and everything before it must survive.
  ASSERT_TRUE(FlipFileBit(SegPath(0),
                          second_record_off + SegmentStoreBackend::kFrameHeader +
                              SegmentStoreBackend::kBodyHeader,
                          3)
                  .ok());
  auto store = MustOpen(Opts());
  EXPECT_EQ(store->recovery_stats().corrupt_records, 1u);
  EXPECT_EQ(Str(*store->Get(0, 0)), "keep-me");
  EXPECT_EQ(store->Get(0, 1).status().code(), StatusCode::kUnwritten);
}

std::vector<uint8_t> PaddedEntry(const std::string& prefix, LogOffset o) {
  return Bytes(prefix + std::to_string(o) + std::string(40, '.'));
}

TEST_F(SegmentStoreTest, CorruptRecordInEarlierSegmentIsSurfacedNotServed) {
  auto opts = Opts();
  opts.segment_bytes = 256;  // force several segments
  {
    auto store = MustOpen(opts);
    for (LogOffset o = 0; o < 12; ++o) {
      ASSERT_TRUE(store->Put(0, o, PaddedEntry("entry-", o)).ok());
    }
    ASSERT_GT(store->segment_count(), 2u);
  }
  // Rot the first record of the FIRST segment (not the final one): recovery
  // must skip the unreachable remainder of that segment but keep serving
  // every record from the later segments.
  ASSERT_TRUE(FlipFileBit(SegPath(0),
                          SegmentStoreBackend::kFrameHeader +
                              SegmentStoreBackend::kBodyHeader,
                          0)
                  .ok());
  auto store = MustOpen(opts);
  EXPECT_EQ(store->recovery_stats().corrupt_records, 1u);
  EXPECT_GT(store->recovery_stats().skipped_bytes, 0u);
  EXPECT_EQ(store->recovery_stats().torn_bytes_truncated, 0u);
  int holes = 0, served = 0;
  for (LogOffset o = 0; o < 12; ++o) {
    auto page = store->Get(0, o);
    if (page.ok()) {
      // Whatever is served must be byte-exact — never corrupted data.
      EXPECT_EQ(*page, PaddedEntry("entry-", o));
      ++served;
    } else {
      EXPECT_EQ(page.status().code(), StatusCode::kUnwritten);
      ++holes;
    }
  }
  EXPECT_GT(holes, 0);   // the rotted segment's pages are gone
  EXPECT_GT(served, 0);  // later segments were not thrown away
}

TEST_F(SegmentStoreTest, ReadTimeCrcCheckCatchesBitRotAfterRecovery) {
  auto store = MustOpen(Opts());
  ASSERT_TRUE(store->Put(0, 0, Bytes("will-rot")).ok());
  ASSERT_TRUE(store->Sync().ok());
  // Rot the payload on media while the store is live: the scan at Open never
  // saw it, so only the per-read CRC check can catch it.
  ASSERT_TRUE(FlipFileBit(SegPath(0),
                          SegmentStoreBackend::kFrameHeader +
                              SegmentStoreBackend::kBodyHeader,
                          5)
                  .ok());
  EXPECT_EQ(store->Get(0, 0).status().code(), StatusCode::kUnwritten);
  EXPECT_EQ(store->corrupt_reads(), 1u);
}

TEST_F(SegmentStoreTest, GcDeletesDeadSegmentsAndRecoveryHonorsCheckpoint) {
  auto opts = Opts();
  opts.segment_bytes = 256;
  opts.fsync_batch = 1;
  {
    auto store = MustOpen(opts);
    for (LogOffset o = 0; o < 32; ++o) {
      ASSERT_TRUE(store->Put(0, o, PaddedEntry("gc-", o)).ok());
    }
    size_t before = store->segment_count();
    ASSERT_GT(before, 3u);
    ASSERT_TRUE(store->Seal(2).ok());
    // Trim the first half wholesale: the early segments go fully dead and
    // must be unlinked after a checkpoint record lands.
    ASSERT_TRUE(store->TrimPrefix(2, 16).ok());
    EXPECT_GT(store->gc_deleted_segments(), 0u);
    EXPECT_LT(store->segment_count(), before);
    EXPECT_FALSE(std::filesystem::exists(SegPath(0)));
  }
  // Recovery reads only the surviving segments; the checkpoint must carry
  // the sealed epoch, the trim watermark and the tail across the gap.
  auto store = MustOpen(opts);
  EXPECT_EQ(store->sealed_epoch(), 2u);
  for (LogOffset o = 0; o < 16; ++o) {
    EXPECT_EQ(store->Get(2, o).status().code(), StatusCode::kTrimmed);
  }
  for (LogOffset o = 16; o < 32; ++o) {
    auto page = store->Get(2, o);
    ASSERT_TRUE(page.ok()) << "offset " << o;
    EXPECT_EQ(*page, PaddedEntry("gc-", o));
  }
  auto tail = store->LocalTail(2);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(*tail, 32u);
}

TEST_F(SegmentStoreTest, SparseOffsetsIndexReadTrimAndRecover) {
  // Local offsets 0, 2^20 and 2^40: the page index is chunked, so each costs
  // one chunk rather than an allocation spanning the gap.  They are written
  // out of offset order, so recovery rebuilds from unordered records.
  const LogOffset kMid = LogOffset{1} << 20;
  const LogOffset kFar = LogOffset{1} << 40;
  auto expect_page = [](SegmentStoreBackend& store, LogOffset o,
                        const std::string& want) {
    auto page = store.Get(0, o);
    ASSERT_TRUE(page.ok()) << "offset " << o << ": "
                           << page.status().ToString();
    EXPECT_EQ(Str(*page), want);
  };
  auto expect_code = [](SegmentStoreBackend& store, LogOffset o,
                        StatusCode code) {
    EXPECT_EQ(store.Get(0, o).status().code(), code) << "offset " << o;
  };
  {
    auto store = MustOpen(Opts());
    ASSERT_TRUE(store->Put(0, kFar, Bytes("far")).ok());
    ASSERT_TRUE(store->Put(0, 0, Bytes("zero")).ok());
    ASSERT_TRUE(store->Put(0, kMid + 1, Bytes("mid+1")).ok());
    ASSERT_TRUE(store->Put(0, kMid, Bytes("mid")).ok());
    EXPECT_EQ(store->Put(0, kMid, Bytes("again")).code(), StatusCode::kWritten);
    EXPECT_EQ(store->PageCount(), 4u);
    expect_page(*store, 0, "zero");
    expect_page(*store, kMid, "mid");
    expect_page(*store, kMid + 1, "mid+1");
    expect_page(*store, kFar, "far");
    expect_code(*store, 1, StatusCode::kUnwritten);
    expect_code(*store, kMid - 1, StatusCode::kUnwritten);
    expect_code(*store, kFar - 1, StatusCode::kUnwritten);
    expect_code(*store, kFar + 1, StatusCode::kUnwritten);
    std::vector<tango::Result<std::vector<uint8_t>>> batch;
    ASSERT_TRUE(store->GetBatch(0, {kFar, 7, 0}, &batch).ok());
    ASSERT_EQ(batch.size(), 3u);
    EXPECT_EQ(Str(*batch[0]), "far");
    EXPECT_EQ(batch[1].status().code(), StatusCode::kUnwritten);
    EXPECT_EQ(Str(*batch[2]), "zero");
  }
  {
    auto store = MustOpen(Opts());
    EXPECT_EQ(store->recovery_stats().pages_recovered, 4u);
    EXPECT_EQ(store->PageCount(), 4u);
    expect_page(*store, 0, "zero");
    expect_page(*store, kMid, "mid");
    expect_page(*store, kFar, "far");
    auto tail = store->LocalTail(0);
    ASSERT_TRUE(tail.ok());
    EXPECT_EQ(*tail, kFar + 1);

    ASSERT_TRUE(store->Trim(0, kMid).ok());
    expect_code(*store, kMid, StatusCode::kTrimmed);
    EXPECT_EQ(store->PageCount(), 3u);
    // Past 0, 2^20 and 2^20 + 1, short of 2^40.
    ASSERT_TRUE(store->TrimPrefix(0, kMid + 2).ok());
    EXPECT_EQ(store->PageCount(), 1u);
    EXPECT_EQ(store->trimmed_count(), 3u);
    expect_code(*store, 0, StatusCode::kTrimmed);
    expect_code(*store, kMid + 1, StatusCode::kTrimmed);
    expect_page(*store, kFar, "far");
    EXPECT_EQ(store->Put(0, 5, Bytes("late")).code(), StatusCode::kTrimmed);
  }
  // Recovery replays the trims over the unordered writes.
  auto store = MustOpen(Opts());
  EXPECT_EQ(store->PageCount(), 1u);
  EXPECT_EQ(store->trimmed_count(), 3u);
  expect_code(*store, 0, StatusCode::kTrimmed);
  expect_code(*store, kMid, StatusCode::kTrimmed);
  expect_code(*store, kMid + 1, StatusCode::kTrimmed);
  expect_page(*store, kFar, "far");
  expect_code(*store, kFar + 1, StatusCode::kUnwritten);
  // A trim-prefix past the last page empties the index.
  ASSERT_TRUE(store->TrimPrefix(0, kFar + 1).ok());
  EXPECT_EQ(store->PageCount(), 0u);
  expect_code(*store, kFar, StatusCode::kTrimmed);
  ASSERT_TRUE(store->Put(0, kFar + 1, Bytes("next")).ok());
  expect_page(*store, kFar + 1, "next");
}

TEST_F(SegmentStoreTest, ShortWritesAreRetriedToCompletion) {
  FaultPlan plan;
  plan.seed = 42;
  plan.short_write_prob = 0.7;
  FaultInjectingFs fs(PosixFileSystem(), plan);
  auto opts = Opts();
  opts.fs = &fs;
  {
    auto store = MustOpen(opts);
    for (LogOffset o = 0; o < 50; ++o) {
      ASSERT_TRUE(store->Put(0, o, Bytes("short-" + std::to_string(o))).ok());
    }
  }
  EXPECT_GT(fs.short_writes(), 0u);
  // Every acked append is whole on media despite the storm of short writes.
  auto store = MustOpen(Opts());
  for (LogOffset o = 0; o < 50; ++o) {
    auto page = store->Get(0, o);
    ASSERT_TRUE(page.ok()) << "offset " << o;
    EXPECT_EQ(Str(*page), "short-" + std::to_string(o));
  }
}

TEST_F(SegmentStoreTest, FsyncFailureFailsStopButReadsKeepServing) {
  auto opts = Opts();
  opts.fsync_batch = 1;
  auto store = MustOpen(opts);
  ASSERT_TRUE(store->Put(0, 0, Bytes("before")).ok());

  // Reopen through an fs that fails every fsync: the first durable op must
  // fail-stop the store.
  FaultPlan plan;
  plan.seed = 7;
  plan.sync_fail_prob = 1.0;
  FaultInjectingFs fs(PosixFileSystem(), plan);
  store.reset();
  opts.fs = &fs;
  store = MustOpen(opts);
  EXPECT_EQ(store->Put(0, 1, Bytes("doomed")).code(), StatusCode::kUnavailable);
  EXPECT_TRUE(store->failed());
  EXPECT_GT(fs.sync_failures(), 0u);
  // Mutations stay rejected; reads of recovered data keep working.
  EXPECT_EQ(store->Put(0, 2, Bytes("also-doomed")).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(store->Trim(0, 0).code(), StatusCode::kUnavailable);
  EXPECT_EQ(Str(*store->Get(0, 0)), "before");
}

TEST_F(SegmentStoreTest, EnospcFailsStopWithoutCorruptingThePrefix) {
  FaultPlan plan;
  plan.seed = 9;
  plan.capacity_bytes = 2000;
  FaultInjectingFs fs(PosixFileSystem(), plan);
  auto opts = Opts();
  opts.fs = &fs;
  opts.fsync_batch = 1;
  std::vector<LogOffset> acked;
  {
    auto store = MustOpen(opts);
    for (LogOffset o = 0; o < 200; ++o) {
      if (store->Put(0, o, Bytes("cap-" + std::to_string(o))).ok()) {
        acked.push_back(o);
      } else {
        break;  // disk full: fail-stop
      }
    }
    EXPECT_TRUE(store->failed());
  }
  EXPECT_GT(fs.enospc_failures(), 0u);
  ASSERT_FALSE(acked.empty());
  // The full disk lost nothing that was acked and fabricated nothing.
  auto store = MustOpen(Opts());
  for (LogOffset o : acked) {
    auto page = store->Get(0, o);
    ASSERT_TRUE(page.ok()) << "offset " << o;
    EXPECT_EQ(Str(*page), "cap-" + std::to_string(o));
  }
}

TEST_F(SegmentStoreTest, ConcurrentAppendersGroupCommit) {
  auto opts = Opts();
  opts.fsync_batch = 32;
  auto store = MustOpen(opts);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        LogOffset off = static_cast<LogOffset>(t * kPerThread + i);
        ASSERT_TRUE(store->Put(0, off, Bytes(std::to_string(off))).ok());
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  // Batched fsync must have merged durability waits: with fsync_batch=32 a
  // sync fires at most once per 32 written records even if the scheduler
  // serializes every append, so this bound is deterministic. The write(2)
  // count (group_flushes) is scheduling-dependent and only bounded above.
  const uint64_t total = static_cast<uint64_t>(kThreads) * kPerThread;
  EXPECT_LE(store->group_flushes(), total);
  EXPECT_LT(store->fsyncs(), total / 8);
  store.reset();
  auto revived = MustOpen(Opts());
  EXPECT_EQ(revived->PageCount(), static_cast<size_t>(kThreads) * kPerThread);
  for (int i = 0; i < kThreads * kPerThread; ++i) {
    auto page = revived->Get(0, static_cast<LogOffset>(i));
    ASSERT_TRUE(page.ok()) << "offset " << i;
    EXPECT_EQ(Str(*page), std::to_string(i));
  }
}

// A FileSystem decorator (over the real one by default) for the group-commit
// tests: appends and fsyncs can be slowed, fsyncs held at a gate, and it
// counts the bytes appended and the bytes covered by completed fsyncs.
class ObservedFs : public FileSystem {
 public:
  explicit ObservedFs(FileSystem* base = PosixFileSystem()) : base_(base) {}

  tango::Result<std::unique_ptr<File>> Open(const std::string& path) override {
    auto file = base_->Open(path);
    if (!file.ok()) {
      return file.status();
    }
    return std::unique_ptr<File>(
        std::make_unique<ObservedFile>(this, std::move(*file)));
  }
  tango::Result<std::vector<std::string>> List(
      const std::string& dir) override {
    return base_->List(dir);
  }
  tango::Status Remove(const std::string& path) override {
    return base_->Remove(path);
  }
  tango::Status CreateDir(const std::string& path) override {
    return base_->CreateDir(path);
  }
  bool Exists(const std::string& path) override { return base_->Exists(path); }

  // Holds every fsync that starts from now on until OpenGate.
  void CloseGate() {
    std::lock_guard<std::mutex> lock(gate_mu_);
    gate_open_ = false;
  }
  void OpenGate() {
    std::lock_guard<std::mutex> lock(gate_mu_);
    gate_open_ = true;
    gate_cv_.notify_all();
  }

  std::atomic<uint32_t> append_delay_us{0};
  std::atomic<uint32_t> sync_delay_ms{0};
  std::atomic<uint64_t> appended{0};     // bytes appended so far
  std::atomic<uint64_t> synced{0};       // bytes covered by a finished fsync
  std::atomic<uint64_t> syncs_begun{0};
  // Sync returns without reaching the media: an fsync that costs nothing.
  std::atomic<bool> instant_sync{false};

 private:
  class ObservedFile : public File {
   public:
    ObservedFile(ObservedFs* fs, std::unique_ptr<File> inner)
        : fs_(fs), inner_(std::move(inner)) {}
    tango::Result<size_t> Append(std::span<const uint8_t> bytes) override {
      std::this_thread::sleep_for(
          std::chrono::microseconds(fs_->append_delay_us.load()));
      auto n = inner_->Append(bytes);
      if (n.ok()) {
        fs_->appended.fetch_add(*n);
      }
      return n;
    }
    tango::Status Sync() override {
      uint64_t covered = fs_->appended.load();
      fs_->syncs_begun.fetch_add(1);
      {
        std::unique_lock<std::mutex> lock(fs_->gate_mu_);
        fs_->gate_cv_.wait(lock, [this] { return fs_->gate_open_; });
      }
      std::this_thread::sleep_for(
          std::chrono::milliseconds(fs_->sync_delay_ms.load()));
      tango::Status st = fs_->instant_sync ? tango::Status() : inner_->Sync();
      if (st.ok() && covered > fs_->synced.load()) {
        fs_->synced.store(covered);
      }
      return st;
    }
    tango::Result<size_t> ReadAt(uint64_t offset,
                                 std::span<uint8_t> out) override {
      return inner_->ReadAt(offset, out);
    }
    tango::Status Truncate(uint64_t size) override {
      return inner_->Truncate(size);
    }
    tango::Result<uint64_t> Size() override { return inner_->Size(); }

   private:
    ObservedFs* fs_;
    std::unique_ptr<File> inner_;
  };

  FileSystem* base_;
  std::mutex gate_mu_;
  std::condition_variable gate_cv_;
  bool gate_open_ = true;
};

TEST_F(SegmentStoreTest, GetBatchConcurrentWithPutNeverFailsTheCrc) {
  // Regression: GetBatch flushed and only then resolved its refs.  The flush
  // drops the lock, so a Put admitted in that window resolved to a ref past
  // the file's written end and read back as a CRC reject.
  ObservedFs fs;
  fs.append_delay_us = 100;  // holds each group write's window open
  auto opts = Opts();
  opts.fs = &fs;
  opts.fsync_batch = 1u << 30;  // keep fsync out of the race window
  auto store = MustOpen(opts);
  constexpr LogOffset kPages = 2000;
  auto payload = [](LogOffset o) { return "page-" + std::to_string(o); };
  std::atomic<LogOffset> acked{0};
  std::thread writer([&] {
    for (LogOffset o = 0; o < kPages; ++o) {
      ASSERT_TRUE(store->Put(0, o, Bytes(payload(o))).ok());
      acked.store(o + 1);
    }
  });
  std::vector<LogOffset> locals;
  std::vector<tango::Result<std::vector<uint8_t>>> pages;
  for (LogOffset done = 0; done < kPages;) {
    done = acked.load();
    // The newest acknowledged pages plus the ones being written right now.
    locals.clear();
    for (LogOffset o = done >= 4 ? done - 4 : 0; o < done + 4; ++o) {
      locals.push_back(o);
    }
    pages.clear();
    ASSERT_TRUE(store->GetBatch(0, locals, &pages).ok());
    for (size_t i = 0; i < locals.size(); ++i) {
      if (locals[i] < done) {
        ASSERT_TRUE(pages[i].ok()) << "acked page " << locals[i];
      }
      if (pages[i].ok()) {
        EXPECT_EQ(Str(*pages[i]), payload(locals[i]));
      }
    }
  }
  writer.join();
  EXPECT_EQ(store->corrupt_reads(), 0u);
}

// --- the fsync window --------------------------------------------------------
//
// Acked but unsynced records stay below fsync_batch.  The flusher fsyncs
// ahead of the window, a PutOrPark caller that finds it full parks its ack
// with the flusher, and a Put caller fsyncs inline.

constexpr size_t kWindowPayload = 16;
constexpr uint64_t kWindowRecord = SegmentStoreBackend::kFrameHeader +
                                   SegmentStoreBackend::kBodyHeader +
                                   kWindowPayload;

std::vector<uint8_t> WindowPayload() {
  return std::vector<uint8_t>(kWindowPayload, 'w');
}

TEST_F(SegmentStoreTest, AckedButUnsyncedRecordsStayBelowTheBatch) {
  ObservedFs fs;
  fs.sync_delay_ms = 2;  // slow enough that writers catch the window full
  auto opts = Opts();
  opts.fs = &fs;
  opts.fsync_batch = 8;
  opts.flush_interval_ms = 5;
  auto store = MustOpen(opts);
  tango::obs::Counter* waits =
      tango::obs::MetricsRegistry::Default().GetCounter(
          "storage.segment.window_waits");
  const uint64_t waits_before = waits->Value();

  // One writer, so record `o` ends at byte (o + 1) * kWindowRecord.
  constexpr LogOffset kRecords = 400;
  std::mutex mu;
  std::vector<uint64_t> acked_ends;
  std::vector<int> completions(kRecords, 0);
  auto on_ack = [&](LogOffset o, const tango::Status& st) {
    ASSERT_TRUE(st.ok()) << st.ToString();
    std::lock_guard<std::mutex> lock(mu);
    ++completions[o];
    acked_ends.push_back((o + 1) * kWindowRecord);
    uint64_t synced = fs.synced.load();
    size_t unsynced = static_cast<size_t>(
        std::count_if(acked_ends.begin(), acked_ends.end(),
                      [synced](uint64_t end) { return end > synced; }));
    EXPECT_LT(unsynced, opts.fsync_batch) << "at the ack of " << o;
  };
  std::atomic<int> parked{0};
  for (LogOffset o = 0; o < kRecords; ++o) {
    if (o % 2 == 0) {
      on_ack(o, store->Put(0, o, WindowPayload()));
      continue;
    }
    auto st = store->PutOrPark(0, o, WindowPayload(), [&, o] {
      parked.fetch_add(1);
      return [&on_ack, o](tango::Status s) { on_ack(o, s); };
    });
    if (st.has_value()) {
      on_ack(o, *st);
    }
  }
  ASSERT_TRUE(store->Sync().ok());
  store.reset();  // nothing may still be parked once the last fsync ran
  for (LogOffset o = 0; o < kRecords; ++o) {
    EXPECT_EQ(completions[o], 1) << "offset " << o;
  }
  EXPECT_GT(parked.load(), 0);
  EXPECT_GT(waits->Value(), waits_before);
}

TEST_F(SegmentStoreTest, AckThatAnFsyncAlreadyCoveredNeverWaits) {
  // The flusher fsyncs every written record, so a writer woken late can find
  // its record synced past both its own seq and every ack so far.  With a
  // window that never fills, no such ack may count as a window wait or park.
  ObservedFs fs;
  fs.instant_sync = true;  // so the fsync often beats a woken writer
  auto opts = Opts();
  opts.fs = &fs;
  opts.fsync_batch = 1u << 30;
  opts.flush_interval_ms = 1;
  auto store = MustOpen(opts);
  tango::obs::Counter* waits =
      tango::obs::MetricsRegistry::Default().GetCounter(
          "storage.segment.window_waits");
  const uint64_t waits_before = waits->Value();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::atomic<int> parked{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        LogOffset off = static_cast<LogOffset>(t * kPerThread + i);
        auto st = store->PutOrPark(0, off, WindowPayload(), [&] {
          parked.fetch_add(1);
          return [](tango::Status) {};
        });
        EXPECT_TRUE(st.has_value() && st->ok()) << "offset " << off;
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(parked.load(), 0);
  EXPECT_EQ(waits->Value(), waits_before);
}

TEST_F(SegmentStoreTest, PutBelowTheWindowDoesNotWaitForTheFsyncInFlight) {
  ObservedFs fs;
  fs.sync_delay_ms = 50;
  auto opts = Opts();
  opts.fs = &fs;
  opts.fsync_batch = 8;
  opts.flush_interval_ms = 10'000;  // only fsync-ahead kicks the flusher
  auto store = MustOpen(opts);
  auto timed_put = [&](LogOffset o) {
    uint64_t start = tango::NowMicros();
    EXPECT_TRUE(store->Put(0, o, WindowPayload()).ok());
    return tango::NowMicros() - start;
  };
  // The 4th record (half the window) starts the flusher's fsync.
  for (LogOffset o = 0; o < 4; ++o) {
    timed_put(o);
  }
  while (fs.syncs_begun.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Records 5-7 still fit: 7 acked, none synced yet.
  for (LogOffset o = 4; o < 7; ++o) {
    EXPECT_LT(timed_put(o), 30'000u) << "offset " << o;
  }
  // The 8th would fill the window, so its ack waits for an fsync covering it.
  EXPECT_GE(timed_put(7), 45'000u);
  EXPECT_GE(fs.synced.load(), 8 * kWindowRecord);
}

// Parks records 3 and 4 of a batch-4 window while the flusher's first fsync,
// which covers records 0 and 1 only, is held at the gate.
void ParkTwoBehindAGatedFsync(SegmentStoreBackend* store, ObservedFs* fs,
                              std::vector<std::atomic<int>>* calls,
                              std::vector<tango::Status>* statuses) {
  // "ok", "parked" or the error.
  auto put = [&](LogOffset o) -> std::string {
    auto st = store->PutOrPark(0, o, WindowPayload(), [=] {
      return [=](tango::Status s) {
        (*statuses)[o] = s;
        (*calls)[o].fetch_add(1);
      };
    });
    return st.has_value() ? (st->ok() ? "ok" : st->ToString()) : "parked";
  };
  fs->CloseGate();
  ASSERT_EQ(put(0), "ok");
  ASSERT_EQ(put(1), "ok");  // half the window written: kicks the flusher
  while (fs->syncs_begun.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(put(2), "ok");
  ASSERT_EQ(put(3), "parked");
  ASSERT_EQ(put(4), "parked");
}

TEST_F(SegmentStoreTest, ParkedAcksFailOnceOnFailStop) {
  FaultPlan plan;
  plan.seed = 3;
  plan.sync_fail_prob = 1.0;
  FaultInjectingFs faulty(PosixFileSystem(), plan);
  ObservedFs fs(&faulty);
  auto opts = Opts();
  opts.fs = &fs;
  opts.fsync_batch = 4;
  opts.flush_interval_ms = 10'000;
  auto store = MustOpen(opts);
  std::vector<std::atomic<int>> calls(5);
  std::vector<tango::Status> statuses(5);
  ParkTwoBehindAGatedFsync(store.get(), &fs, &calls, &statuses);
  fs.OpenGate();  // the held fsync fails: fail-stop
  while (calls[3].load() + calls[4].load() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(store->failed());
  EXPECT_EQ(store->Put(0, 5, WindowPayload()).code(), StatusCode::kUnavailable);
  store.reset();
  for (LogOffset o : {3, 4}) {
    EXPECT_EQ(calls[o].load(), 1) << "offset " << o;
    EXPECT_EQ(statuses[o].code(), StatusCode::kUnavailable) << "offset " << o;
  }
}

TEST_F(SegmentStoreTest, ParkedAcksFailOnceOnStoreDestruction) {
  ObservedFs fs;
  auto opts = Opts();
  opts.fs = &fs;
  opts.fsync_batch = 4;
  opts.flush_interval_ms = 10'000;
  auto store = MustOpen(opts);
  std::vector<std::atomic<int>> calls(5);
  std::vector<tango::Status> statuses(5);
  ParkTwoBehindAGatedFsync(store.get(), &fs, &calls, &statuses);
  // Release the held fsync only once the destructor has stopped the flusher,
  // so no later flusher round covers the parked records.
  std::thread opener([&fs] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    fs.OpenGate();
  });
  store.reset();
  opener.join();
  for (LogOffset o : {3, 4}) {
    EXPECT_EQ(calls[o].load(), 1) << "offset " << o;
    EXPECT_EQ(statuses[o].code(), StatusCode::kUnavailable) << "offset " << o;
  }
}

// ---------------------------------------------------------------------------
// Property test: for ANY byte-level crash point in the log, recovery yields
// exactly the state of some prefix of the acknowledged operations — every
// recovered op is byte-exact, everything after the cut is a hole, and
// nothing ever reads back as garbage.

struct ModelOp {
  enum Kind { kPut, kTrim, kTrimPrefix, kSeal } kind;
  LogOffset off = 0;
  Epoch epoch = 0;
  std::vector<uint8_t> bytes;
};

struct ModelState {
  std::map<LogOffset, std::vector<uint8_t>> pages;
  std::set<LogOffset> trimmed;
  LogOffset prefix = 0;
  LogOffset tail = 0;
  Epoch sealed = 0;

  void Apply(const ModelOp& op) {
    switch (op.kind) {
      case ModelOp::kPut:
        pages[op.off] = op.bytes;
        tail = std::max(tail, op.off + 1);
        break;
      case ModelOp::kTrim:
        pages.erase(op.off);
        trimmed.insert(op.off);
        break;
      case ModelOp::kTrimPrefix:
        for (auto it = pages.begin();
             it != pages.end() && it->first < op.off;) {
          it = pages.erase(it);
        }
        for (auto it = trimmed.begin();
             it != trimmed.end() && *it < op.off;) {
          it = trimmed.erase(it);
        }
        prefix = std::max(prefix, op.off);
        break;
      case ModelOp::kSeal:
        sealed = op.epoch;
        break;
    }
  }
};

TEST_F(SegmentStoreTest, AnyCrashPointRecoversAnExactOperationPrefix) {
  for (uint64_t seed : tango_test::ChaosSeeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::filesystem::remove_all(dir_);
    tango::Rng rng(seed);

    // Generate a workload where every op durably appends exactly one record,
    // so record K on disk corresponds to ops[K].
    std::vector<ModelOp> ops;
    ModelState gen;
    LogOffset next_off = 0;
    for (int i = 0; i < 120; ++i) {
      uint64_t dice = rng.NextBelow(10);
      ModelOp op;
      op.epoch = gen.sealed;
      if (dice < 6 || next_off <= gen.prefix) {
        op.kind = ModelOp::kPut;
        op.off = next_off++;
        size_t len = 1 + rng.NextBelow(60);
        op.bytes.resize(len);
        for (size_t b = 0; b < len; ++b) {
          op.bytes[b] = static_cast<uint8_t>(rng.Next());
        }
      } else if (dice < 8) {
        // Only offsets already allocated: trimming a future offset would be
        // rejected by a later Put and break the op <-> record mapping.
        op.kind = ModelOp::kTrim;
        op.off = gen.prefix + rng.NextBelow(next_off - gen.prefix);
      } else if (dice == 8 && gen.prefix < next_off) {
        op.kind = ModelOp::kTrimPrefix;
        op.off = gen.prefix + 1 + rng.NextBelow(next_off - gen.prefix);
      } else {
        op.kind = ModelOp::kSeal;
        op.epoch = gen.sealed + 1 + static_cast<Epoch>(rng.NextBelow(3));
      }
      gen.Apply(op);
      ops.push_back(std::move(op));
    }

    {
      auto store = MustOpen(Opts());
      for (const ModelOp& op : ops) {
        switch (op.kind) {
          case ModelOp::kPut:
            ASSERT_TRUE(store->Put(op.epoch, op.off, op.bytes).ok());
            break;
          case ModelOp::kTrim:
            ASSERT_TRUE(store->Trim(op.epoch, op.off).ok());
            break;
          case ModelOp::kTrimPrefix:
            ASSERT_TRUE(store->TrimPrefix(op.epoch, op.off).ok());
            break;
          case ModelOp::kSeal:
            ASSERT_TRUE(store->Seal(op.epoch).ok());
            break;
        }
      }
    }

    uint64_t full_size = std::filesystem::file_size(SegPath(0));
    auto pristine = dir_.string() + ".pristine";
    std::filesystem::remove_all(pristine);
    std::filesystem::copy(dir_, pristine);

    for (int trial = 0; trial < 24; ++trial) {
      // Crash at a random byte: everything past `cut` was still in flight.
      uint64_t cut = rng.NextBelow(full_size + 1);
      std::filesystem::remove_all(dir_);
      std::filesystem::copy(pristine, dir_);
      ASSERT_TRUE(TearFileTail(SegPath(0), full_size - cut).ok());

      auto store = MustOpen(Opts());
      uint64_t replayed = store->recovery_stats().records_replayed;
      ASSERT_LE(replayed, ops.size());
      ModelState model;
      for (uint64_t k = 0; k < replayed; ++k) {
        model.Apply(ops[k]);
      }

      EXPECT_EQ(store->sealed_epoch(), model.sealed);
      auto tail = store->LocalTail(model.sealed);
      ASSERT_TRUE(tail.ok());
      EXPECT_EQ(*tail, model.tail);
      for (LogOffset o = 0; o < next_off; ++o) {
        auto page = store->Get(model.sealed, o);
        auto it = model.pages.find(o);
        if (it != model.pages.end()) {
          ASSERT_TRUE(page.ok())
              << "acked offset " << o << " lost at cut " << cut;
          EXPECT_EQ(*page, it->second) << "garbage at offset " << o;
        } else if (o < model.prefix || model.trimmed.contains(o)) {
          EXPECT_EQ(page.status().code(), StatusCode::kTrimmed);
        } else {
          EXPECT_EQ(page.status().code(), StatusCode::kUnwritten)
              << "unacked offset " << o << " must be a hole, cut " << cut;
        }
      }
    }
    std::filesystem::remove_all(pristine);
  }
}

// ---------------------------------------------------------------------------
// Fork/kill -9 storm: a child process appends as fast as it can and reports
// each acknowledged offset over a pipe; the parent SIGKILLs it mid-storm,
// recovers the store, and verifies that every acked append survived intact.

std::vector<uint8_t> StormPayload(uint64_t seed, LogOffset off) {
  tango::Rng rng(seed * 1000003 + off);
  std::vector<uint8_t> bytes(16 + rng.NextBelow(120));
  for (auto& b : bytes) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return bytes;
}

std::vector<uint64_t> CrashSeeds() {
  const char* env = std::getenv("TANGO_CRASH_SEED");
  if (env != nullptr && *env != '\0') {
    return {std::strtoull(env, nullptr, 10)};
  }
  return {3, 17};
}

TEST_F(SegmentStoreTest, KillNineMidStormLosesNoAckedAppend) {
  for (uint64_t seed : CrashSeeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::filesystem::remove_all(dir_);

    int pipefd[2];
    ASSERT_EQ(::pipe(pipefd), 0);
    pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      // --- child: append storm, ack AFTER Put returns ---
      ::close(pipefd[0]);
      SegmentStoreOptions o;
      o.dir = dir_.string();
      o.segment_bytes = 32 << 10;  // small: exercise rolls under fire
      o.fsync_batch = 8;
      o.flush_interval_ms = 2;
      auto store = SegmentStoreBackend::Open(std::move(o));
      if (!store.ok()) {
        ::_exit(2);
      }
      for (LogOffset off = 0; off < 50000; ++off) {
        if (!(*store)->Put(0, off, StormPayload(seed, off)).ok()) {
          ::_exit(3);
        }
        uint64_t acked = off;
        if (::write(pipefd[1], &acked, sizeof(acked)) != sizeof(acked)) {
          ::_exit(4);
        }
      }
      ::_exit(0);
    }

    // --- parent: drain acks concurrently, then kill -9 mid-storm ---
    ::close(pipefd[1]);
    std::vector<uint64_t> acked;
    std::thread drainer([&] {
      uint64_t off;
      ssize_t n;
      while ((n = ::read(pipefd[0], &off, sizeof(off))) == sizeof(off)) {
        acked.push_back(off);
      }
    });
    std::this_thread::sleep_for(
        std::chrono::milliseconds(20 + (seed * 13) % 60));
    ::kill(child, SIGKILL);
    int status = 0;
    ::waitpid(child, &status, 0);
    drainer.join();
    ::close(pipefd[0]);
    ASSERT_FALSE(acked.empty()) << "child died before acking anything";

    // Recover and audit: every acked offset byte-exact, write-once intact,
    // unacked offsets are exact-or-hole (never garbage).
    auto store = MustOpen(Opts());
    LogOffset max_acked = acked.back();
    for (uint64_t off : acked) {
      auto page = store->Get(0, off);
      ASSERT_TRUE(page.ok()) << "ACKED APPEND LOST at offset " << off;
      EXPECT_EQ(*page, StormPayload(seed, off)) << "garbage at " << off;
      EXPECT_EQ(store->Put(0, off, Bytes("x")).code(), StatusCode::kWritten);
    }
    for (LogOffset off = 0; off <= max_acked + 5; ++off) {
      auto page = store->Get(0, off);
      if (page.ok()) {
        EXPECT_EQ(*page, StormPayload(seed, off))
            << "slot " << off << " reads back garbage";
      } else {
        EXPECT_EQ(page.status().code(), StatusCode::kUnwritten);
      }
    }
  }
}

}  // namespace
}  // namespace corfu::storage
