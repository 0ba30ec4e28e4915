#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "src/objects/tango_bookkeeper.h"
#include "tests/test_env.h"

namespace tango {
namespace {

using tango_test::ClusterFixture;

class BkTest : public ClusterFixture {
 protected:
  BkTest()
      : client_a_(MakeClient()),
        client_b_(MakeClient()),
        rt_a_(client_a_.get()),
        rt_b_(client_b_.get()),
        bk_(&rt_a_, 1) {}

  std::unique_ptr<corfu::CorfuClient> client_a_;
  std::unique_ptr<corfu::CorfuClient> client_b_;
  TangoRuntime rt_a_;
  TangoRuntime rt_b_;
  TangoBk bk_;
};

TEST_F(BkTest, CreateWriteRead) {
  auto handle = bk_.CreateLedger();
  ASSERT_TRUE(handle.ok());
  auto e0 = bk_.AddEntry(*handle, "first");
  auto e1 = bk_.AddEntry(*handle, "second");
  ASSERT_TRUE(e0.ok());
  ASSERT_TRUE(e1.ok());
  EXPECT_EQ(*e0, 0u);
  EXPECT_EQ(*e1, 1u);
  auto read = bk_.ReadEntry(handle->id, 0);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "first");
  auto count = bk_.EntryCount(handle->id);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 2u);
}

TEST_F(BkTest, LedgerIdsUnique) {
  auto h1 = bk_.CreateLedger();
  auto h2 = bk_.CreateLedger();
  ASSERT_TRUE(h1.ok());
  ASSERT_TRUE(h2.ok());
  EXPECT_NE(h1->id, h2->id);
}

TEST_F(BkTest, ReadsVisibleAtOtherClient) {
  TangoBk reader(&rt_b_, 1);
  auto handle = bk_.CreateLedger();
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(bk_.AddEntry(*handle, "replicated").ok());
  auto read = reader.ReadEntry(handle->id, 0);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "replicated");
}

// A replica whose ledger creates apply slowly, so a parallel playback that
// does not order an add after its ledger's create runs the add first.
class SlowCreateBk : public TangoBk {
 public:
  using TangoBk::TangoBk;
  void Apply(std::span<const uint8_t> update,
             corfu::LogOffset offset) override {
    if (!update.empty() && update[0] == 1) {  // TangoBk::kCreateLedger
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    TangoBk::Apply(update, offset);
  }
};

TEST_F(BkTest, ParallelReplayMatchesSequential) {
  // A ledger's create and its adds share one playback window in a fresh
  // view.  Parallel playback must apply the create first, as the sequential
  // reference does, or the view drops the adds for good.
  auto handle = bk_.CreateLedger();
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(bk_.AddEntry(*handle, "e0").ok());
  ASSERT_TRUE(bk_.AddEntry(*handle, "e1").ok());
  for (int round = 0; round < 200; ++round) {
    std::vector<uint8_t> ledgers[2];
    for (int workers : {4, 0}) {
      auto client = MakeClient();
      TangoRuntime::Options options;
      options.playback_workers = workers;
      TangoRuntime runtime(client.get(), options);
      SlowCreateBk replica(&runtime, 1);
      auto count = replica.EntryCount(handle->id);
      ASSERT_TRUE(count.ok()) << count.status().ToString();
      ASSERT_EQ(*count, 2u) << "round " << round << ", " << workers
                            << " workers";
      ledgers[workers == 0] = replica.Checkpoint();
    }
    ASSERT_EQ(ledgers[0], ledgers[1]) << "round " << round;
  }
}

TEST_F(BkTest, MissingLedgerAndEntry) {
  EXPECT_EQ(bk_.ReadEntry(999, 0).status().code(), StatusCode::kNotFound);
  auto handle = bk_.CreateLedger();
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(bk_.ReadEntry(handle->id, 5).status().code(),
            StatusCode::kOutOfRange);
}

TEST_F(BkTest, CloseStopsWrites) {
  auto handle = bk_.CreateLedger();
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(bk_.AddEntry(*handle, "x").ok());
  ASSERT_TRUE(bk_.CloseLedger(*handle).ok());
  EXPECT_EQ(bk_.AddEntry(*handle, "late").status().code(),
            StatusCode::kFailedPrecondition);
  auto closed = bk_.IsClosed(handle->id);
  ASSERT_TRUE(closed.ok());
  EXPECT_TRUE(*closed);
  auto count = bk_.EntryCount(handle->id);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 1u);
}

TEST_F(BkTest, FencingRevokesWriter) {
  // The BookKeeper recovery idiom: the reader fences, then no write from the
  // old writer — even one already in flight conceptually — can be accepted.
  TangoBk reader(&rt_b_, 1);
  auto handle = bk_.CreateLedger();
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(bk_.AddEntry(*handle, "before-fence").ok());

  auto last = reader.OpenAndFence(handle->id);
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(*last, 1u);

  // Old writer's appends after the fence are dropped by every view.
  (void)bk_.AddEntry(*handle, "after-fence");  // may fail fast or be dropped
  auto count = reader.EntryCount(handle->id);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 1u);
  // And the writer observes the revocation on a subsequent call.
  ASSERT_TRUE(bk_.EntryCount(handle->id).ok());  // syncs writer's view
  EXPECT_EQ(bk_.AddEntry(*handle, "again").status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(BkTest, FenceMissingLedger) {
  EXPECT_EQ(bk_.OpenAndFence(42).status().code(), StatusCode::kNotFound);
}

TEST_F(BkTest, StaleWriterTokenIgnored) {
  // An append carrying the wrong writer token (a zombie from a previous
  // incarnation) is dropped deterministically by every view.
  auto handle = bk_.CreateLedger();
  ASSERT_TRUE(handle.ok());
  ByteWriter w;
  w.PutU8(2);  // TangoBk::kAddEntry
  w.PutU64(handle->id);
  w.PutU64(handle->writer_token + 12345);  // forged token
  w.PutString("zombie");
  ASSERT_TRUE(rt_b_.UpdateHelper(1, w.bytes(), handle->id).ok());
  auto count = bk_.EntryCount(handle->id);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 0u);
}

TEST_F(BkTest, RebuildAfterReboot) {
  auto handle = bk_.CreateLedger();
  ASSERT_TRUE(handle.ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(bk_.AddEntry(*handle, "e" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(bk_.CloseLedger(*handle).ok());

  auto fresh_client = MakeClient();
  TangoRuntime fresh(fresh_client.get());
  TangoBk rebooted(&fresh, 1);
  auto count = rebooted.EntryCount(handle->id);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 5u);
  EXPECT_EQ(*rebooted.ReadEntry(handle->id, 4), "e4");
  EXPECT_TRUE(*rebooted.IsClosed(handle->id));
}

}  // namespace
}  // namespace tango
