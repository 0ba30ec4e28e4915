#include <gtest/gtest.h>

#include <thread>

#include "src/corfu/log_client.h"
#include "src/util/threading.h"
#include "tests/test_env.h"

namespace corfu {
namespace {

using tango::StatusCode;
using tango_test::Bytes;
using tango_test::ClusterFixture;
using tango_test::CounterValue;
using tango_test::Str;

class LogClientTest : public ClusterFixture {
 protected:
  LogClientTest() : client_(MakeClient()) {}

  std::unique_ptr<CorfuClient> client_;
};

TEST_F(LogClientTest, AppendReturnsSequentialOffsets) {
  for (LogOffset expected = 0; expected < 20; ++expected) {
    auto offset = client_->Append(Bytes("entry"));
    ASSERT_TRUE(offset.ok());
    EXPECT_EQ(*offset, expected);
  }
}

TEST_F(LogClientTest, AppendThenRead) {
  auto offset = client_->Append(Bytes("payload-1"));
  ASSERT_TRUE(offset.ok());
  auto entry = client_->Read(*offset);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(Str(entry->payload), "payload-1");
  EXPECT_EQ(entry->type, EntryType::kData);
}

TEST_F(LogClientTest, ReadsVisibleToOtherClients) {
  auto other = MakeClient();
  auto offset = client_->Append(Bytes("shared"));
  ASSERT_TRUE(offset.ok());
  auto entry = other->Read(*offset);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(Str(entry->payload), "shared");
}

TEST_F(LogClientTest, CheckTailAdvances) {
  auto t0 = client_->CheckTail();
  ASSERT_TRUE(t0.ok());
  EXPECT_EQ(*t0, 0u);
  ASSERT_TRUE(client_->Append(Bytes("a")).ok());
  ASSERT_TRUE(client_->Append(Bytes("b")).ok());
  auto t2 = client_->CheckTail();
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(*t2, 2u);
}

TEST_F(LogClientTest, SlowCheckMatchesFastCheck) {
  for (int i = 0; i < 13; ++i) {
    ASSERT_TRUE(client_->Append(Bytes("x")).ok());
  }
  auto fast = client_->CheckTail();
  auto slow = client_->CheckTailSlow();
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(slow.ok());
  EXPECT_EQ(*fast, *slow);
}

TEST_F(LogClientTest, ReadUnwritten) {
  EXPECT_EQ(client_->Read(999).status().code(), StatusCode::kUnwritten);
}

TEST_F(LogClientTest, LinearizableReadSeesCompletedAppend) {
  // "a read or check is guaranteed to see any completed append" (§2.2).
  auto offset = client_->Append(Bytes("durable"));
  ASSERT_TRUE(offset.ok());
  auto tail = client_->CheckTail();
  ASSERT_TRUE(tail.ok());
  EXPECT_GT(*tail, *offset);
  auto other = MakeClient();
  EXPECT_TRUE(other->Read(*offset).ok());
}

TEST_F(LogClientTest, FillCreatesJunk) {
  // Simulate a crashed client: grab an offset, never write it.
  auto grant = SequencerNext(&transport_, client_->projection().sequencer,
                             client_->projection().epoch, 1, {});
  ASSERT_TRUE(grant.ok());
  ASSERT_TRUE(client_->Fill(grant->start).ok());
  auto entry = client_->Read(grant->start);
  ASSERT_TRUE(entry.ok());
  EXPECT_TRUE(entry->is_junk());
}

TEST_F(LogClientTest, FillLosesToExistingValue) {
  auto offset = client_->Append(Bytes("winner"));
  ASSERT_TRUE(offset.ok());
  ASSERT_TRUE(client_->Fill(*offset).ok());  // resolves, value unchanged
  auto entry = client_->Read(*offset);
  ASSERT_TRUE(entry.ok());
  EXPECT_FALSE(entry->is_junk());
  EXPECT_EQ(Str(entry->payload), "winner");
}

TEST_F(LogClientTest, WriteLosesToFill) {
  // A stalled writer whose offset got filled must not overwrite the junk;
  // the append retries on a fresh offset instead.
  auto grant = SequencerNext(&transport_, client_->projection().sequencer,
                             client_->projection().epoch, 1, {});
  ASSERT_TRUE(grant.ok());
  ASSERT_TRUE(client_->Fill(grant->start).ok());
  // The client's next append transparently skips the burned offset.
  auto offset = client_->Append(Bytes("later"));
  ASSERT_TRUE(offset.ok());
  EXPECT_GT(*offset, grant->start);
}

TEST_F(LogClientTest, ReadRepairFillsHole) {
  auto grant = SequencerNext(&transport_, client_->projection().sequencer,
                             client_->projection().epoch, 1, {});
  ASSERT_TRUE(grant.ok());
  ASSERT_TRUE(client_->Append(Bytes("after-hole")).ok());
  // ReadRepair waits out the (5 ms) hole timeout, then fills.
  auto entry = client_->ReadRepair(grant->start);
  ASSERT_TRUE(entry.ok());
  EXPECT_TRUE(entry->is_junk());
}

TEST_F(LogClientTest, ReadRepairSeesLateWriter) {
  // A writer that lands within the hole timeout is returned as data, not
  // filled.  The "writer" here is a second client's fill racing the reader's
  // longer-fused repair — from the reader's perspective both are late
  // resolutions of the same hole.
  CorfuClient::Options slow;
  slow.hole_timeout_ms = 500;
  auto reader = cluster_->MakeClient(slow);
  auto grant = SequencerNext(&transport_, client_->projection().sequencer,
                             client_->projection().epoch, 1, {});
  ASSERT_TRUE(grant.ok());

  std::thread late_writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(client_->Fill(grant->start).ok());
  });
  auto entry = reader->ReadRepair(grant->start);
  late_writer.join();
  ASSERT_TRUE(entry.ok());
  EXPECT_TRUE(entry->is_junk());
}

TEST_F(LogClientTest, ReadRepairWaitsOnOwnStalledWriteWithoutPolling) {
  // The chain tail's write of offset 0 stalls for 200 ms.  A concurrent
  // ReadRepair of that offset by the writing client waits on the write's
  // completion and reads once more, instead of polling the tail every
  // 200 us (hundreds of reads over the stall).
  tango_test::FaultTransport faults(&transport_, /*seed=*/19);
  CorfuClient::Options options;
  options.hole_timeout_ms = 2000;
  CorfuClient client(&faults, cluster_->options().projection_store_node,
                     options);
  const LogOffset offset = 0;  // the first append to a fresh log
  faults.Delay(kStorageWrite, 200'000,
               client.projection().ChainFor(offset).back());
  const uint64_t polls_before = CounterValue("log.hole.polls");
  const uint64_t waits_before = CounterValue("log.hole.completion_waits");

  std::thread writer([&] {
    auto appended = client.Append(Bytes("stalled"));
    ASSERT_TRUE(appended.ok());
    EXPECT_EQ(*appended, offset);
  });
  for (;;) {  // the offset is granted, so it is inside the tail
    auto tail = client.CheckTail();
    ASSERT_TRUE(tail.ok());
    if (*tail > offset) {
      break;
    }
    std::this_thread::yield();
  }
  const uint64_t reads_before = faults.calls(kStorageRead);
  auto entry = client.ReadRepair(offset);
  const uint64_t reads = faults.calls(kStorageRead) - reads_before;
  writer.join();

  EXPECT_LE(reads, 2u) << "the reader polled the stalled offset";
  EXPECT_EQ(CounterValue("log.hole.polls") - polls_before, 0u);
  EXPECT_EQ(CounterValue("log.hole.completion_waits") - waits_before, 1u);
  ASSERT_TRUE(entry.ok()) << entry.status().ToString();
  EXPECT_FALSE(entry->is_junk());
  EXPECT_EQ(Str(entry->payload), "stalled");
}

TEST_F(LogClientTest, GrantedButUnwrittenTokenIsFilledAfterHoleTimeout) {
  // A token granted to a writer that never writes (a crashed client) is not
  // this client's: the reader polls, then fills after hole_timeout_ms.
  const uint64_t fills_before = CounterValue("log.fills");
  const uint64_t timeouts_before = CounterValue("log.hole_timeouts");
  const uint64_t polls_before = CounterValue("log.hole.polls");
  auto grant = SequencerNext(&transport_, client_->projection().sequencer,
                             client_->projection().epoch, 1, {});
  ASSERT_TRUE(grant.ok());
  ASSERT_TRUE(client_->Append(Bytes("after-hole")).ok());

  const uint64_t start_us = tango::NowMicros();
  auto entry = client_->ReadRepair(grant->start);
  ASSERT_TRUE(entry.ok());
  EXPECT_TRUE(entry->is_junk());
  EXPECT_GE(tango::NowMicros() - start_us,
            client_->options().hole_timeout_ms * 1000ull);
  EXPECT_EQ(CounterValue("log.fills") - fills_before, 1u);
  EXPECT_EQ(CounterValue("log.hole_timeouts") - timeouts_before, 1u);
  EXPECT_GT(CounterValue("log.hole.polls") - polls_before, 0u);
}

TEST_F(LogClientTest, TrimSingle) {
  auto offset = client_->Append(Bytes("gone"));
  ASSERT_TRUE(offset.ok());
  ASSERT_TRUE(client_->Trim(*offset).ok());
  EXPECT_EQ(client_->Read(*offset).status().code(), StatusCode::kTrimmed);
}

TEST_F(LogClientTest, TrimPrefix) {
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(client_->Append(Bytes("e" + std::to_string(i))).ok());
  }
  ASSERT_TRUE(client_->TrimPrefix(7).ok());
  for (LogOffset o = 0; o < 7; ++o) {
    EXPECT_EQ(client_->Read(o).status().code(), StatusCode::kTrimmed) << o;
  }
  for (LogOffset o = 7; o < 12; ++o) {
    EXPECT_TRUE(client_->Read(o).ok()) << o;
  }
}

TEST_F(LogClientTest, EntryTooLargeRejected) {
  std::vector<uint8_t> big(8192, 1);
  EXPECT_EQ(client_->Append(big).status().code(), StatusCode::kOutOfRange);
}

TEST_F(LogClientTest, ConcurrentAppendsAllLand) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  tango::RunParallel(kThreads, [&](int t) {
    auto client = MakeClient();
    for (int i = 0; i < kPerThread; ++i) {
      auto offset =
          client->Append(Bytes(std::to_string(t) + ":" + std::to_string(i)));
      ASSERT_TRUE(offset.ok());
    }
  });
  auto tail = client_->CheckTail();
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(*tail, static_cast<LogOffset>(kThreads * kPerThread));
  // Every offset is written and readable.
  for (LogOffset o = 0; o < *tail; ++o) {
    EXPECT_TRUE(client_->Read(o).ok()) << o;
  }
}

TEST_F(LogClientTest, MirroredAcrossReplicas) {
  auto offset = client_->Append(Bytes("replicated"));
  ASSERT_TRUE(offset.ok());
  // Direct storage-level reads: every replica in the chain has the entry.
  Projection p = client_->projection();
  const auto& chain = p.ChainFor(*offset);
  ASSERT_EQ(chain.size(), 2u);
  for (tango::NodeId node : chain) {
    tango::ByteWriter w;
    w.PutU32(p.epoch);
    w.PutU64(p.LocalOffsetFor(*offset));
    std::vector<uint8_t> resp;
    EXPECT_TRUE(transport_.Call(node, kStorageRead, w.bytes(), &resp).ok());
  }
}

// --- reconfiguration ---------------------------------------------------------

TEST_F(LogClientTest, SequencerReplacement) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client_->Append(Bytes("pre-" + std::to_string(i))).ok());
  }
  ASSERT_TRUE(cluster_->ReplaceSequencer(client_.get()).ok());
  EXPECT_EQ(client_->projection().epoch, 1u);

  // The new sequencer resumes from the sealed tail: no offset reuse.
  auto offset = client_->Append(Bytes("post"));
  ASSERT_TRUE(offset.ok());
  EXPECT_EQ(*offset, 10u);
  auto entry = client_->Read(5);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(Str(entry->payload), "pre-5");
}

TEST_F(LogClientTest, StaleClientFencedAfterReconfig) {
  auto stale = MakeClient();
  ASSERT_TRUE(client_->Append(Bytes("seed")).ok());
  ASSERT_TRUE(cluster_->ReplaceSequencer(client_.get()).ok());
  // The stale client still holds epoch 0; its next op refreshes transparently.
  auto offset = stale->Append(Bytes("from-stale"));
  ASSERT_TRUE(offset.ok());
  EXPECT_EQ(stale->projection().epoch, 1u);
}

TEST_F(LogClientTest, SequencerStateSurvivesReplacement) {
  // Stream backpointer state must be rebuilt from the log (§5).
  std::vector<StreamId> streams{3};
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(client_->AppendToStreams(Bytes("s"), streams).ok());
  }
  ASSERT_TRUE(cluster_->ReplaceSequencer(client_.get()).ok());
  auto info = client_->StreamTails(streams);
  ASSERT_TRUE(info.ok());
  ASSERT_FALSE(info->backpointers[0].empty());
  EXPECT_EQ(info->backpointers[0][0], 5u);
}

TEST_F(LogClientTest, SequencerCheckpointBoundsRecoveryScan) {
  // §5's planned optimization: with a sequencer-state checkpoint in the log,
  // recovery stops scanning when it reaches the checkpoint instead of
  // walking the whole history.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client_->AppendToStreams(Bytes("old"), {5}).ok());
  }
  auto checkpoint = client_->WriteSequencerCheckpoint();
  ASSERT_TRUE(checkpoint.ok());
  ASSERT_TRUE(client_->AppendToStreams(Bytes("new"), {6}).ok());

  // A scan budget far smaller than the history still recovers stream 5,
  // because the checkpoint summarizes it.
  auto state = client_->RebuildSequencerState(/*max_entries=*/5);
  ASSERT_TRUE(state.ok());
  ASSERT_TRUE(state->contains(5));
  EXPECT_EQ((*state)[5][0], 19u);  // last stream-5 entry
  ASSERT_TRUE(state->contains(6));
  EXPECT_EQ((*state)[6][0], 21u);

  // Fail over with the bounded scan: the replacement sequencer still knows
  // both streams.
  ASSERT_TRUE(cluster_->ReplaceSequencer(client_.get()).ok());
  auto info = client_->StreamTails({5, 6});
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->backpointers[0][0], 19u);
  EXPECT_EQ(info->backpointers[1][0], 21u);
}

TEST_F(LogClientTest, RebuildSequencerStateScansBackward) {
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client_->AppendToStreams(Bytes("x"), {7}).ok());
    ASSERT_TRUE(client_->AppendToStreams(Bytes("y"), {8}).ok());
  }
  auto state = client_->RebuildSequencerState(1000);
  ASSERT_TRUE(state.ok());
  ASSERT_TRUE(state->contains(7));
  ASSERT_TRUE(state->contains(8));
  EXPECT_EQ((*state)[7][0], 8u);  // last stream-7 entry
  EXPECT_EQ((*state)[8][0], 9u);  // last stream-8 entry
  EXPECT_EQ((*state)[7].size(), 4u);
}

}  // namespace
}  // namespace corfu
