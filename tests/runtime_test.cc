#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/corfu/types.h"
#include "src/net/transport.h"
#include "src/objects/tango_counter.h"
#include "src/objects/tango_map.h"
#include "src/objects/tango_register.h"
#include "src/runtime/directory.h"
#include "src/runtime/runtime.h"
#include "src/util/threading.h"
#include "tests/test_env.h"

namespace tango {
namespace {

using tango_test::Bytes;
using tango_test::ClusterFixture;
using tango_test::CounterValue;

// Forwards to the cluster's transport and counts sequencer tail queries.
// With `fail_stream_tails` set, tail queries that carry streams (the ones a
// stream sync sends) time out while bare tail checks still succeed.
class TailTransport : public Transport {
 public:
  explicit TailTransport(Transport* inner) : inner_(inner) {}

  Status Call(NodeId dest, uint16_t method, std::span<const uint8_t> request,
              std::vector<uint8_t>* response) override {
    if (method == corfu::kSequencerTail) {
      tail_calls.fetch_add(1);
      ByteReader r(request);
      r.GetU32();  // epoch
      if (r.GetU16() > 0 && fail_stream_tails.load()) {
        return Status(StatusCode::kTimeout, "injected stream-tail timeout");
      }
    }
    return inner_->Call(dest, method, request, response);
  }
  void RegisterNode(NodeId node, RpcHandler handler) override {
    inner_->RegisterNode(node, std::move(handler));
  }
  void UnregisterNode(NodeId node) override { inner_->UnregisterNode(node); }

  std::atomic<uint64_t> tail_calls{0};
  std::atomic<bool> fail_stream_tails{false};

 private:
  Transport* inner_;
};

class RuntimeTest : public ClusterFixture {
 protected:
  RuntimeTest()
      : client_a_(MakeClient()),
        client_b_(MakeClient()),
        rt_a_(client_a_.get()),
        rt_b_(client_b_.get()) {}

  // A client whose RPCs cross `transport` instead of the cluster's own.
  std::unique_ptr<corfu::CorfuClient> ClientOver(Transport* transport) {
    corfu::CorfuClient::Options options;
    options.hole_timeout_ms = 5;
    options.max_epoch_retries = 2;
    return std::make_unique<corfu::CorfuClient>(
        transport, cluster_->options().projection_store_node, options);
  }

  std::unique_ptr<corfu::CorfuClient> client_a_;
  std::unique_ptr<corfu::CorfuClient> client_b_;
  TangoRuntime rt_a_;
  TangoRuntime rt_b_;
};

TEST_F(RuntimeTest, FailedStreamSyncFailsReadInsteadOfServingStaleValue) {
  // The sequencer answers the bare tail check but times out the stream sync:
  // a read must fail, never return the old value as linearizable.
  TailTransport tails(&transport_);
  std::unique_ptr<corfu::CorfuClient> client = ClientOver(&tails);
  TangoRuntime rt(client.get());
  TangoRegister reader(&rt, 1);
  TangoRegister writer(&rt_a_, 1);
  ASSERT_TRUE(writer.Write(1).ok());
  auto first = reader.Read();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, 1);

  ASSERT_TRUE(writer.Write(2).ok());
  tails.fail_stream_tails = true;
  auto stale = reader.Read();
  EXPECT_FALSE(stale.ok()) << "stale read reported as linearizable: "
                           << (stale.ok() ? *stale : 0);
  EXPECT_EQ(stale.status().code(), StatusCode::kTimeout);

  tails.fail_stream_tails = false;
  auto fresh = reader.Read();
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(*fresh, 2);
}

TEST_F(RuntimeTest, ReadCostsOneTailQuery) {
  // One stream-carrying tail query per linearizable read, and no second
  // sync round trip inside playback once the barrier has folded it in.
  TailTransport tails(&transport_);
  std::unique_ptr<corfu::CorfuClient> client = ClientOver(&tails);
  TangoRuntime rt(client.get());
  TangoRegister reader(&rt, 1);
  TangoRegister writer(&rt_a_, 1);
  for (int64_t v = 1; v <= 20; ++v) {
    ASSERT_TRUE(writer.Write(v).ok());
    uint64_t before = tails.tail_calls.load();
    auto read = reader.Read();
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(*read, v);
    EXPECT_EQ(tails.tail_calls.load() - before, 1u) << "read " << v;
  }
}

TEST_F(RuntimeTest, ConcurrentReadersOnOneViewSeeAcknowledgedWrites) {
  // 4 readers and 1 writer share one view.  Every read returns a value at
  // least as new as the last write acknowledged before the read began.
  constexpr int64_t kWrites = 300;
  TangoRegister reg(&rt_a_, 1);
  std::atomic<int64_t> acked{0};
  std::atomic<bool> writing{true};
  std::atomic<int> failures{0};
  std::atomic<int> stale{0};
  std::atomic<int> reads{0};
  std::atomic<int> started{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      ++started;
      while (writing.load()) {
        int64_t floor = acked.load();
        Result<int64_t> value = reg.Read();
        if (!value.ok()) {
          ++failures;
        } else if (*value < floor) {
          ++stale;
        }
        ++reads;
      }
    });
  }
  while (started.load() < 4) {
    std::this_thread::yield();
  }
  for (int64_t v = 1; v <= kWrites; ++v) {
    if (!reg.Write(v).ok()) {
      ++failures;
      break;
    }
    acked.store(v);
  }
  writing = false;
  for (std::thread& t : readers) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(stale.load(), 0);
  EXPECT_GT(reads.load(), 0);
  auto last = reg.Read();
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(*last, kWrites);
}

TEST_F(RuntimeTest, WriteReturnedOnOneThreadIsReadOnAnother) {
  // Thread A's Write returns, then thread B's Read must see it, while a third
  // thread keeps reading the same view so that reads also take the
  // already-played path.  10K handoffs.
  constexpr int64_t kRounds = 10000;
  const uint64_t played_before = CounterValue("runtime.query.already_played");
  TangoRegister reg(&rt_a_, 1);
  std::atomic<int64_t> handed{0};
  std::atomic<int64_t> checked{0};
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<int> stale{0};
  std::thread background([&] {
    while (!done.load()) {
      if (!reg.Read().ok()) {
        ++failures;
      }
    }
  });
  std::thread reader([&] {
    for (int64_t i = 1; i <= kRounds; ++i) {
      while (handed.load(std::memory_order_acquire) < i) {
        std::this_thread::yield();
      }
      Result<int64_t> value = reg.Read();
      if (!value.ok()) {
        ++failures;
      } else if (*value < i) {
        ++stale;
      }
      checked.store(i, std::memory_order_release);
    }
  });
  for (int64_t i = 1; i <= kRounds; ++i) {
    if (!reg.Write(i).ok()) {
      ++failures;
    }
    handed.store(i, std::memory_order_release);
    while (checked.load(std::memory_order_acquire) < i) {
      std::this_thread::yield();
    }
  }
  reader.join();
  done = true;
  background.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(stale.load(), 0);
  EXPECT_GT(CounterValue("runtime.query.already_played"), played_before)
      << "no read took the fast path";
}

TEST_F(RuntimeTest, ReadAfterAnotherClientSawOwnUnfinishedWriteSeesIt) {
  // Client X's write of 2 is stored at the chain tail, but the tail's ack is
  // held back, so X's append has not returned.  Client Z reads 2 from the
  // tail and its read ends.  A read on X that starts after that must also
  // return 2, although X's own write is unfinished: X's view had already
  // played every offset before it, so skipping it would return 1.
  tango_test::FaultTransport faults(&transport_, /*seed=*/5);
  corfu::CorfuClient::Options options;
  options.hole_timeout_ms = 1000;
  corfu::CorfuClient client_x(
      &faults, cluster_->options().projection_store_node, options);
  TangoRuntime rt_x(&client_x);
  TangoRegister reg_x(&rt_x, 1);
  TangoRegister reg_z(&rt_b_, 1);
  ASSERT_TRUE(reg_x.Write(1).ok());
  auto value = reg_x.Read();  // X's view is played through the tail
  ASSERT_TRUE(value.ok());
  ASSERT_EQ(*value, 1);

  auto next = client_x.CheckTail();
  ASSERT_TRUE(next.ok());
  faults.DelayReply(corfu::kStorageWrite, 300'000,
                    client_x.projection().ChainFor(*next).back());
  std::thread writer([&] { EXPECT_TRUE(reg_x.Write(2).ok()); });
  const uint64_t give_up_us = NowMicros() + 250'000;
  Result<int64_t> seen_by_z = reg_z.Read();
  while (seen_by_z.ok() && *seen_by_z != 2 && NowMicros() < give_up_us) {
    std::this_thread::yield();
    seen_by_z = reg_z.Read();
  }
  Result<int64_t> seen_by_x = reg_x.Read();
  writer.join();

  ASSERT_TRUE(seen_by_z.ok());
  ASSERT_EQ(*seen_by_z, 2) << "Z never saw the stored write";
  ASSERT_TRUE(seen_by_x.ok());
  EXPECT_EQ(*seen_by_x, 2);
}

TEST_F(RuntimeTest, ObjectRegisteredAfterPlaybackPlaysItsHistory) {
  // The view has played past object 2's write before object 2 is hosted;
  // registering it must send the next read back through playback.
  TangoRegister first(&rt_a_, 1);
  ASSERT_TRUE(first.Write(1).ok());
  TangoRegister elsewhere(&rt_b_, 2);
  ASSERT_TRUE(elsewhere.Write(42).ok());
  ASSERT_TRUE(first.Read().ok());  // plays to a tail past object 2's write
  ASSERT_TRUE(first.Read().ok());

  TangoRegister second(&rt_a_, 2);
  auto value = second.Read();
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 42);
}

TEST_F(RuntimeTest, LoadObjectAfterPlaybackReplays) {
  TangoRegister reg(&rt_a_, 1);
  ASSERT_TRUE(reg.Write(7).ok());
  auto read = reg.Read();
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(*read, 7);
  // No checkpoint: LoadObject clears the view and rewinds its cursor.
  ASSERT_TRUE(rt_a_.LoadObject(1).ok());
  read = reg.Read();
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, 7);

  // With a checkpoint: restore it, then replay what follows it.
  ASSERT_TRUE(rt_a_.WriteCheckpoint(1).ok());
  ASSERT_TRUE(reg.Write(8).ok());
  read = reg.Read();
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(*read, 8);
  ASSERT_TRUE(rt_a_.LoadObject(1).ok());
  read = reg.Read();
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, 8);
}

TEST_F(RuntimeTest, HistoricalViewThenLinearizableReadCatchesUp) {
  // Rolling a view back to a prefix (SyncTo) leaves it behind the tail, so
  // the next linearizable read must play forward again.
  TangoRegister writer(&rt_a_, 1);
  for (int64_t v = 1; v <= 5; ++v) {
    ASSERT_TRUE(writer.Write(v * 10).ok());
  }
  TangoRegister historical(&rt_b_, 1);
  ASSERT_TRUE(rt_b_.SyncTo(2).ok());
  EXPECT_EQ(rt_b_.VersionOf(1), 1u);
  auto latest = historical.Read();
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(*latest, 50);
  EXPECT_EQ(rt_b_.VersionOf(1), 4u);
}

TEST_F(RuntimeTest, RegisterWriteRead) {
  TangoRegister reg(&rt_a_, 1);
  ASSERT_TRUE(reg.Write(42).ok());
  auto value = reg.Read();
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 42);
}

TEST_F(RuntimeTest, TwoViewsConverge) {
  // The paper's core SMR claim: views on different clients see the same
  // history (Figure 1).
  TangoRegister writer(&rt_a_, 1);
  TangoRegister reader(&rt_b_, 1);
  ASSERT_TRUE(writer.Write(7).ok());
  auto value = reader.Read();
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 7);
}

TEST_F(RuntimeTest, LinearizableReadSeesLatestWrite) {
  TangoRegister writer(&rt_a_, 1);
  TangoRegister reader(&rt_b_, 1);
  for (int64_t v = 1; v <= 10; ++v) {
    ASSERT_TRUE(writer.Write(v).ok());
    auto read = reader.Read();
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(*read, v);
  }
}

TEST_F(RuntimeTest, RegisterDuplicateOidRejected) {
  TangoRegister reg(&rt_a_, 1);
  EXPECT_EQ(rt_a_.RegisterObject(1, &reg).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(rt_a_.RegisterObject(2, nullptr).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(RuntimeTest, HostsAndUnregister) {
  {
    TangoRegister reg(&rt_a_, 5);
    EXPECT_TRUE(rt_a_.Hosts(5));
  }
  EXPECT_FALSE(rt_a_.Hosts(5));  // destructor unregistered
  EXPECT_EQ(rt_a_.UnregisterObject(5).code(), StatusCode::kNotFound);
}

TEST_F(RuntimeTest, CounterAccumulates) {
  TangoCounter counter_a(&rt_a_, 1);
  TangoCounter counter_b(&rt_b_, 1);
  ASSERT_TRUE(counter_a.Add(5).ok());
  ASSERT_TRUE(counter_b.Add(3).ok());
  auto value = counter_a.Get();
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 8);
}

TEST_F(RuntimeTest, VersionTracksLastModifyingOffset) {
  TangoRegister reg(&rt_a_, 1);
  EXPECT_EQ(rt_a_.VersionOf(1), corfu::kInvalidOffset);
  ASSERT_TRUE(reg.Write(1).ok());  // occupies offset 0
  ASSERT_TRUE(reg.Read().ok());
  EXPECT_EQ(rt_a_.VersionOf(1), 0u);
  ASSERT_TRUE(reg.Write(2).ok());  // offset 1
  ASSERT_TRUE(reg.Read().ok());
  EXPECT_EQ(rt_a_.VersionOf(1), 1u);
}

TEST_F(RuntimeTest, PerKeyVersions) {
  TangoMap map(&rt_a_, 1);
  ASSERT_TRUE(map.Put("x", "1").ok());
  ASSERT_TRUE(map.Put("y", "2").ok());
  ASSERT_TRUE(map.Get("x").ok());  // sync
  uint64_t kx = std::hash<std::string>{}("x");
  uint64_t ky = std::hash<std::string>{}("y");
  EXPECT_EQ(rt_a_.VersionOf(1, kx), 0u);
  EXPECT_EQ(rt_a_.VersionOf(1, ky), 1u);
  EXPECT_EQ(rt_a_.VersionOf(1), 1u);  // object version = last write
}

TEST_F(RuntimeTest, HistoryTimeTravel) {
  // §3.1 History: a view can be instantiated from a prefix of the history.
  TangoRegister writer(&rt_a_, 1);
  for (int64_t v = 1; v <= 5; ++v) {
    ASSERT_TRUE(writer.Write(v * 10).ok());
  }
  ASSERT_TRUE(writer.Read().ok());

  // A second runtime syncs only to offset 2 (exclusive): sees writes 0,1.
  TangoRegister historical(&rt_b_, 1);
  ASSERT_TRUE(rt_b_.SyncTo(2).ok());
  // Read the raw view without a query barrier (would sync to tail).
  EXPECT_EQ(rt_b_.VersionOf(1), 1u);

  // Playing further forward catches up.
  ASSERT_TRUE(rt_b_.SyncTo(5).ok());
  EXPECT_EQ(rt_b_.VersionOf(1), 4u);
}

TEST_F(RuntimeTest, CrashReplayEquivalence) {
  // Rebuild-from-log equals the live view (§3.1 Durability).
  TangoMap live(&rt_a_, 1);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(live.Put("k" + std::to_string(i % 7),
                         "v" + std::to_string(i))
                    .ok());
  }
  ASSERT_TRUE(live.Size().ok());

  // "Reboot": a brand-new client + runtime + view.
  auto rebooted_client = MakeClient();
  TangoRuntime rebooted_rt(rebooted_client.get());
  TangoMap rebooted(&rebooted_rt, 1);
  auto size = rebooted.Size();
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 7u);
  for (int k = 0; k < 7; ++k) {
    auto live_value = live.Get("k" + std::to_string(k));
    auto replayed = rebooted.Get("k" + std::to_string(k));
    ASSERT_TRUE(live_value.ok());
    ASSERT_TRUE(replayed.ok());
    EXPECT_EQ(*live_value, *replayed);
  }
}

TEST_F(RuntimeTest, CheckpointAndRestore) {
  TangoMap map(&rt_a_, 1);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(map.Put("k" + std::to_string(i), "v").ok());
  }
  auto checkpoint_offset = rt_a_.WriteCheckpoint(1);
  ASSERT_TRUE(checkpoint_offset.ok());
  // More updates after the checkpoint.
  ASSERT_TRUE(map.Put("k10", "v").ok());

  // Fresh view restores from the checkpoint, then replays the suffix.
  auto fresh_client = MakeClient();
  TangoRuntime fresh_rt(fresh_client.get());
  TangoMap fresh(&fresh_rt, 1);
  ASSERT_TRUE(fresh_rt.LoadObject(1).ok());
  auto size = fresh.Size();
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 11u);
}

TEST_F(RuntimeTest, CheckpointEnablesTrim) {
  TangoMap map(&rt_a_, 1);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(map.Put("k" + std::to_string(i), "v").ok());
  }
  auto checkpoint_offset = rt_a_.WriteCheckpoint(1);
  ASSERT_TRUE(checkpoint_offset.ok());
  ASSERT_TRUE(rt_a_.Forget(1, *checkpoint_offset).ok());

  // The prefix is gone from storage.
  EXPECT_EQ(client_a_->Read(0).status().code(), StatusCode::kTrimmed);

  // A fresh view can still be built — from the checkpoint.
  auto fresh_client = MakeClient();
  TangoRuntime fresh_rt(fresh_client.get());
  TangoMap fresh(&fresh_rt, 1);
  ASSERT_TRUE(fresh_rt.LoadObject(1).ok());
  auto size = fresh.Size();
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 10u);
}

TEST_F(RuntimeTest, TrimmedHistoryWithoutCheckpointFails) {
  TangoRegister reg(&rt_a_, 1);
  ASSERT_TRUE(reg.Write(1).ok());
  ASSERT_TRUE(reg.Write(2).ok());
  ASSERT_TRUE(client_a_->TrimPrefix(2).ok());

  auto fresh_client = MakeClient();
  TangoRuntime fresh_rt(fresh_client.get());
  TangoRegister fresh(&fresh_rt, 1);
  EXPECT_EQ(fresh_rt.LoadObject(1).code(), StatusCode::kFailedPrecondition);
}

TEST_F(RuntimeTest, UpdateToUnhostedObjectAllowed) {
  // Remote writes (§4.1 B): a producer appends to a stream it doesn't host.
  ASSERT_TRUE(rt_a_.UpdateHelper(33, Bytes("remote")).ok());
  // A host of object 33 sees the update.
  TangoRegister host(&rt_b_, 33);
  ASSERT_TRUE(host.Read().ok());
  EXPECT_EQ(rt_b_.VersionOf(33), 0u);
}

TEST_F(RuntimeTest, StatsProgress) {
  TangoRegister reg(&rt_a_, 1);
  ASSERT_TRUE(reg.Write(1).ok());
  ASSERT_TRUE(reg.Read().ok());
  TangoRuntime::Stats stats = rt_a_.stats();
  EXPECT_EQ(stats.updates_applied, 1u);
  EXPECT_GE(stats.entries_played, 1u);
}

// --- directory -----------------------------------------------------------------

TEST_F(RuntimeTest, DirectoryAssignsStableOids) {
  TangoDirectory dir_a(&rt_a_);
  TangoDirectory dir_b(&rt_b_);
  auto oid1 = dir_a.Open("FreeNodeList");
  ASSERT_TRUE(oid1.ok());
  auto oid2 = dir_a.Open("WidgetAllocationMap");
  ASSERT_TRUE(oid2.ok());
  EXPECT_NE(*oid1, *oid2);
  // Idempotent, and consistent across clients.
  auto again = dir_b.Open("FreeNodeList");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *oid1);
  auto looked_up = dir_b.Lookup("WidgetAllocationMap");
  ASSERT_TRUE(looked_up.ok());
  EXPECT_EQ(*looked_up, *oid2);
}

TEST_F(RuntimeTest, DirectoryLookupMissing) {
  TangoDirectory dir(&rt_a_);
  EXPECT_EQ(dir.Lookup("nope").status().code(), StatusCode::kNotFound);
}

TEST_F(RuntimeTest, DirectoryRacingCreatesConverge) {
  TangoDirectory dir_a(&rt_a_);
  TangoDirectory dir_b(&rt_b_);
  // Both clients race to create the same name (appends race in the log).
  auto a = dir_a.Open("shared");
  auto b = dir_b.Open("shared");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST_F(RuntimeTest, DirectoryList) {
  TangoDirectory dir(&rt_a_);
  ASSERT_TRUE(dir.Open("alpha").ok());
  ASSERT_TRUE(dir.Open("beta").ok());
  auto names = dir.List();
  EXPECT_EQ(names.size(), 2u);
  EXPECT_TRUE(names.contains("alpha"));
}

TEST_F(RuntimeTest, DirectoryForgetTrimsAtMinimum) {
  TangoDirectory dir(&rt_a_);
  auto oid1 = dir.Open("one");
  auto oid2 = dir.Open("two");
  ASSERT_TRUE(oid1.ok());
  ASSERT_TRUE(oid2.ok());
  TangoRegister reg1(&rt_a_, *oid1);
  TangoRegister reg2(&rt_a_, *oid2);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(reg1.Write(i).ok());
    ASSERT_TRUE(reg2.Write(i).ok());
  }
  // Only object one forgets: the log must NOT be trimmed past object two's
  // horizon (still 0).
  ASSERT_TRUE(dir.Forget(*oid1, 8).ok());
  EXPECT_TRUE(client_a_->Read(0).ok() ||
              client_a_->Read(0).status().code() == StatusCode::kUnwritten);
  // Once both forget, the prefix goes.
  ASSERT_TRUE(dir.Forget(*oid2, 8).ok());
  auto horizon = dir.TrimHorizon();
  ASSERT_TRUE(horizon.ok());
  EXPECT_EQ(*horizon, 8u);
  EXPECT_EQ(client_a_->Read(0).status().code(), StatusCode::kTrimmed);
}

}  // namespace
}  // namespace tango
