// End-to-end failure handling: sequencer replacement under load, crashed
// clients leaving holes, runtime recovery — and the whole stack over TCP.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "src/corfu/cluster.h"
#include "src/net/tcp_transport.h"
#include "src/util/random.h"
#include "src/objects/tango_map.h"
#include "src/objects/tango_register.h"
#include "src/runtime/runtime.h"
#include "tests/test_env.h"

namespace tango {
namespace {

using tango_test::Bytes;
using tango_test::ClusterFixture;

class FailoverTest : public ClusterFixture {};

TEST_F(FailoverTest, SequencerFailoverUnderLoad) {
  auto admin = MakeClient();
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> appended{0};
  std::atomic<uint64_t> failed{0};

  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&, t] {
      corfu::CorfuClient::Options options;
      options.max_epoch_retries = 32;  // ride out the reconfiguration
      auto client = cluster_->MakeClient(options);
      while (!stop.load()) {
        auto offset = client->Append(Bytes("w" + std::to_string(t)));
        if (offset.ok()) {
          appended.fetch_add(1);
        } else {
          failed.fetch_add(1);
        }
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_TRUE(cluster_->ReplaceSequencer(admin.get()).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  stop.store(true);
  for (std::thread& w : writers) {
    w.join();
  }

  EXPECT_GT(appended.load(), 0u);
  // Appends continued after the failover (epoch 1 tail > sealed tail).
  auto tail = admin->CheckTail();
  ASSERT_TRUE(tail.ok());
  EXPECT_GT(*tail, 0u);
  // Log integrity: every offset below the tail is written or fillable.
  uint64_t holes = 0;
  for (corfu::LogOffset o = 0; o < *tail; ++o) {
    auto entry = admin->ReadRepair(o);
    ASSERT_TRUE(entry.ok()) << "offset " << o;
    if (entry->is_junk()) {
      ++holes;
    }
  }
  // Holes may exist (grants issued by the dying sequencer) but are bounded.
  EXPECT_LT(holes, *tail);
}

TEST_F(FailoverTest, RuntimeSurvivesSequencerFailover) {
  auto client_a = MakeClient();
  auto client_b = MakeClient();
  TangoRuntime rt_a(client_a.get());
  TangoRuntime rt_b(client_b.get());
  TangoMap map_a(&rt_a, 1);
  TangoMap map_b(&rt_b, 1);

  ASSERT_TRUE(map_a.Put("pre", "1").ok());
  ASSERT_TRUE(cluster_->ReplaceSequencer(client_a.get()).ok());
  ASSERT_TRUE(map_a.Put("post", "2").ok());

  auto pre = map_b.Get("pre");
  auto post = map_b.Get("post");
  ASSERT_TRUE(pre.ok());
  ASSERT_TRUE(post.ok());
  EXPECT_EQ(*pre, "1");
  EXPECT_EQ(*post, "2");
}

TEST_F(FailoverTest, CrashedWriterHoleDoesNotBlockReaders) {
  auto client = MakeClient();
  TangoRuntime rt(client.get());
  TangoMap map(&rt, 1);
  ASSERT_TRUE(map.Put("a", "1").ok());

  // Simulate a crashed client: an offset granted to stream 1, never written.
  auto grant = corfu::SequencerNext(&transport_,
                                    client->projection().sequencer,
                                    client->projection().epoch, 1, {1});
  ASSERT_TRUE(grant.ok());
  ASSERT_TRUE(map.Put("b", "2").ok());

  // The reader's playback fills the hole after its timeout and proceeds.
  auto b = map.Get("b");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, "2");
}

TEST_F(FailoverTest, StorageNodeCrashRoutedAroundByAppends) {
  auto client = MakeClient();
  ASSERT_TRUE(client->Append(Bytes("x")).ok());
  // Kill one storage node.  An append whose granted offset lands on the dead
  // chain abandons the token (leaving a hole for fillers), backs off, and
  // retries with a fresh offset — which lands on a healthy chain — so the
  // append itself still succeeds.
  transport_.KillNode(cluster_->options().storage_base);
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(client->Append(Bytes("y")).ok());
  }
  transport_.ReviveNode(cluster_->options().storage_base);
  EXPECT_TRUE(client->Append(Bytes("recovered")).ok());
}

TEST_F(FailoverTest, AutoHealReplacesKilledNodeWithoutOperator) {
  // The self-healing path end to end: a randomly chosen storage node dies
  // mid-workload and the background HealthMonitor detects it, degrades the
  // chain, and repairs onto a spare — no operator involved.
  auto client = MakeClient();
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(client->Append(Bytes("pre-" + std::to_string(i))).ok());
  }
  corfu::Projection before = client->projection();

  corfu::HealthMonitor::Options options;
  options.heartbeat_interval_ms = 2;
  options.miss_threshold = 2;
  corfu::HealthMonitor* monitor = cluster_->StartHealthMonitor(options);

  // Foreground traffic keeps flowing while the monitor works.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> appended{0};
  std::thread writer([&] {
    corfu::CorfuClient::Options wo;
    wo.max_epoch_retries = 64;
    auto w = cluster_->MakeClient(wo);
    while (!stop.load()) {
      if (w->Append(Bytes("fg")).ok()) {
        appended.fetch_add(1);
      }
    }
  });

  Rng rng(42);
  NodeId victim =
      cluster_->options().storage_base +
      static_cast<NodeId>(rng.NextBelow(
          static_cast<uint64_t>(cluster_->options().num_storage_nodes)));
  transport_.KillNode(victim);

  // Wait for detect -> degrade -> repair (epoch +2, full chains, no victim).
  bool healed = false;
  for (int i = 0; i < 1000 && !healed; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(client->RefreshProjection().ok());
    corfu::Projection now = client->projection();
    healed = now.epoch >= before.epoch + 2 && !monitor->InRecovery();
    for (const auto& chain : now.replica_sets) {
      healed = healed && chain.size() == 2;
      for (NodeId node : chain) {
        healed = healed && node != victim;
      }
    }
  }
  stop.store(true);
  writer.join();
  ASSERT_TRUE(healed) << "monitor never repaired the cluster";
  EXPECT_GT(appended.load(), 0u);

  // Cold replay audit: a fresh client walks the entire log across both
  // reconfigurations.  Holes (offsets granted to the dead chain pre-degrade)
  // are fillable; everything else must decode.
  auto cold = MakeClient();
  auto tail = cold->CheckTail();
  ASSERT_TRUE(tail.ok());
  ASSERT_GE(*tail, 30u);
  for (corfu::LogOffset o = 0; o < *tail; ++o) {
    auto entry = cold->ReadRepair(o);
    ASSERT_TRUE(entry.ok()) << "offset " << o;
  }
  ASSERT_TRUE(cold->Append(Bytes("post-heal")).ok());
}

TEST(TcpClusterTest, FullStackOverTcp) {
  // The entire system — storage nodes, sequencer, projection store, runtime,
  // objects — over real sockets.
  TcpTransport transport;
  corfu::CorfuCluster::Options options;
  options.num_storage_nodes = 4;
  options.replication_factor = 2;
  corfu::CorfuCluster cluster(&transport, options);

  auto client_a = cluster.MakeClient();
  auto client_b = cluster.MakeClient();
  TangoRuntime rt_a(client_a.get());
  TangoRuntime rt_b(client_b.get());
  TangoMap map_a(&rt_a, 1);
  TangoMap map_b(&rt_b, 1);

  ASSERT_TRUE(map_a.Put("over", "tcp").ok());
  auto value = map_b.Get("over");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, "tcp");

  // A transaction across the wire.
  ASSERT_TRUE(map_a.Get("over").ok());  // sync before transacting
  ASSERT_TRUE(rt_a.BeginTx().ok());
  ASSERT_TRUE(map_a.Get("over").ok());
  ASSERT_TRUE(map_a.Put("tx", "yes").ok());
  ASSERT_TRUE(rt_a.EndTx().ok());
  auto tx_value = map_b.Get("tx");
  ASSERT_TRUE(tx_value.ok());
  EXPECT_EQ(*tx_value, "yes");
}

TEST_F(FailoverTest, ConsistentSnapshotAcrossObjects) {
  // §3.2: coordinated snapshots by syncing every view to one offset.
  auto client_a = MakeClient();
  TangoRuntime writer(client_a.get());
  TangoRegister x(&writer, 1);
  TangoRegister y(&writer, 2);
  // Invariant: x == y after every pair of writes.
  for (int64_t v = 1; v <= 5; ++v) {
    ASSERT_TRUE(x.Write(v).ok());
    ASSERT_TRUE(y.Write(v).ok());
  }

  // Snapshot both objects at every even position: x is one ahead or equal.
  for (corfu::LogOffset limit = 0; limit <= 10; limit += 2) {
    auto client_b = MakeClient();
    TangoRuntime snapshot(client_b.get());
    TangoRegister sx(&snapshot, 1);
    TangoRegister sy(&snapshot, 2);
    ASSERT_TRUE(snapshot.SyncTo(limit).ok());
    // Both views are from the same consistent cut: x == y.
    int64_t vx = 0, vy = 0;
    // Read raw view state (no sync barrier).
    vx = snapshot.VersionOf(1) == corfu::kInvalidOffset ? 0 : 1;
    vy = snapshot.VersionOf(2) == corfu::kInvalidOffset ? 0 : 1;
    if (limit == 0) {
      EXPECT_EQ(vx, 0);
      EXPECT_EQ(vy, 0);
    } else {
      EXPECT_EQ(vx, 1);
      EXPECT_EQ(vy, 1);
    }
  }
}

}  // namespace
}  // namespace tango
