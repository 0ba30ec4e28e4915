// HealthMonitor: failure detection, automatic degrade/repair of storage
// chains, sequencer failover, and safety under concurrent monitors and
// asymmetric partitions.  Tests drive RunOnce() by hand for determinism; the
// background-thread path is covered by failover_test and chaos_test.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/corfu/health.h"
#include "src/obs/metrics.h"
#include "tests/test_env.h"

namespace tango {
namespace {

using tango_test::Bytes;
using tango_test::ClusterFixture;
using tango_test::Str;

class HealthTest : public ClusterFixture {
 protected:
  std::unique_ptr<corfu::HealthMonitor> MakeMonitor(
      corfu::HealthMonitor::Options options = {}) {
    auto monitor = std::make_unique<corfu::HealthMonitor>(
        &transport_, cluster_->projection_store_node(), options);
    monitor->set_spare_provider(
        [this] { return cluster_->SpawnSpareStorageNode(); });
    monitor->set_sequencer_provider(
        [this] { return cluster_->SpawnReplacementSequencer(); });
    return monitor;
  }

  // Runs monitor rounds until it reports the cluster healed (bounded).
  void RunUntilHealed(corfu::HealthMonitor* monitor, int max_rounds = 32) {
    for (int i = 0; i < max_rounds; ++i) {
      (void)monitor->RunOnce();
      if (i >= monitor->options().miss_threshold && !monitor->InRecovery()) {
        return;
      }
    }
    ADD_FAILURE() << "monitor did not heal the cluster in " << max_rounds
                  << " rounds";
  }

  uint64_t RecoveryCount() {
    auto snap = obs::MetricsRegistry::Default().Snap();
    auto it = snap.histograms.find("health.recovery_latency_us");
    return it == snap.histograms.end() ? 0 : it->second.count();
  }
};

TEST_F(HealthTest, IdleOnHealthyCluster) {
  auto client = MakeClient();
  ASSERT_TRUE(client->Append(Bytes("x")).ok());
  auto monitor = MakeMonitor();
  corfu::Epoch before = client->projection().epoch;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(monitor->RunOnce().ok());
  }
  ASSERT_TRUE(client->RefreshProjection().ok());
  EXPECT_EQ(client->projection().epoch, before);  // no spurious epoch changes
  EXPECT_FALSE(monitor->InRecovery());
}

TEST_F(HealthTest, AutoHealsKilledStorageNode) {
  auto client = MakeClient();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client->Append(Bytes("pre-" + std::to_string(i))).ok());
  }

  corfu::HealthMonitor::Options options;
  options.miss_threshold = 2;
  auto monitor = MakeMonitor(options);
  uint64_t recoveries_before = RecoveryCount();

  corfu::Projection before = client->projection();
  NodeId victim = before.replica_sets[0][1];  // tail of chain 0
  transport_.KillNode(victim);

  RunUntilHealed(monitor.get());

  // Degrade (e+1) then repair (e+2): the victim is gone, a spare completed
  // the chain back to full replication.
  ASSERT_TRUE(client->RefreshProjection().ok());
  corfu::Projection after = client->projection();
  EXPECT_EQ(after.epoch, before.epoch + 2);
  ASSERT_EQ(after.replica_sets[0].size(), 2u);
  for (const auto& chain : after.replica_sets) {
    for (NodeId node : chain) {
      EXPECT_NE(node, victim);
    }
  }
  EXPECT_EQ(monitor->ConsecutiveMisses(victim), 0);
  EXPECT_EQ(RecoveryCount(), recoveries_before + 1);

  // Every pre-failure entry survived the failover (chain 0 reads now come
  // from the repaired chain).
  for (corfu::LogOffset o = 0; o < 20; ++o) {
    auto entry = client->Read(o);
    ASSERT_TRUE(entry.ok()) << "offset " << o;
  }
  // And the log keeps accepting appends at the repaired epoch — a cold
  // client fences over on its own.
  auto cold = MakeClient();
  auto offset = cold->Append(Bytes("post-heal"));
  ASSERT_TRUE(offset.ok());
  auto read = client->Read(*offset);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(Str(read->payload), "post-heal");
}

TEST_F(HealthTest, AutoHealsKilledChainHead) {
  // The head owns write ordering; killing it exercises the survivor-as-source
  // copy path (the old tail becomes the new head).
  auto client = MakeClient();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client->Append(Bytes("h" + std::to_string(i))).ok());
  }
  corfu::HealthMonitor::Options options;
  options.miss_threshold = 2;
  auto monitor = MakeMonitor(options);
  NodeId victim = client->projection().replica_sets[1][0];
  transport_.KillNode(victim);
  RunUntilHealed(monitor.get());

  ASSERT_TRUE(client->RefreshProjection().ok());
  ASSERT_EQ(client->projection().replica_sets[1].size(), 2u);
  for (corfu::LogOffset o = 0; o < 10; ++o) {
    ASSERT_TRUE(client->Read(o).ok()) << "offset " << o;
  }
  ASSERT_TRUE(client->Append(Bytes("alive")).ok());
}

TEST_F(HealthTest, DegradedModeKeepsServingWithoutRepair) {
  auto client = MakeClient();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client->Append(Bytes("d" + std::to_string(i))).ok());
  }
  corfu::HealthMonitor::Options options;
  options.miss_threshold = 2;
  options.auto_repair = false;
  auto monitor = MakeMonitor(options);

  corfu::Projection before = client->projection();
  NodeId victim = before.replica_sets[0][0];
  transport_.KillNode(victim);
  for (int i = 0; i < 6; ++i) {
    (void)monitor->RunOnce();
  }

  // Degraded (one epoch change, chain short) but fully serving; with repair
  // disabled the monitor stays in recovery.
  ASSERT_TRUE(client->RefreshProjection().ok());
  corfu::Projection after = client->projection();
  EXPECT_EQ(after.epoch, before.epoch + 1);
  EXPECT_EQ(after.replica_sets[0].size(), 1u);
  EXPECT_TRUE(monitor->InRecovery());
  for (corfu::LogOffset o = 0; o < 10; ++o) {
    ASSERT_TRUE(client->Read(o).ok()) << "offset " << o;
  }
  ASSERT_TRUE(client->Append(Bytes("degraded-write")).ok());
}

TEST_F(HealthTest, NeverExcisesTheSoleSurvivingReplica) {
  auto client = MakeClient();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client->Append(Bytes("l" + std::to_string(i))).ok());
  }
  corfu::HealthMonitor::Options options;
  options.miss_threshold = 2;
  options.auto_repair = false;
  auto monitor = MakeMonitor(options);

  // Degrade chain 0 down to its tail.
  NodeId head = client->projection().replica_sets[0][0];
  NodeId tail = client->projection().replica_sets[0][1];
  transport_.KillNode(head);
  for (int i = 0; i < 6; ++i) {
    (void)monitor->RunOnce();
  }
  ASSERT_TRUE(client->RefreshProjection().ok());
  corfu::Projection degraded = client->projection();
  ASSERT_EQ(degraded.replica_sets[0], std::vector<NodeId>{tail});

  // Now the sole replica dies too: excising it would lose the extent.
  transport_.KillNode(tail);
  Status last;
  for (int i = 0; i < 6; ++i) {
    last = monitor->RunOnce();
  }
  EXPECT_EQ(last.code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(client->RefreshProjection().ok());
  EXPECT_EQ(client->projection().epoch, degraded.epoch);
  EXPECT_EQ(client->projection().replica_sets[0], std::vector<NodeId>{tail});

  // Once it answers again the log serves every entry and new appends.
  transport_.ReviveNode(tail);
  for (int i = 0; i < 3; ++i) {
    (void)monitor->RunOnce();
  }
  for (corfu::LogOffset o = 0; o < 10; ++o) {
    ASSERT_TRUE(client->Read(o).ok()) << "offset " << o;
  }
  ASSERT_TRUE(client->Append(Bytes("revived")).ok());
}

TEST_F(HealthTest, BothReplicasDeadSealsNothingUntilOneRevives) {
  // Degrading a chain whose other member is dead too would seal the chains
  // before it at e+1 and then fail, fencing the whole log at an epoch no
  // projection names.  The monitor must refuse instead, and heal once one
  // replica answers.
  auto client = MakeClient();
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(client->Append(Bytes("b" + std::to_string(i))).ok());
  }
  corfu::HealthMonitor::Options options;
  options.miss_threshold = 2;
  auto monitor = MakeMonitor(options);

  corfu::Projection before = client->projection();
  std::vector<NodeId> chain = before.replica_sets.back();
  for (NodeId node : chain) {
    transport_.KillNode(node);
  }
  Status last;
  for (int i = 0; i < 6; ++i) {
    last = monitor->RunOnce();
  }
  EXPECT_EQ(last.code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(client->RefreshProjection().ok());
  EXPECT_EQ(client->projection().epoch, before.epoch);
  EXPECT_EQ(client->projection().replica_sets.back(), chain);

  transport_.ReviveNode(chain[0]);
  RunUntilHealed(monitor.get());
  ASSERT_TRUE(client->RefreshProjection().ok());
  EXPECT_EQ(client->projection().replica_sets.back().size(), 2u);
  for (corfu::LogOffset o = 0; o < 12; ++o) {
    ASSERT_TRUE(client->Read(o).ok()) << "offset " << o;
  }
  ASSERT_TRUE(client->Append(Bytes("healed")).ok());
}

TEST_F(HealthTest, AutoReplacesDeadSequencer) {
  auto client = MakeClient();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(client->Append(Bytes("s" + std::to_string(i))).ok());
  }
  corfu::HealthMonitor::Options options;
  options.miss_threshold = 2;
  auto monitor = MakeMonitor(options);

  corfu::Projection before = client->projection();
  transport_.KillNode(before.sequencer);
  RunUntilHealed(monitor.get());

  ASSERT_TRUE(client->RefreshProjection().ok());
  corfu::Projection after = client->projection();
  EXPECT_EQ(after.epoch, before.epoch + 1);
  EXPECT_NE(after.sequencer, before.sequencer);

  // The replacement was bootstrapped past the sealed tail: fresh appends get
  // fresh offsets and reads of the old history still work.
  auto offset = client->Append(Bytes("post-seq-failover"));
  ASSERT_TRUE(offset.ok());
  EXPECT_GE(*offset, 8u);
  for (corfu::LogOffset o = 0; o < 8; ++o) {
    ASSERT_TRUE(client->Read(o).ok()) << "offset " << o;
  }
}

TEST_F(HealthTest, ConcurrentMonitorsConvergeOnOneRepair) {
  auto client = MakeClient();
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(client->Append(Bytes("c" + std::to_string(i))).ok());
  }
  corfu::HealthMonitor::Options options;
  options.miss_threshold = 2;
  auto monitor_a = MakeMonitor(options);
  auto monitor_b = MakeMonitor(options);

  corfu::Projection before = client->projection();
  NodeId victim = before.replica_sets[2][1];
  transport_.KillNode(victim);

  // Race the two monitors on real threads; every seal/propose is CAS-guarded,
  // so losers adopt the winner's view rather than stacking epoch changes.
  std::vector<std::thread> racers;
  for (corfu::HealthMonitor* m : {monitor_a.get(), monitor_b.get()}) {
    racers.emplace_back([m] {
      for (int i = 0; i < 8; ++i) {
        (void)m->RunOnce();
      }
    });
  }
  for (std::thread& t : racers) {
    t.join();
  }
  // Settle sequentially in case both lost a race on the final step.
  for (int i = 0; i < 8; ++i) {
    (void)monitor_a->RunOnce();
    (void)monitor_b->RunOnce();
    if (!monitor_a->InRecovery() && !monitor_b->InRecovery()) {
      break;
    }
  }
  EXPECT_FALSE(monitor_a->InRecovery());
  EXPECT_FALSE(monitor_b->InRecovery());

  ASSERT_TRUE(client->RefreshProjection().ok());
  corfu::Projection after = client->projection();
  // Exactly one degrade and one repair landed: the chain is back to full
  // strength (not over-repaired) and the victim is gone.
  ASSERT_EQ(after.replica_sets[2].size(), 2u);
  EXPECT_NE(after.replica_sets[2][0], victim);
  EXPECT_NE(after.replica_sets[2][1], victim);
  for (corfu::LogOffset o = 0; o < 12; ++o) {
    ASSERT_TRUE(client->Read(o).ok()) << "offset " << o;
  }
  ASSERT_TRUE(client->Append(Bytes("converged")).ok());
}

TEST_F(HealthTest, PartitionedMonitorFalsePositiveIsSafe) {
  // The monitor cannot reach the victim but everyone else can: a classic
  // false positive.  The monitor evicts the (healthy) node — wasteful but
  // safe, because sealing fences every epoch the victim still serves.
  auto client = MakeClient();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client->Append(Bytes("p" + std::to_string(i))).ok());
  }
  corfu::HealthMonitor::Options options;
  options.miss_threshold = 2;
  options.identity = 500;
  auto monitor = MakeMonitor(options);

  corfu::Projection before = client->projection();
  NodeId victim = before.replica_sets[0][1];
  transport_.PartitionLink(500, victim);

  RunUntilHealed(monitor.get());

  ASSERT_TRUE(client->RefreshProjection().ok());
  corfu::Projection after = client->projection();
  EXPECT_EQ(after.epoch, before.epoch + 2);  // degrade + repair
  ASSERT_EQ(after.replica_sets[0].size(), 2u);
  EXPECT_NE(after.replica_sets[0][0], victim);
  EXPECT_NE(after.replica_sets[0][1], victim);

  // No data was lost and the log still serves — from clients on both sides
  // of the partition.
  for (corfu::LogOffset o = 0; o < 10; ++o) {
    ASSERT_TRUE(client->Read(o).ok()) << "offset " << o;
  }
  ASSERT_TRUE(client->Append(Bytes("still-serving")).ok());
  transport_.HealAllLinks();
}

}  // namespace
}  // namespace tango
