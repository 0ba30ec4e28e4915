// Chaos test: a randomized mixed workload with faults injected mid-run —
// sequencer replacement, abandoned offsets (holes), checkpoints, trims —
// followed by a full convergence audit: every live view, plus a cold client
// replaying from scratch, must agree exactly.

#include <gtest/gtest.h>

#include <map>
#include <thread>

#include "src/objects/tango_map.h"
#include "src/obs/metrics.h"
#include "src/runtime/runtime.h"
#include "src/util/random.h"
#include "tests/test_env.h"

namespace tango {
namespace {

using tango_test::ClusterFixture;

class ChaosTest : public ClusterFixture,
                  public ::testing::WithParamInterface<uint64_t> {};

uint64_t CounterAt(const obs::MetricsRegistry::Snapshot& snap,
                   const std::string& name) {
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

std::map<std::string, std::string> Snapshot(TangoMap& map) {
  std::map<std::string, std::string> out;
  auto keys = map.Keys();
  EXPECT_TRUE(keys.ok());
  if (keys.ok()) {
    for (const std::string& key : *keys) {
      auto value = map.Get(key);
      if (value.ok()) {
        out[key] = *value;
      }
    }
  }
  return out;
}

TEST_P(ChaosTest, ConvergesUnderFaults) {
  constexpr int kWorkers = 3;
  constexpr int kOpsPerWorker = 60;

  // The registry is process-global and the seeds run in one binary, so the
  // accounting invariants below are checked on before/after deltas.
  obs::MetricsRegistry::Snapshot before = obs::MetricsRegistry::Default().Snap();

  struct Client {
    std::unique_ptr<corfu::CorfuClient> log;
    std::unique_ptr<TangoRuntime> rt;
    std::unique_ptr<TangoMap> map;
  };
  std::vector<Client> clients(kWorkers);
  for (int i = 0; i < kWorkers; ++i) {
    corfu::CorfuClient::Options options;
    options.hole_timeout_ms = 5;
    options.max_epoch_retries = 32;
    clients[i].log = cluster_->MakeClient(options);
    clients[i].rt = std::make_unique<TangoRuntime>(clients[i].log.get());
    clients[i].map = std::make_unique<TangoMap>(clients[i].rt.get(), 1);
  }

  std::atomic<int> barrier_hits{0};
  auto chaos_admin = MakeClient();

  std::vector<std::thread> workers;
  for (int i = 0; i < kWorkers; ++i) {
    workers.emplace_back([&, i] {
      Rng rng(GetParam() * 101 + i);
      Client& me = clients[i];
      for (int op = 0; op < kOpsPerWorker; ++op) {
        std::string key = "k" + std::to_string(rng.NextBelow(12));
        double dice = rng.NextDouble();
        if (dice < 0.45) {
          (void)me.map->Put(key, std::to_string(rng.Next() % 1000));
        } else if (dice < 0.55) {
          (void)me.map->Remove(key);
        } else if (dice < 0.75) {
          (void)me.map->Get(key);
        } else if (dice < 0.9) {
          // A small transaction (may abort; that's fine).
          (void)me.map->Get(key);
          (void)me.rt->BeginTx();
          (void)me.map->Get(key);
          (void)me.map->Put(key, "tx" + std::to_string(op));
          Status st = me.rt->EndTx();
          if (!st.ok() && st != StatusCode::kAborted &&
              st != StatusCode::kTimeout) {
            ADD_FAILURE() << "unexpected EndTx status: " << st.ToString();
          }
          if (me.rt->InTx()) {
            me.rt->AbortTx();
          }
        } else {
          // Abandon an offset: a simulated crash mid-append (leaves a hole
          // in stream 1 for everyone else to repair).
          (void)corfu::SequencerNext(&transport_,
                                     me.log->projection().sequencer,
                                     me.log->projection().epoch, 1, {1});
          barrier_hits.fetch_add(1);
        }
      }
    });
  }

  // Fault injection while the workload runs: replace the sequencer, write a
  // checkpoint of its state.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(cluster_->ReplaceSequencer(chaos_admin.get()).ok());
  (void)chaos_admin->WriteSequencerCheckpoint();

  for (std::thread& w : workers) {
    w.join();
  }

  // Quiesce: every live view must agree.
  std::vector<std::map<std::string, std::string>> snapshots;
  for (Client& client : clients) {
    snapshots.push_back(Snapshot(*client.map));
  }
  EXPECT_EQ(snapshots[0], snapshots[1]);
  EXPECT_EQ(snapshots[1], snapshots[2]);

  // A cold client replays the whole history (holes repaired, reconfigured
  // epochs crossed) and lands on the same state.
  auto cold_log = MakeClient();
  TangoRuntime cold_rt(cold_log.get());
  TangoMap cold_map(&cold_rt, 1);
  EXPECT_EQ(Snapshot(cold_map), snapshots[0]);

  // Checkpoint + forget, then one more cold rebuild from the checkpoint.
  auto checkpoint = clients[0].rt->WriteCheckpoint(1);
  ASSERT_TRUE(checkpoint.ok());
  ASSERT_TRUE(clients[0].rt->Forget(1, *checkpoint).ok());
  auto trimmed_log = MakeClient();
  TangoRuntime trimmed_rt(trimmed_log.get());
  TangoMap trimmed_map(&trimmed_rt, 1);
  ASSERT_TRUE(trimmed_rt.LoadObject(1).ok());
  EXPECT_EQ(Snapshot(trimmed_map), snapshots[0]);

  // Registry accounting must balance at quiescence, faults and all.
  obs::MetricsRegistry::Snapshot after = obs::MetricsRegistry::Default().Snap();
  auto delta = [&](const char* name) {
    return CounterAt(after, name) - CounterAt(before, name);
  };

  // Every counted transaction attempt resolved to exactly one outcome.
  uint64_t attempts = delta("runtime.txn.attempts");
  EXPECT_GT(attempts, 0u);
  EXPECT_EQ(attempts, delta("runtime.txn.commits") +
                          delta("runtime.txn.aborts") +
                          delta("runtime.txn.timeouts") +
                          delta("runtime.txn.errors"));

  // Every playback read that missed the entry cache resolved: served,
  // trimmed, or failed — even with injected holes, sequencer replacement
  // and trims in the mix.  (Cache hits are the served fast path; demanded
  // reads == hits + misses by construction.)
  uint64_t misses = delta("store.cache.misses");
  EXPECT_GT(misses + delta("store.cache.hits"), 0u);
  EXPECT_EQ(misses, delta("store.fetch.miss_ok") +
                        delta("store.fetch.trimmed") +
                        delta("store.fetch.errors"));

  // Appends cannot outnumber granted tokens (every append consumed one;
  // abandoned offsets and retries may consume more).
  EXPECT_GE(delta("sequencer.tokens"), delta("log.appends"));
}

TEST_P(ChaosTest, SelfHealsUnderKillAndPartition) {
  // The self-healing tentpole under chaos: a storage node dies and a worker
  // suffers an asymmetric partition mid-run while the background
  // HealthMonitor is active.  No operator steps in; the cluster must
  // converge on its own and every view must agree afterwards.
  constexpr int kWorkers = 3;
  constexpr int kOpsPerWorker = 40;

  obs::MetricsRegistry::Snapshot before = obs::MetricsRegistry::Default().Snap();

  corfu::HealthMonitor::Options monitor_options;
  monitor_options.heartbeat_interval_ms = 2;
  monitor_options.miss_threshold = 3;
  corfu::HealthMonitor* monitor = cluster_->StartHealthMonitor(monitor_options);

  struct Client {
    std::unique_ptr<corfu::CorfuClient> log;
    std::unique_ptr<TangoRuntime> rt;
    std::unique_ptr<TangoMap> map;
  };
  std::vector<Client> clients(kWorkers);
  for (int i = 0; i < kWorkers; ++i) {
    corfu::CorfuClient::Options options;
    options.hole_timeout_ms = 5;
    options.max_epoch_retries = 64;
    clients[i].log = cluster_->MakeClient(options);
    clients[i].rt = std::make_unique<TangoRuntime>(clients[i].log.get());
    clients[i].map = std::make_unique<TangoMap>(clients[i].rt.get(), 1);
  }

  std::vector<std::thread> workers;
  for (int i = 0; i < kWorkers; ++i) {
    workers.emplace_back([&, i] {
      // Each worker carries a network identity so per-link partitions can
      // single it out.
      ScopedNetworkIdentity identity(900 + static_cast<NodeId>(i));
      Rng rng(GetParam() * 977 + i);
      Client& me = clients[i];
      for (int op = 0; op < kOpsPerWorker; ++op) {
        std::string key = "k" + std::to_string(rng.NextBelow(10));
        double dice = rng.NextDouble();
        if (dice < 0.5) {
          (void)me.map->Put(key, std::to_string(rng.Next() % 1000));
        } else if (dice < 0.6) {
          (void)me.map->Remove(key);
        } else if (dice < 0.8) {
          (void)me.map->Get(key);
        } else {
          (void)me.map->Get(key);
          (void)me.rt->BeginTx();
          (void)me.map->Get(key);
          (void)me.map->Put(key, "tx" + std::to_string(op));
          Status st = me.rt->EndTx();
          // Aborts, retry exhaustion and unreachable chains are all legal
          // outcomes while the fault is live.
          if (!st.ok() && st != StatusCode::kAborted &&
              st != StatusCode::kTimeout && st != StatusCode::kUnavailable) {
            ADD_FAILURE() << "unexpected EndTx status: " << st.ToString();
          }
          if (me.rt->InTx()) {
            me.rt->AbortTx();
          }
        }
      }
    });
  }

  // Faults: kill a seeded-random storage node, and partition worker 0 away
  // from a second node (asymmetric: only 900 -> node is cut), healed later.
  Rng fault_rng(GetParam());
  int num_nodes = cluster_->options().num_storage_nodes;
  uint64_t kill_index = fault_rng.NextBelow(static_cast<uint64_t>(num_nodes));
  NodeId victim =
      cluster_->options().storage_base + static_cast<NodeId>(kill_index);
  NodeId cut_target =
      cluster_->options().storage_base +
      static_cast<NodeId>((kill_index + 1) % static_cast<uint64_t>(num_nodes));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  transport_.KillNode(victim);
  transport_.PartitionLink(900, cut_target);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  transport_.HealAllLinks();

  for (std::thread& w : workers) {
    w.join();
  }

  // The monitor must converge the cluster: victim evicted, chains back to
  // full strength, recovery complete.
  bool healed = false;
  for (int i = 0; i < 1000 && !healed; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(clients[0].log->RefreshProjection().ok());
    corfu::Projection now = clients[0].log->projection();
    healed = !monitor->InRecovery();
    for (const auto& chain : now.replica_sets) {
      healed = healed && chain.size() == 2;
      for (NodeId node : chain) {
        healed = healed && node != victim;
      }
    }
  }
  ASSERT_TRUE(healed) << "cluster did not self-heal";

  // Convergence audit: all live views and a cold replay agree exactly.
  std::vector<std::map<std::string, std::string>> snapshots;
  for (Client& client : clients) {
    snapshots.push_back(Snapshot(*client.map));
  }
  EXPECT_EQ(snapshots[0], snapshots[1]);
  EXPECT_EQ(snapshots[1], snapshots[2]);
  auto cold_log = MakeClient();
  TangoRuntime cold_rt(cold_log.get());
  TangoMap cold_map(&cold_rt, 1);
  EXPECT_EQ(Snapshot(cold_map), snapshots[0]);

  // The recovery actually went through the monitor: at least one storage
  // failover and a recorded detection->repaired latency.
  obs::MetricsRegistry::Snapshot after = obs::MetricsRegistry::Default().Snap();
  EXPECT_GE(CounterAt(after, "health.failovers_storage"),
            CounterAt(before, "health.failovers_storage") + 1);
  auto hist = [](const obs::MetricsRegistry::Snapshot& snap) -> uint64_t {
    auto it = snap.histograms.find("health.recovery_latency_us");
    return it == snap.histograms.end() ? 0 : it->second.count();
  };
  EXPECT_GE(hist(after), hist(before) + 1);
}

TEST_P(ChaosTest, AppendStormPipelined) {
  // A concurrent AppendAsync storm through one pipelined client while a
  // storage node dies and the client loses a link mid-window.  Afterwards:
  // every append that completed OK is readable at its offset with its
  // payload, every abandoned token was junk-filled, and no offset below the
  // tail is a lasting hole.
  constexpr int kSubmitters = 3;
  constexpr int kPerSubmitter = 40;

  corfu::CorfuClient::Options options;
  options.hole_timeout_ms = 5;
  options.max_epoch_retries = 64;
  options.pipeline.window = 16;
  options.pipeline.grant_batch = 8;
  auto client = cluster_->MakeClient(options);

  struct Landed {
    std::string payload;
    corfu::LogOffset offset;
    corfu::StreamId stream;
  };
  std::mutex landed_mu;
  std::vector<Landed> landed;
  std::atomic<int> failed{0};

  std::vector<std::thread> submitters;
  for (int i = 0; i < kSubmitters; ++i) {
    submitters.emplace_back([&, i] {
      Rng rng(GetParam() * 313 + i);
      std::vector<std::pair<Landed, corfu::AppendPipeline::Handle>> inflight;
      for (int op = 0; op < kPerSubmitter; ++op) {
        std::string payload = "s" + std::to_string(i) + "." +
                              std::to_string(op) + "." +
                              std::to_string(rng.Next() % 1000);
        auto stream = static_cast<corfu::StreamId>(1 + rng.NextBelow(3));
        auto handle =
            client->AppendAsync(tango_test::Bytes(payload), {stream});
        inflight.emplace_back(Landed{payload, corfu::kInvalidOffset, stream},
                              std::move(handle));
      }
      for (auto& [record, handle] : inflight) {
        Status st = handle.Wait();
        if (st.ok()) {
          record.offset = handle.offset();
          std::lock_guard<std::mutex> lock(landed_mu);
          landed.push_back(record);
        } else {
          // Unreachable chains and exhausted retries are legal outcomes
          // while the faults are live; anything else is a bug.
          if (st != StatusCode::kUnavailable && st != StatusCode::kTimeout) {
            ADD_FAILURE() << "unexpected append status: " << st.ToString();
          }
          failed.fetch_add(1);
        }
      }
    });
  }

  // Faults mid-window: kill a seeded-random storage node and cut the
  // anonymous client identity (which the pipeline's workers carry) off from
  // a second node; heal and revive while the storm is still running so the
  // teardown fills can land.
  Rng fault_rng(GetParam());
  int num_nodes = cluster_->options().num_storage_nodes;
  uint64_t kill_index = fault_rng.NextBelow(static_cast<uint64_t>(num_nodes));
  NodeId victim =
      cluster_->options().storage_base + static_cast<NodeId>(kill_index);
  NodeId cut_target =
      cluster_->options().storage_base +
      static_cast<NodeId>((kill_index + 1) % static_cast<uint64_t>(num_nodes));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  transport_.KillNode(victim);
  transport_.PartitionLink(kInvalidNodeId, cut_target);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  transport_.HealAllLinks();
  transport_.ReviveNode(victim);

  for (std::thread& s : submitters) {
    s.join();
  }
  client->pipeline().Shutdown();

  // Token conservation: every submitted append resolved exactly once, and
  // every abandoned token (chain failures, stale epochs, pooled surplus)
  // was junk-filled — none leaked as a permanent hole.
  corfu::AppendPipeline::Stats stats = client->pipeline().stats();
  EXPECT_EQ(stats.submitted,
            static_cast<uint64_t>(kSubmitters * kPerSubmitter));
  EXPECT_EQ(stats.completed_ok + stats.completed_error, stats.submitted);
  EXPECT_EQ(stats.completed_error, static_cast<uint64_t>(failed.load()));
  EXPECT_EQ(stats.tokens_abandoned, stats.tokens_filled + stats.fill_failures);
  EXPECT_EQ(stats.fill_failures, 0u);

  // Every completed append is readable, with its payload, on its stream.
  auto reader = MakeClient();
  for (const Landed& record : landed) {
    auto entry = reader->Read(record.offset);
    ASSERT_TRUE(entry.ok()) << "offset " << record.offset;
    EXPECT_EQ(tango_test::Str(entry->payload), record.payload);
    EXPECT_NE(entry->FindHeader(record.stream), nullptr);
  }

  // No permanent holes: every offset below the tail was written or filled.
  auto tail = reader->CheckTail();
  ASSERT_TRUE(tail.ok());
  std::vector<corfu::LogOffset> offsets;
  for (corfu::LogOffset o = 0; o < *tail; ++o) {
    offsets.push_back(o);
  }
  auto batch = reader->ReadBatch(offsets);
  ASSERT_TRUE(batch.ok());
  for (corfu::LogOffset o = 0; o < *tail; ++o) {
    EXPECT_NE((*batch)[o].status.code(), StatusCode::kUnwritten)
        << "offset " << o << " left unwritten";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosTest,
                         ::testing::ValuesIn(tango_test::ChaosSeeds()));

}  // namespace
}  // namespace tango
