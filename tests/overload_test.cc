// Overload robustness: sequencer admission control, storage backpressure,
// kBusy hint propagation (in-proc and TCP), the per-node circuit breaker,
// AIMD pipeline adaptation, stream brown-out, and the retry-storm chaos
// test (shedding sequencer, N hammering clients, goodput + fairness).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/corfu/cluster.h"
#include "src/corfu/log_client.h"
#include "src/corfu/sequencer.h"
#include "src/corfu/storage_node.h"
#include "src/corfu/stream.h"
#include "src/corfu/types.h"
#include "src/net/breaker.h"
#include "src/net/inproc_transport.h"
#include "src/net/tcp_transport.h"
#include "src/obs/metrics.h"
#include "src/util/status.h"
#include "src/util/threading.h"
#include "tests/test_env.h"

namespace {

using corfu::CorfuClient;
using corfu::CorfuCluster;
using corfu::Sequencer;
using corfu::SequencerAdmission;
using corfu::SequencerGrant;
using corfu::StorageNode;
using corfu::StreamStore;
using tango::Status;
using tango::StatusCode;
using tango_test::Bytes;
using tango_test::CounterValue;

// --- Sequencer admission -----------------------------------------------

TEST(SequencerAdmissionTest, ShedsWithHintOnceBucketDrains) {
  tango::InProcTransport transport;
  SequencerAdmission admission;
  admission.capacity_tokens_per_sec = 1000;
  admission.burst_tokens = 16;
  Sequencer seq(&transport, /*node=*/10, /*epoch=*/1,
                corfu::kDefaultBackpointerCount, admission);

  // The burst is admitted...
  ASSERT_TRUE(seq.Next(1, 16, {}).ok());
  // ...then the very next grant sheds with a nonzero retry-after hint (the
  // bucket refills at 1 token/ms; a full 16-token demand is ~16 ms away).
  tango::Result<SequencerGrant> shed = seq.Next(1, 16, {});
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kBusy);
  EXPECT_GT(shed.status().retry_after_us(), 0u);
  EXPECT_LE(shed.status().retry_after_us(), 1'000'000u);

  // Control-plane traffic is never shed: Tail answers while Next is busy.
  EXPECT_TRUE(seq.Tail(1, {}).ok());

  // After roughly the hinted wait the bucket has refilled enough.
  std::this_thread::sleep_for(
      std::chrono::microseconds(2 * shed.status().retry_after_us()));
  EXPECT_TRUE(seq.Next(1, 16, {}).ok());
}

TEST(SequencerAdmissionTest, PerClientQuotaIsolatesAggressors) {
  tango::InProcTransport transport;
  SequencerAdmission admission;
  admission.capacity_tokens_per_sec = 100'000;
  admission.burst_tokens = 10'000;
  admission.per_client_share = 0.1;  // each client: 10k tokens/s, 1k burst
  Sequencer seq(&transport, 10, 1, corfu::kDefaultBackpointerCount, admission);

  // Client 1 drains its own quota...
  uint64_t shed_before = CounterValue("overload.sequencer.shed_client_quota");
  Status client1 = Status::Ok();
  for (int i = 0; i < 64 && client1.ok(); ++i) {
    client1 = seq.Next(1, 100, {}, /*client_id=*/1).status();
  }
  EXPECT_EQ(client1.code(), StatusCode::kBusy);
  EXPECT_GT(CounterValue("overload.sequencer.shed_client_quota"), shed_before);

  // ...while client 2's fresh bucket still admits.
  EXPECT_TRUE(seq.Next(1, 100, {}, /*client_id=*/2).ok());
}

TEST(SequencerAdmissionTest, DisabledByDefault) {
  tango::InProcTransport transport;
  Sequencer seq(&transport, 10, 1, corfu::kDefaultBackpointerCount);
  for (int i = 0; i < 10'000; ++i) {
    ASSERT_TRUE(seq.Next(1, 1, {}).ok());
  }
}

// --- Hint propagation over transports ----------------------------------

TEST(BusyHintTest, SurvivesInProcTransport) {
  tango::InProcTransport transport;
  transport.RegisterNode(42, [](uint16_t, tango::ByteReader&,
                                tango::ByteWriter&) {
    return Status::Busy(12'345, "synthetic shed");
  });
  std::vector<uint8_t> resp;
  Status st = transport.Call(42, 7, {}, &resp);
  EXPECT_EQ(st.code(), StatusCode::kBusy);
  EXPECT_EQ(st.retry_after_us(), 12'345u);
  transport.UnregisterNode(42);
}

TEST(BusyHintTest, SurvivesTcpTransport) {
  tango::TcpTransport transport;
  transport.RegisterNode(42, [](uint16_t method, tango::ByteReader&,
                                tango::ByteWriter& resp) {
    if (method == 1) {
      return Status::Busy(54'321, "synthetic shed");
    }
    resp.PutU32(7);
    return Status::Ok();
  });
  std::vector<uint8_t> resp;
  Status busy = transport.Call(42, 1, {}, &resp);
  EXPECT_EQ(busy.code(), StatusCode::kBusy);
  EXPECT_EQ(busy.retry_after_us(), 54'321u);
  // A normal reply still decodes after the widened response header.
  ASSERT_TRUE(transport.Call(42, 2, {}, &resp).ok());
  tango::ByteReader r(resp);
  EXPECT_EQ(r.GetU32(), 7u);
  transport.UnregisterNode(42);
}

// --- Storage backpressure ----------------------------------------------

TEST(StorageBackpressureTest, InflightWriteBoundSheds) {
  tango::InProcTransport transport;
  StorageNode::Options options;
  options.write_latency_us = 30'000;  // hold the first write in media
  options.max_inflight_writes = 1;
  StorageNode node(&transport, 100, options);

  std::atomic<bool> first_done{false};
  Status first = Status::Ok();
  std::thread writer([&] {
    first = node.WriteLocal(1, 0, Bytes("a"));
    first_done.store(true);
  });
  // Give the first write time to enter the (simulated) device.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_FALSE(first_done.load());
  Status second = node.WriteLocal(1, 1, Bytes("b"));
  writer.join();
  EXPECT_TRUE(first.ok()) << first.ToString();
  EXPECT_EQ(second.code(), StatusCode::kBusy);
  EXPECT_GT(second.retry_after_us(), 0u);
  // Once the device drains, the same write is admitted.
  EXPECT_TRUE(node.WriteLocal(1, 1, Bytes("b")).ok());
}

// --- Circuit breaker ----------------------------------------------------

TEST(CircuitBreakerTest, OpensFastFailsAndRecovers) {
  tango::InProcTransport inner;
  inner.RegisterNode(5, [](uint16_t, tango::ByteReader&, tango::ByteWriter&) {
    return Status::Ok();
  });
  tango::CircuitBreakerTransport::Options options;
  options.failure_threshold = 2;
  options.open_ms = 40;
  options.bypass = [](uint16_t m) { return corfu::IsControlPlaneRpc(m); };
  tango::CircuitBreakerTransport breaker(&inner, options);

  // Healthy: passes through.
  EXPECT_TRUE(breaker.Call(5, corfu::kStorageWrite, {}, nullptr).ok());

  inner.KillNode(5);
  EXPECT_EQ(breaker.Call(5, corfu::kStorageWrite, {}, nullptr).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(breaker.Call(5, corfu::kStorageWrite, {}, nullptr).code(),
            StatusCode::kUnavailable);
  // Threshold reached: open, data-plane calls fail fast with a hint.
  ASSERT_TRUE(breaker.IsOpen(5));
  Status fast = breaker.Call(5, corfu::kStorageWrite, {}, nullptr);
  EXPECT_EQ(fast.code(), StatusCode::kBusy);
  EXPECT_GT(fast.retry_after_us(), 0u);
  // Control-plane calls bypass the open breaker and see the real failure.
  EXPECT_EQ(breaker.Call(5, corfu::kStorageSeal, {}, nullptr).code(),
            StatusCode::kUnavailable);

  // Recovery: window elapses, the half-open probe succeeds, breaker closes.
  inner.ReviveNode(5);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_TRUE(breaker.Call(5, corfu::kStorageWrite, {}, nullptr).ok());
  EXPECT_FALSE(breaker.IsOpen(5));
  inner.UnregisterNode(5);
}

// --- Pipeline AIMD / shed-on-full / token deadline ----------------------

class OverloadClusterTest : public tango_test::ClusterFixture {};

TEST_F(OverloadClusterTest, PipelineShedsOnFullWindow) {
  CorfuClient::Options options;
  options.pipeline.window = 1;
  options.pipeline.workers = 1;
  options.pipeline.shed_on_full = true;
  auto client = cluster_->MakeClient(options);
  // Slow every RPC so the single window slot stays occupied while we pile
  // submissions on.
  transport_.set_link_latency_us(2'000);

  std::vector<corfu::AppendPipeline::Handle> handles;
  std::vector<uint8_t> payload = Bytes("overload");
  for (int i = 0; i < 16; ++i) {
    handles.push_back(client->AppendAsync(payload, {}));
  }
  int ok = 0, busy = 0;
  for (auto& h : handles) {
    Status st = h.Wait();
    if (st.ok()) {
      ++ok;
    } else if (st == StatusCode::kBusy) {
      EXPECT_GT(st.retry_after_us(), 0u);
      ++busy;
    }
  }
  transport_.set_link_latency_us(0);
  EXPECT_GE(ok, 1);
  EXPECT_GE(busy, 1);
  EXPECT_EQ(ok + busy, 16);
}

TEST_F(OverloadClusterTest, TokenDeadlineFreesWedgedWindow) {
  CorfuClient::Options options;
  options.pipeline.window = 2;
  options.pipeline.token_deadline_ms = 10;
  options.max_epoch_retries = 2;
  options.retry.deadline_ms = 500;
  auto client = cluster_->MakeClient(options);

  uint64_t timeouts_before = CounterValue("overload.pipeline.deadline_timeouts");
  // Wedge the whole data path: every chain write now takes ~100 ms of
  // simulated link time, far past the 10 ms token deadline.
  transport_.set_link_latency_us(25'000);
  auto handle = client->AppendAsync(Bytes("wedged"), {});
  Status st = handle.Wait();
  transport_.set_link_latency_us(0);
  // The append fails fast (deadline + bounded retries) instead of pinning
  // the worker for the full simulated latency times the retry budget.
  EXPECT_FALSE(st.ok());
  EXPECT_GT(CounterValue("overload.pipeline.deadline_timeouts"),
            timeouts_before);
  // The window shrank on the timeout signal...
  EXPECT_LT(client->pipeline().window_limit(), options.pipeline.window);
  // ...and the pipeline still works once the wedge clears: successes grow
  // the window back.
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(client->AppendAsync(Bytes("after"), {}).Wait().ok());
  }
  EXPECT_EQ(client->pipeline().window_limit(), options.pipeline.window);
  client->pipeline().Drain();
}

// --- Stream brown-out ----------------------------------------------------

TEST_F(OverloadClusterTest, StreamSyncServesStaleTailDuringOutage) {
  CorfuClient::Options options;
  options.max_epoch_retries = 2;
  auto client = cluster_->MakeClient(options);
  StreamStore store(client.get());
  const corfu::StreamId stream = 7;
  store.Open(stream);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(store.Append(stream, Bytes("entry")).ok());
  }
  tango::Result<corfu::LogOffset> fresh = store.Sync(stream);
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(store.IsStale(stream));
  // Pull everything through the cache while the cluster is healthy.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(store.ReadNext(stream).ok());
  }

  // Sequencer outage: Sync degrades to the stale tail instead of failing.
  transport_.KillNode(cluster_->sequencer()->node());
  uint64_t stale_before = CounterValue("overload.stream.stale_syncs");
  tango::Result<corfu::LogOffset> stale = store.Sync(stream);
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(*stale, *fresh);
  EXPECT_TRUE(store.IsStale(stream));
  EXPECT_GT(CounterValue("overload.stream.stale_syncs"), stale_before);
  // Replays of already-synced history serve from the LRU entry cache.
  store.ResetCursor(stream);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(store.ReadNext(stream).ok());
  }

  // Recovery: a fresh Sync clears the stale mark and sees new appends.
  transport_.ReviveNode(cluster_->sequencer()->node());
  ASSERT_TRUE(store.Append(stream, Bytes("post-outage")).ok());
  tango::Result<corfu::LogOffset> after = store.Sync(stream);
  ASSERT_TRUE(after.ok());
  EXPECT_GT(*after, *fresh);
  EXPECT_FALSE(store.IsStale(stream));
  EXPECT_TRUE(store.ReadNext(stream).ok());
}

// --- Retry-storm chaos ---------------------------------------------------

TEST(OverloadChaosTest, ShedingSequencerSustainsGoodputWithoutStarvation) {
  constexpr int kClients = 8;
  constexpr uint64_t kCapacity = 2'000;  // tokens/sec
  tango::InProcTransport transport;
  CorfuCluster::Options cluster_options;
  cluster_options.num_storage_nodes = 6;
  cluster_options.replication_factor = 2;
  cluster_options.admission.capacity_tokens_per_sec = kCapacity;
  cluster_options.admission.burst_tokens = kCapacity / 8;
  cluster_options.admission.per_client_share = 1.0 / kClients;
  CorfuCluster cluster(&transport, cluster_options);

  uint64_t shed_before = CounterValue("overload.sequencer.shed");
  uint64_t admitted_before = CounterValue("overload.sequencer.admitted_tokens");

  std::vector<uint64_t> successes(kClients, 0);
  std::vector<std::thread> threads;
  uint64_t start_us = tango::NowMicros();
  uint64_t deadline_us = start_us + 900'000;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = cluster.MakeClient();
      std::vector<uint8_t> payload = Bytes("storm");
      while (tango::NowMicros() < deadline_us) {
        // Closed-loop hammering: every client retries (with hints) as fast
        // as the policy allows; failures just re-drive.
        if (client->Append(payload).ok()) {
          ++successes[c];
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  uint64_t elapsed_us = tango::NowMicros() - start_us;

  uint64_t total = 0;
  for (uint64_t s : successes) {
    total += s;
  }
  double expected = static_cast<double>(kCapacity) * elapsed_us / 1e6;

  // The sequencer actually shed under 8 hammering clients...
  EXPECT_GT(CounterValue("overload.sequencer.shed"), shed_before);
  // ...admitted tokens match the completed appends (every admit becomes one
  // append attempt; chain writes on a healthy cluster succeed)...
  uint64_t admitted =
      CounterValue("overload.sequencer.admitted_tokens") - admitted_before;
  EXPECT_GE(admitted, total);
  // ...goodput lands within a generous band of capacity x time (the bucket
  // admits at capacity, plus up to one burst; scheduling noise subtracts).
  EXPECT_GE(total, static_cast<uint64_t>(expected * 0.5));
  EXPECT_LE(total, static_cast<uint64_t>(expected * 1.5) +
                       cluster_options.admission.burst_tokens);
  // ...and per-client quotas kept every client alive: nobody got less than
  // a quarter of their fair share.
  for (int c = 0; c < kClients; ++c) {
    EXPECT_GE(successes[c], total / (kClients * 4))
        << "client " << c << " starved: " << successes[c] << "/" << total;
  }
}

}  // namespace
