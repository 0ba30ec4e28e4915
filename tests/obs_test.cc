// Tests for the observability layer: metrics registry, concurrent histogram,
// trace-context propagation (in-proc and TCP), the HTTP endpoint, and the
// end-to-end acceptance property — one committed read-write transaction
// produces a single causal trace from client commit through the sequencer and
// every chain replica to playback apply, exportable as Chrome trace JSON.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/net/tcp_transport.h"
#include "src/objects/tango_register.h"
#include "src/obs/flight.h"
#include "src/obs/http.h"
#include "src/obs/metrics.h"
#include "src/obs/rpc_metrics.h"
#include "src/obs/slo.h"
#include "src/obs/trace.h"
#include "src/runtime/runtime.h"
#include "src/util/serialize.h"
#include "src/util/threading.h"
#include "tests/test_env.h"

namespace tango::obs {
namespace {

using tango_test::ClusterFixture;

// Restores tracer state even if a test fails mid-way, so later tests in this
// binary never inherit an enabled tracer, a dirty buffer, or a non-default
// sampling policy.
struct ScopedTracer {
  ScopedTracer() {
    Tracer::Default().Clear();
    Tracer::Default().SetSampling({});  // keep everything
    Tracer::Default().SetEnabled(true);
  }
  ~ScopedTracer() {
    Tracer::Default().SetEnabled(false);
    Tracer::Default().SetSampling({});
    Tracer::Default().Clear();
  }
};

// --- registry ----------------------------------------------------------------------

TEST(MetricsRegistryTest, SameNameSameInstrument) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("x.count");
  Counter* b = reg.GetCounter("x.count");
  EXPECT_EQ(a, b);
  EXPECT_NE(reg.GetCounter("y.count"), a);
  // Counters, gauges and histograms are separate namespaces.
  EXPECT_NE(static_cast<void*>(reg.GetGauge("x.count")),
            static_cast<void*>(a));
}

TEST(MetricsRegistryTest, SnapshotReflectsUpdates) {
  MetricsRegistry reg;
  reg.GetCounter("c.events")->Add(3);
  reg.GetGauge("g.depth")->Set(-7);
  reg.GetHistogram("h.lat")->Record(100);
  reg.GetHistogram("h.lat")->Record(200);

  MetricsRegistry::Snapshot snap = reg.Snap();
  EXPECT_EQ(snap.counters.at("c.events"), 3u);
  EXPECT_EQ(snap.gauges.at("g.depth"), -7);
  EXPECT_EQ(snap.histograms.at("h.lat").count(), 2u);
  EXPECT_EQ(snap.histograms.at("h.lat").min(), 100u);
  EXPECT_EQ(snap.histograms.at("h.lat").max(), 200u);

  std::string text = reg.RenderText();
  EXPECT_NE(text.find("c.events 3"), std::string::npos) << text;
  std::string json = reg.RenderJson();
  EXPECT_NE(json.find("\"c.events\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"g.depth\":-7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"h.lat\""), std::string::npos) << json;

  reg.ResetAll();
  EXPECT_EQ(reg.Snap().counters.at("c.events"), 0u);
  EXPECT_EQ(reg.Snap().histograms.at("h.lat").count(), 0u);
}

TEST(MetricsRegistryTest, DisabledMetricsAreNoOps) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("c.gated");
  Gauge* g = reg.GetGauge("g.gated");
  SetMetricsEnabled(false);
  c->Add(5);
  g->Set(5);
  SetMetricsEnabled(true);
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(g->Value(), 0);
  c->Add(2);
  EXPECT_EQ(c->Value(), 2u);
}

TEST(MetricsRegistryTest, ConcurrentResolveAndUpdate) {
  MetricsRegistry reg;
  RunParallel(8, [&](int t) {
    for (int i = 0; i < 1000; ++i) {
      reg.GetCounter("shared.count")->Add();
      reg.GetCounter("per." + std::to_string(t))->Add();
    }
  });
  EXPECT_EQ(reg.GetCounter("shared.count")->Value(), 8000u);
  for (int t = 0; t < 8; ++t) {
    EXPECT_EQ(reg.GetCounter("per." + std::to_string(t))->Value(), 1000u);
  }
}

TEST(ObsHistogramTest, ConcurrentRecordsAllCounted) {
  obs::Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  RunParallel(kThreads, [&](int t) {
    for (int i = 1; i <= kPerThread; ++i) {
      h.Record(static_cast<uint64_t>(t * kPerThread + i));
    }
  });
  tango::Histogram snap = h.Snapshot();
  EXPECT_EQ(snap.count(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(snap.min(), 1u);
  EXPECT_EQ(snap.max(), static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t n = static_cast<uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(snap.sum(), n * (n + 1) / 2);
  EXPECT_NEAR(static_cast<double>(snap.Percentile(0.5)),
              static_cast<double>(n) / 2, static_cast<double>(n) * 0.05);
}

TEST(PeriodicStatsDumperTest, DumpsToFile) {
  std::string path = ::testing::TempDir() + "/tango_stats_dump.txt";
  std::remove(path.c_str());
  MetricsRegistry::Default().GetCounter("dumper.test.marker")->Add();
  {
    PeriodicStatsDumper dumper(/*interval_ms=*/5, path);
    while (dumper.dumps() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents(1 << 16, '\0');
  size_t len = std::fread(contents.data(), 1, contents.size(), f);
  std::fclose(f);
  contents.resize(len);
  EXPECT_NE(contents.find("dumper.test.marker"), std::string::npos);
  std::remove(path.c_str());
}

// --- tracing -----------------------------------------------------------------------

TEST(TraceTest, DisabledScopesAreInert) {
  Tracer::Default().Clear();
  ASSERT_FALSE(Tracer::Default().enabled());
  {
    TraceScope scope("should.not.record");
    EXPECT_FALSE(scope.active());
    EXPECT_FALSE(CurrentTrace().active());
  }
  EXPECT_TRUE(Tracer::Default().Spans().empty());
}

TEST(TraceTest, NestedScopesFormParentChain) {
  ScopedTracer tracer;
  {
    TraceScope outer("outer");
    ASSERT_TRUE(CurrentTrace().active());
    uint64_t outer_span = CurrentTrace().span_id;
    {
      TraceScope inner("inner");
      EXPECT_NE(CurrentTrace().span_id, outer_span);
    }
    // Leaving the inner scope restores the outer context.
    EXPECT_EQ(CurrentTrace().span_id, outer_span);
  }
  EXPECT_FALSE(CurrentTrace().active());

  std::vector<Span> spans = Tracer::Default().Spans();
  ASSERT_EQ(spans.size(), 2u);  // inner recorded first (finished first)
  const Span& inner = spans[0];
  const Span& outer = spans[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.parent_id, 0u);
  EXPECT_EQ(inner.parent_id, outer.span_id);
  EXPECT_EQ(inner.trace_id, outer.trace_id);
  EXPECT_NE(outer.trace_id, 0u);
}

TEST(TraceTest, ChromeExportContainsCompleteEvents) {
  ScopedTracer tracer;
  { TraceScope scope("export.me"); }
  std::string json = Tracer::Default().ExportChromeJson();
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"export.me\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"trace_id\""), std::string::npos) << json;
}

TEST(TraceTest, BoundedBufferDropsOldest) {
  ScopedTracer tracer;
  Tracer::Default().set_capacity(8);
  for (int i = 0; i < 20; ++i) {
    TraceScope scope("spam");
  }
  EXPECT_LE(Tracer::Default().Spans().size(), 8u);
  EXPECT_GE(Tracer::Default().dropped(), 12u);
  Tracer::Default().set_capacity(1 << 16);
}

TEST(TraceTest, TcpTransportPropagatesContext) {
  ScopedTracer tracer;
  TcpTransport transport;
  transport.RegisterNode(7, [](uint16_t, ByteReader&, ByteWriter& resp) {
    resp.PutU32(1);
    return Status::Ok();
  });

  {
    TraceScope root("tcp.test.root");
    std::vector<uint8_t> resp;
    ASSERT_TRUE(transport.Call(7, /*method=*/1, {}, &resp).ok());
  }

  // Expect three spans in one trace: the client round trip parented under
  // the root, and the server-side handler span (recorded on the listener
  // thread) parented under the client span — proof the context crossed the
  // wire.
  std::vector<Span> spans = Tracer::Default().Spans();
  std::map<uint64_t, Span> by_id;
  const Span* root = nullptr;
  for (const Span& s : spans) {
    by_id[s.span_id] = s;
    if (s.name == "tcp.test.root") {
      root = &by_id[s.span_id];
    }
  }
  ASSERT_NE(root, nullptr);

  const Span* client = nullptr;
  const Span* server = nullptr;
  for (const Span& s : spans) {
    if (s.name != "rpc:other") {
      continue;
    }
    if (s.parent_id == root->span_id) {
      client = &by_id[s.span_id];
    }
  }
  ASSERT_NE(client, nullptr) << "no client rpc span under the root";
  for (const Span& s : spans) {
    if (s.name == "rpc:other" && s.parent_id == client->span_id) {
      server = &by_id[s.span_id];
    }
  }
  ASSERT_NE(server, nullptr) << "server span did not adopt the wire context";
  EXPECT_EQ(server->trace_id, root->trace_id);
  EXPECT_NE(server->thread, client->thread);  // listener thread, not caller
}

// --- sampling ----------------------------------------------------------------------

TEST(SamplingTest, HeadSamplingIsDeterministicUnderFixedSeed) {
  ScopedTracer tracer;
  Tracer& t = Tracer::Default();
  t.SetSampling({/*sample_every=*/64, /*slow_us=*/0, /*seed=*/12345});

  // Pure function of (policy, id): repeated queries agree, and the kept
  // fraction over a large id range is within a loose band of 1/64.
  int kept = 0;
  for (uint64_t id = 1; id <= 64 * 100; ++id) {
    bool first = t.WouldHeadSample(id);
    EXPECT_EQ(first, t.WouldHeadSample(id)) << "id " << id;
    kept += first ? 1 : 0;
  }
  EXPECT_GT(kept, 40);
  EXPECT_LT(kept, 200);

  // A different seed flips some decisions (overwhelmingly likely).
  t.SetSampling({64, 0, 54321});
  int changed = 0;
  for (uint64_t id = 1; id <= 64 * 100; ++id) {
    t.SetSampling({64, 0, 12345});
    bool a = t.WouldHeadSample(id);
    t.SetSampling({64, 0, 54321});
    if (a != t.WouldHeadSample(id)) {
      ++changed;
    }
  }
  EXPECT_GT(changed, 0);

  // sample_every <= 1 keeps everything.
  t.SetSampling({1, 0, 12345});
  for (uint64_t id = 1; id <= 100; ++id) {
    EXPECT_TRUE(t.WouldHeadSample(id));
  }
}

TEST(SamplingTest, HeadSampledOutRootsAreDropped) {
  ScopedTracer tracer;
  Tracer& t = Tracer::Default();
  // Practically never head-sample; no slow threshold.
  t.SetSampling({1ULL << 40, 0, 7});
  for (int i = 0; i < 50; ++i) {
    TraceScope scope("sampled.out");
  }
  EXPECT_TRUE(t.Spans().empty());
  EXPECT_GE(t.head_sampled_out(), 50u);
  EXPECT_EQ(t.tail_retained(), 0u);
}

TEST(SamplingTest, SlowRootsAreRetainedInHindsight) {
  ScopedTracer tracer;
  Tracer& t = Tracer::Default();
  t.SetSampling({1ULL << 40, /*slow_us=*/2000, 7});

  // Fast roots drop...
  for (int i = 0; i < 10; ++i) {
    TraceScope scope("fast.root");
  }
  EXPECT_TRUE(t.Spans().empty());

  // ...but a root that crosses the threshold is kept, children included.
  {
    TraceScope root("slow.root");
    TraceScope child("slow.child");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(t.tail_retained(), 1u);
  std::vector<Span> spans = t.Spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "slow.child");
  EXPECT_EQ(spans[1].name, "slow.root");
  EXPECT_TRUE(t.IsRetained(spans[1].trace_id));
}

TEST(SamplingTest, AdoptedSpansAreAlwaysRetained) {
  ScopedTracer tracer;
  Tracer& t = Tracer::Default();
  // Local policy would drop everything — but an adopted span's sampling
  // decision belongs to the remote root, so it must be retained here.
  t.SetSampling({1ULL << 40, 0, 7});
  TraceContext incoming{/*trace_id=*/0xabcdef, /*span_id=*/0x1234};
  { TraceScope adopted("remote.handler", incoming, /*node=*/3); }
  EXPECT_TRUE(t.IsRetained(0xabcdef));
  std::vector<Span> spans = t.Spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].trace_id, 0xabcdefu);
  EXPECT_EQ(spans[0].parent_id, 0x1234u);
}

// The TSan target: many client threads multiplexing traced calls over one
// TcpTransport while an exporter thread snapshots concurrently.  Asserts
// the spans stay structurally sane; the scheduler provides the interleaving.
TEST(SamplingTest, ConcurrentTcpCallsPropagateContextCleanly) {
  ScopedTracer tracer;
  TcpTransport transport;
  transport.RegisterNode(9, [](uint16_t, ByteReader&, ByteWriter& resp) {
    resp.PutU32(1);
    return Status::Ok();
  });

  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 25;
  std::atomic<bool> exporting{true};
  std::thread exporter([&] {
    while (exporting.load()) {
      (void)Tracer::Default().Spans();
      (void)Tracer::Default().RingSpans();
    }
  });
  RunParallel(kThreads, [&](int) {
    for (int i = 0; i < kCallsPerThread; ++i) {
      TraceScope root("tcp.concurrent.root");
      std::vector<uint8_t> resp;
      ASSERT_TRUE(transport.Call(9, /*method=*/1, {}, &resp).ok());
    }
  });
  exporting.store(false);
  exporter.join();

  // Each root trace must contain its client-side rpc span; server spans
  // (adopted on listener threads) must carry a trace id some root owns.
  std::vector<Span> spans = Tracer::Default().Spans();
  std::map<uint64_t, int> rpc_spans_by_trace;
  std::map<uint64_t, int> roots_by_trace;
  for (const Span& s : spans) {
    if (s.name == "tcp.concurrent.root") {
      roots_by_trace[s.trace_id]++;
    } else if (s.name == "rpc:other") {
      rpc_spans_by_trace[s.trace_id]++;
    }
  }
  EXPECT_EQ(roots_by_trace.size(),
            static_cast<size_t>(kThreads) * kCallsPerThread);
  for (const auto& [trace_id, n] : roots_by_trace) {
    EXPECT_EQ(n, 1) << "trace ids must be unique per root";
    // Client + server span for every call (both retained with this trace).
    EXPECT_EQ(rpc_spans_by_trace[trace_id], 2) << "trace " << trace_id;
  }
}

// Out-of-order completion: concurrent traced calls asking for different
// server-side delays complete in roughly reverse submission order.  Every
// trace must still contain exactly its own client-side rpc span (under its
// root) and exactly one adopted server span (under that client span) — a
// reply reaching the wrong call would cross-wire the trace envelopes.
TEST(SamplingTest, OutOfOrderMultiplexedResponsesKeepTracesIntact) {
  ScopedTracer tracer;
  // Handlers run on the transport's loop, so the delayed replies are
  // deferred and completed from helper threads (joined after the transport).
  std::mutex helpers_mu;
  std::vector<std::jthread> helpers;
  TcpTransport transport;
  transport.RegisterNode(9, [&](uint16_t, ByteReader& req, ByteWriter& resp) {
    uint32_t delay_ms = req.GetU32();
    resp.PutU32(delay_ms);
    std::shared_ptr<DeferredReply> reply = DeferReply(req);
    std::lock_guard<std::mutex> lock(helpers_mu);
    helpers.emplace_back([reply, delay_ms, bytes = resp.bytes()] {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      reply->Complete(Status::Ok(), bytes);
    });
    return Status::Ok();
  });

  constexpr int kCalls = 6;
  RunParallel(kCalls, [&](int i) {
    // Later threads ask for shorter handler delays.
    uint32_t delay_ms = static_cast<uint32_t>((kCalls - 1 - i) * 60);
    TraceScope root("tcp.mux.root");
    ByteWriter w;
    w.PutU32(delay_ms);
    std::vector<uint8_t> resp;
    ASSERT_TRUE(transport.Call(9, /*method=*/1, w.Take(), &resp).ok());
    ByteReader r(resp);
    EXPECT_EQ(r.GetU32(), delay_ms);  // the response reached its caller
  });

  std::vector<Span> spans = Tracer::Default().Spans();
  std::map<uint64_t, const Span*> roots;
  for (const Span& s : spans) {
    if (s.name == "tcp.mux.root") {
      roots[s.trace_id] = &s;
    }
  }
  ASSERT_EQ(roots.size(), static_cast<size_t>(kCalls));
  for (const auto& [trace_id, root] : roots) {
    const Span* client = nullptr;
    for (const Span& s : spans) {
      if (s.trace_id == trace_id && s.name == "rpc:other" &&
          s.parent_id == root->span_id) {
        ASSERT_EQ(client, nullptr) << "duplicate client span in " << trace_id;
        client = &s;
      }
    }
    ASSERT_NE(client, nullptr) << "no client rpc span in trace " << trace_id;
    int server_spans = 0;
    for (const Span& s : spans) {
      if (s.trace_id == trace_id && s.name == "rpc:other" &&
          s.parent_id == client->span_id) {
        ++server_spans;
      }
    }
    EXPECT_EQ(server_spans, 1) << "trace " << trace_id;
  }
}

// --- exemplars ---------------------------------------------------------------------

TEST(ExemplarTest, RecordStampsActiveTraceIntoBucketRange) {
  ScopedTracer tracer;
  obs::Histogram h;
  // No active context: no exemplar.
  h.Record(100);
  EXPECT_TRUE(h.Exemplars().empty());

  uint64_t trace_id = 0;
  {
    TraceScope scope("exemplar.root");
    trace_id = CurrentTrace().trace_id;
    h.Record(100);        // low bucket
    h.Record(1'000'000);  // tail bucket
  }
  ASSERT_NE(trace_id, 0u);
  std::vector<obs::Histogram::Exemplar> ex = h.Exemplars();
  ASSERT_GE(ex.size(), 2u);
  for (const auto& e : ex) {
    EXPECT_EQ(e.trace_id, trace_id);
  }
  // The exemplar nearest the tail value links to the tail recording.
  obs::Histogram::Exemplar tail_ex = h.ExemplarNear(1'000'000);
  EXPECT_EQ(tail_ex.value, 1'000'000u);
  EXPECT_EQ(tail_ex.trace_id, trace_id);
  // A value in an unpopulated higher slot falls back to a populated one.
  EXPECT_NE(h.ExemplarNear(~0ULL).trace_id, 0u);

  h.Reset();
  EXPECT_TRUE(h.Exemplars().empty());
}

TEST(ExemplarTest, SnapshotAndPrometheusCarryExemplars) {
  ScopedTracer tracer;
  MetricsRegistry reg;
  uint64_t trace_id = 0;
  {
    TraceScope scope("exemplar.snap");
    trace_id = CurrentTrace().trace_id;
    reg.GetHistogram("ex.lat")->Record(5000);
  }
  MetricsRegistry::Snapshot snap = reg.Snap();
  ASSERT_EQ(snap.exemplars.count("ex.lat"), 1u);
  ASSERT_EQ(snap.exemplars.at("ex.lat").size(), 1u);
  EXPECT_EQ(snap.exemplars.at("ex.lat")[0].trace_id, trace_id);
  EXPECT_EQ(snap.exemplars.at("ex.lat")[0].value, 5000u);

  char hexid[32];
  std::snprintf(hexid, sizeof(hexid), "%llx",
                static_cast<unsigned long long>(trace_id));
  std::string prom = reg.RenderPrometheus();
  EXPECT_NE(prom.find(std::string("# {trace_id=\"") + hexid + "\"} 5000"),
            std::string::npos)
      << prom;
}

// --- prometheus exposition ---------------------------------------------------------

TEST(PrometheusTest, RendersCountersGaugesAndHistograms) {
  MetricsRegistry reg;
  reg.GetCounter("prom.events")->Add(42);
  reg.GetGauge("prom.depth")->Set(-3);
  reg.GetHistogram("prom.lat_us")->Record(100);
  reg.GetHistogram("prom.lat_us")->Record(90'000);

  std::string prom = reg.RenderPrometheus();
  EXPECT_NE(prom.find("# TYPE tango_prom_events counter"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("tango_prom_events 42"), std::string::npos);
  EXPECT_NE(prom.find("tango_prom_depth -3"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE tango_prom_lat_us histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("tango_prom_lat_us_bucket{le=\"+Inf\"} 2"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("tango_prom_lat_us_sum 90100"), std::string::npos);
  EXPECT_NE(prom.find("tango_prom_lat_us_count 2"), std::string::npos);
  EXPECT_NE(prom.find("tango_prom_lat_us_p99"), std::string::npos);

  // Cumulative le-buckets are monotonic and end at the total count.
  uint64_t prev = 0;
  size_t pos = 0;
  while ((pos = prom.find("tango_prom_lat_us_bucket{le=\"", pos)) !=
         std::string::npos) {
    size_t val_at = prom.find("} ", pos);
    ASSERT_NE(val_at, std::string::npos);
    uint64_t cumulative = std::strtoull(prom.c_str() + val_at + 2, nullptr, 10);
    EXPECT_GE(cumulative, prev);
    prev = cumulative;
    pos = val_at;
  }
  EXPECT_EQ(prev, 2u);
}

TEST(PrometheusTest, CollectionHooksRunOnEverySnap) {
  MetricsRegistry reg;
  int runs = 0;
  reg.AddCollectionHook([&] {
    ++runs;
    reg.GetGauge("hooked.value")->Set(runs);
  });
  EXPECT_EQ(reg.Snap().gauges.at("hooked.value"), 1);
  EXPECT_EQ(reg.Snap().gauges.at("hooked.value"), 2);
  EXPECT_EQ(runs, 2);
}

TEST(PrometheusTest, TracerExportsRingGaugesThroughRegistry) {
  ScopedTracer tracer;
  { TraceScope scope("gauge.probe"); }
  MetricsRegistry::Snapshot snap = MetricsRegistry::Default().Snap();
  ASSERT_EQ(snap.gauges.count("obs.trace.ring_spans"), 1u);
  EXPECT_GE(snap.gauges.at("obs.trace.ring_spans"), 1);
  ASSERT_EQ(snap.gauges.count("obs.trace.retained_traces"), 1u);
  EXPECT_GE(snap.gauges.at("obs.trace.retained_traces"), 1);
  ASSERT_EQ(snap.counters.count("obs.trace.dropped"), 1u);
}

// --- slo ---------------------------------------------------------------------------

TEST(SloTest, BreachesCountAgainstObjective) {
  SloTracker slo;
  slo.SetObjective(SloOp::kAppend, {/*objective_us=*/1000, /*target=*/0.9});
  for (int i = 0; i < 90; ++i) {
    slo.Record(SloOp::kAppend, 100);  // within objective
  }
  for (int i = 0; i < 10; ++i) {
    slo.Record(SloOp::kAppend, 5000);  // breach
  }
  SloTracker::OpStats s = slo.Stats(SloOp::kAppend);
  EXPECT_EQ(s.total, 100u);
  EXPECT_EQ(s.breached, 10u);
  // 10% breaches against a 10% error budget: burning at ~1x.
  EXPECT_NEAR(s.burn_rate_1m, 1.0, 0.05);
  EXPECT_NEAR(s.burn_rate_5m, 1.0, 0.05);

  std::string json = slo.RenderJson();
  EXPECT_NE(json.find("\"append\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"total\":100"), std::string::npos) << json;
  EXPECT_NE(json.find("\"breached\":10"), std::string::npos) << json;

  slo.Reset();
  EXPECT_EQ(slo.Stats(SloOp::kAppend).total, 0u);
  EXPECT_EQ(slo.Stats(SloOp::kAppend).burn_rate_1m, 0.0);
}

TEST(SloTest, DefaultTrackerExportsThroughRegistrySnap) {
  SloTracker::Default().Reset();
  SloTracker::Default().Record(SloOp::kRead, 50);
  MetricsRegistry::Snapshot snap = MetricsRegistry::Default().Snap();
  ASSERT_EQ(snap.gauges.count("slo.read.total"), 1u);
  EXPECT_GE(snap.gauges.at("slo.read.total"), 1);
  ASSERT_EQ(snap.gauges.count("slo.read.burn_rate_1m_x1000"), 1u);
  ASSERT_EQ(snap.gauges.count("slo.txn_commit.total"), 1u);
}

// --- flight recorder ---------------------------------------------------------------

TEST(FlightRecorderTest, RecordsAndDumpsInSequenceOrder) {
  FlightRecorder& rec = FlightRecorder::Default();
  rec.Clear();
  rec.Record(FlightKind::kSeal, "epoch sealed", 3, 77, /*node=*/100);
  rec.Record(FlightKind::kReconfig, "projection installed", 4);
  rec.Record(FlightKind::kGc, "segment deleted", 9);

  std::string dump = rec.Dump();
  size_t seal_at = dump.find("kind=seal");
  size_t reconfig_at = dump.find("kind=reconfig");
  size_t gc_at = dump.find("kind=gc");
  ASSERT_NE(seal_at, std::string::npos) << dump;
  ASSERT_NE(reconfig_at, std::string::npos);
  ASSERT_NE(gc_at, std::string::npos);
  EXPECT_LT(seal_at, reconfig_at);
  EXPECT_LT(reconfig_at, gc_at);
  EXPECT_NE(dump.find("msg=epoch sealed"), std::string::npos);
  EXPECT_NE(dump.find("a=3 b=77"), std::string::npos);
  EXPECT_NE(dump.find("node=100"), std::string::npos);

  rec.Clear();
  EXPECT_TRUE(rec.Dump().empty());
}

TEST(FlightRecorderTest, RingOverwritesOldestKeepsNewest) {
  FlightRecorder& rec = FlightRecorder::Default();
  rec.Clear();
  for (int i = 0; i < FlightRecorder::kRingEvents + 10; ++i) {
    rec.Record(FlightKind::kGc, "spam", static_cast<uint64_t>(i));
  }
  std::string dump = rec.Dump();
  // The newest event survives; the oldest was overwritten.
  EXPECT_NE(dump.find("a=" + std::to_string(FlightRecorder::kRingEvents + 9)),
            std::string::npos);
  EXPECT_EQ(dump.find("a=0 "), std::string::npos);
  rec.Clear();
}

TEST(FlightRecorderTest, DumpToFdIsWellFormed) {
  FlightRecorder& rec = FlightRecorder::Default();
  rec.Clear();
  rec.Record(FlightKind::kFailstop, "injected failstop", 123456789, 42);

  std::string path = ::testing::TempDir() + "/flight_dump.txt";
  FILE* f = std::fopen(path.c_str(), "w+");
  ASSERT_NE(f, nullptr);
  rec.DumpToFd(fileno(f));
  std::fflush(f);
  std::rewind(f);
  char buf[4096] = {0};
  size_t len = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  std::remove(path.c_str());
  std::string dump(buf, len);
  EXPECT_NE(dump.find("kind=failstop"), std::string::npos) << dump;
  EXPECT_NE(dump.find("a=123456789 b=42"), std::string::npos);
  EXPECT_NE(dump.find("msg=injected failstop"), std::string::npos);
  rec.Clear();
}

TEST(FlightRecorderTest, ConcurrentRecordersKeepPerThreadOrder) {
  FlightRecorder& rec = FlightRecorder::Default();
  rec.Clear();
  RunParallel(4, [&](int t) {
    for (int i = 0; i < 100; ++i) {
      rec.Record(FlightKind::kPipelineStall, "concurrent",
                 static_cast<uint64_t>(t), static_cast<uint64_t>(i));
    }
  });
  std::string dump = rec.Dump();
  // All four threads' newest events are present.
  for (int t = 0; t < 4; ++t) {
    EXPECT_NE(dump.find("a=" + std::to_string(t) + " b=99"),
              std::string::npos)
        << "thread " << t;
  }
  rec.Clear();
}

// --- http server -------------------------------------------------------------------

TEST(ObsHttpTest, ServesAllEndpoints) {
  ScopedTracer tracer;
  MetricsRegistry::Default().GetCounter("http.test.marker")->Add(5);
  { TraceScope scope("http.trace.probe"); }

  ObsHttpServer server;
  ASSERT_TRUE(server.Start({/*address=*/"127.0.0.1", /*port=*/0}).ok());
  ASSERT_NE(server.port(), 0);

  auto health = HttpGet("127.0.0.1", server.port(), "/healthz", 2000);
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(*health, "ok\n");

  auto metrics = HttpGet("127.0.0.1", server.port(), "/metrics", 2000);
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->find("tango_http_test_marker 5"), std::string::npos)
      << metrics->substr(0, 500);

  auto vars = HttpGet("127.0.0.1", server.port(), "/vars", 2000);
  ASSERT_TRUE(vars.ok());
  EXPECT_EQ(vars->front(), '{');
  EXPECT_NE(vars->find("\"counters\""), std::string::npos);

  auto traces = HttpGet("127.0.0.1", server.port(), "/traces", 2000);
  ASSERT_TRUE(traces.ok());
  EXPECT_EQ(traces->front(), '[');
  EXPECT_NE(traces->find("http.trace.probe"), std::string::npos);

  auto slo = HttpGet("127.0.0.1", server.port(), "/slo", 2000);
  ASSERT_TRUE(slo.ok());
  EXPECT_NE(slo->find("\"append\""), std::string::npos);

  auto missing = HttpGet("127.0.0.1", server.port(), "/nope", 2000);
  EXPECT_FALSE(missing.ok());

  EXPECT_GE(server.requests(), 6u);
  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST(ObsHttpTest, CustomHandlersAndRestart) {
  ObsHttpServer server;
  server.Handle("/custom", [] { return std::string("custom-body"); });
  ASSERT_TRUE(server.Start({"127.0.0.1", 0}).ok());
  uint16_t first_port = server.port();
  auto body = HttpGet("127.0.0.1", first_port, "/custom", 2000);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(*body, "custom-body");
  server.Stop();

  // Stop() releases the port and the server can start again.
  ASSERT_TRUE(server.Start({"127.0.0.1", 0}).ok());
  auto again = HttpGet("127.0.0.1", server.port(), "/healthz", 2000);
  EXPECT_TRUE(again.ok());
  server.Stop();
}

// --- cluster -----------------------------------------------------------------------

class ObsClusterTest : public ClusterFixture {};

// The SLO tracker sits inside the log client and runtime: ordinary cluster
// operations score themselves without any bench/tool involvement.
TEST_F(ObsClusterTest, SloRecordsClusterOperations) {
  SloTracker::Default().Reset();
  auto client = MakeClient();
  TangoRuntime runtime(client.get());
  TangoRegister value(&runtime, /*oid=*/5);

  ASSERT_TRUE(value.Write(1).ok());
  ASSERT_TRUE(value.Read().ok());
  ASSERT_TRUE(runtime.BeginTx().ok());
  ASSERT_TRUE(value.Write(2).ok());
  ASSERT_TRUE(runtime.EndTx().ok());

  EXPECT_GE(SloTracker::Default().Stats(SloOp::kAppend).total, 1u);
  EXPECT_GE(SloTracker::Default().Stats(SloOp::kRead).total, 1u);
  EXPECT_GE(SloTracker::Default().Stats(SloOp::kTxnCommit).total, 1u);
}

// --- acceptance: the causal transaction trace --------------------------------------

// Walks `span`'s parent chain; true iff it terminates at `root_id`.
bool ReachesRoot(const Span& span, uint64_t root_id,
                 const std::map<uint64_t, Span>& by_id) {
  uint64_t cur = span.span_id;
  for (size_t hops = 0; hops <= by_id.size(); ++hops) {
    if (cur == root_id) {
      return true;
    }
    auto it = by_id.find(cur);
    if (it == by_id.end() || it->second.parent_id == 0) {
      return false;
    }
    cur = it->second.parent_id;
  }
  return false;
}

TEST_F(ObsClusterTest, TransactionYieldsCausalTrace) {
  auto client = MakeClient();
  TangoRuntime runtime(client.get());
  TangoRegister config(&runtime, /*oid=*/1);
  TangoRegister applied(&runtime, /*oid=*/2);

  // Seed outside the trace so the traced transaction has a read-set entry
  // and its write replays through playback at commit.
  ASSERT_TRUE(config.Write(7).ok());
  ASSERT_TRUE(config.Read().ok());

  ScopedTracer tracer;
  ASSERT_TRUE(runtime.BeginTx().ok());
  auto seen = config.Read();
  ASSERT_TRUE(seen.ok());
  ASSERT_TRUE(applied.Write(*seen + 1).ok());
  ASSERT_TRUE(runtime.EndTx().ok());
  Tracer::Default().SetEnabled(false);

  std::vector<Span> spans = Tracer::Default().Spans();
  const Span* root = nullptr;
  for (const Span& s : spans) {
    if (s.name == "txn.commit" && s.parent_id == 0) {
      root = &s;
    }
  }
  ASSERT_NE(root, nullptr) << "no txn.commit root span";

  std::map<uint64_t, Span> by_id;
  for (const Span& s : spans) {
    if (s.trace_id == root->trace_id) {
      by_id[s.span_id] = s;
    }
  }

  // Every hop of the write path must appear in the root's causal tree:
  // client append, sequencer token grant, both chain replicas, playback,
  // and the apply of the committed write to the object view.
  std::map<std::string, int> counts;
  for (const auto& [id, s] : by_id) {
    if (ReachesRoot(s, root->span_id, by_id)) {
      counts[s.name]++;
    }
  }
  EXPECT_GE(counts["log.append"], 1);
  EXPECT_GE(counts["rpc:sequencer.next"], 1);
  EXPECT_GE(counts["rpc:storage.write"], 2);  // replication factor
  EXPECT_GE(counts["runtime.play"], 1);
  EXPECT_GE(counts["runtime.apply"], 1);

  // And the whole tree exports as Chrome trace JSON.
  std::string json = Tracer::Default().ExportChromeJson();
  EXPECT_NE(json.find("\"name\":\"txn.commit\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"rpc:storage.write\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"runtime.apply\""), std::string::npos);
}

// RPC metric slots resolve method ids to stable names, with a catch-all.
TEST(RpcMetricsTest, KnownAndUnknownMethods) {
  RpcMethodStats& write = RpcStatsFor(corfu::kStorageWrite);
  EXPECT_STREQ(write.span_name, "rpc:storage.write");
  RpcMethodStats& other = RpcStatsFor(0x7777);
  EXPECT_STREQ(other.span_name, "rpc:other");
  EXPECT_EQ(&RpcStatsFor(corfu::kStorageWrite), &write);
}

}  // namespace
}  // namespace tango::obs
