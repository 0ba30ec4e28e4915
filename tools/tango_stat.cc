// tango_stat: observability inspector for Tango deployments.
//
// Three modes:
//
//   tango_stat --connect=HOST [--base-port=19700] [--nodes=6] [--http-port=N]
//              [--kind=prom|json|trace|slo|flight]
//     Attach to a live tango_logd (started with the same --base-port/--nodes
//     flags) and fetch one payload from its observability HTTP port: the
//     Prometheus exposition (prom, the default: /metrics), the metrics
//     registry as JSON (json: /vars), the span buffer as Chrome trace_event
//     JSON (trace: /traces), the SLO burn-rate accounting (slo: /slo) or the
//     crash flight recorder (flight: /flight).
//
//   tango_stat --connect=HOST --watch=SECS [--count=N]
//     Poll the deployment every SECS seconds and print what moved: counter
//     rates (per second, from consecutive Prometheus scrapes) and latency
//     percentile movement (_p50/_p99 gauges).  --count bounds the number of
//     polls (0 = until interrupted).
//
//   tango_stat --demo [--chrome-out=FILE] [--slow-us=0]
//     Spin up an in-process cluster, run a traced read-write transaction
//     through TangoRuntime, and print the resulting metric snapshot plus the
//     slowest spans.  --chrome-out writes the causal trace as Chrome
//     trace_event JSON (load it in chrome://tracing or ui.perfetto.dev).
//
//   tango_stat --selftest [--chrome-out=FILE]
//     Like --demo, but asserts the acceptance property: a single committed
//     read-write transaction yields one causal trace spanning client commit,
//     sequencer token grant, every chain replica write, and playback apply.
//     Exits nonzero if any link of the chain is missing.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <chrono>
#include <thread>

#include "src/corfu/cluster.h"
#include "src/net/inproc_transport.h"
#include "src/objects/tango_register.h"
#include "src/obs/http.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/runtime/runtime.h"
#include "tools/node_layout.h"

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: tango_stat --connect=HOST [--base-port=19700] [--nodes=6] "
      "[--http-port=N] [--kind=prom|json|trace|slo|flight]\n"
      "       tango_stat --connect=HOST --watch=SECS [--count=N]\n"
      "       tango_stat --demo [--chrome-out=FILE] [--slow-us=0]\n"
      "       tango_stat --selftest [--chrome-out=FILE]\n");
  return 2;
}

bool WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
  out.flush();
  return out.good();
}

// Walks `span`'s parent chain inside `by_id`; true iff it terminates at
// `root_id` (cycle-bounded by the map size).
bool ReachesRoot(const tango::obs::Span& span, uint64_t root_id,
                 const std::map<uint64_t, const tango::obs::Span*>& by_id) {
  uint64_t cur = span.span_id;
  for (size_t hops = 0; hops <= by_id.size(); ++hops) {
    if (cur == root_id) {
      return true;
    }
    auto it = by_id.find(cur);
    if (it == by_id.end() || it->second->parent_id == 0) {
      return false;
    }
    cur = it->second->parent_id;
  }
  return false;
}

void PrintSlowSpans(uint64_t slow_us) {
  std::vector<tango::obs::Span> slow =
      tango::obs::Tracer::Default().SlowSpans(slow_us, 20);
  std::printf("--- slowest spans (>= %llu us) ---\n",
              static_cast<unsigned long long>(slow_us));
  for (const tango::obs::Span& s : slow) {
    std::printf("%8llu us  %-22s node=%u trace=%llx span=%llx parent=%llx\n",
                static_cast<unsigned long long>(s.duration_us), s.name.c_str(),
                s.node, static_cast<unsigned long long>(s.trace_id),
                static_cast<unsigned long long>(s.span_id),
                static_cast<unsigned long long>(s.parent_id));
  }
}

// Runs one traced read-write transaction against an in-process cluster.
// In selftest mode, verifies the causal chain and returns nonzero on any
// missing link; in demo mode prints the metric snapshot and slow spans.
int RunDemo(const tangotools::ToolArgs& args, bool selftest) {
  constexpr int kReplication = 2;
  tango::InProcTransport transport;
  corfu::CorfuCluster::Options options;
  options.num_storage_nodes = 6;
  options.replication_factor = kReplication;
  corfu::CorfuCluster cluster(&transport, options);

  auto client = cluster.MakeClient();
  tango::TangoRuntime runtime(client.get());
  tango::TangoRegister config(&runtime, /*oid=*/1);
  tango::TangoRegister applied(&runtime, /*oid=*/2);

  // Seed the read object outside the trace so the traced transaction has a
  // real read-set entry to validate and a write whose apply replays through
  // playback.
  if (!config.Write(7).ok()) {
    std::fprintf(stderr, "tango_stat: seed write failed\n");
    return 1;
  }
  (void)config.Read();

  tango::obs::Tracer& tracer = tango::obs::Tracer::Default();
  tracer.Clear();
  tracer.SetEnabled(true);

  (void)runtime.BeginTx();
  auto seen = config.Read();                    // read-set entry
  (void)applied.Write(seen.value_or(0) + 35);   // buffered write
  tango::Status tx = runtime.EndTx();           // append, validate, play
  tracer.SetEnabled(false);

  if (!tx.ok()) {
    std::fprintf(stderr, "tango_stat: transaction failed: %s\n",
                 tx.ToString().c_str());
    return 1;
  }

  std::string chrome_out = args.Get("chrome-out", "");
  if (!chrome_out.empty()) {
    if (!WriteFile(chrome_out, tracer.ExportChromeJson())) {
      std::fprintf(stderr, "tango_stat: cannot write %s\n",
                   chrome_out.c_str());
      return 1;
    }
    std::printf("wrote Chrome trace to %s\n", chrome_out.c_str());
  }

  if (!selftest) {
    std::printf("%s", tango::obs::MetricsRegistry::Default().RenderText().c_str());
    PrintSlowSpans(static_cast<uint64_t>(args.GetInt("slow-us", 0)));
    return 0;
  }

  // --selftest: the committed transaction must have produced one causal
  // trace rooted at txn.commit whose children cover every hop of the write
  // path: sequencer token grant, each chain replica write, playback apply.
  std::vector<tango::obs::Span> spans = tracer.Spans();
  const tango::obs::Span* root = nullptr;
  for (const tango::obs::Span& s : spans) {
    if (s.name == "txn.commit" && s.parent_id == 0) {
      root = &s;
    }
  }
  if (root == nullptr) {
    std::fprintf(stderr, "selftest: no txn.commit root span recorded\n");
    return 1;
  }

  std::map<uint64_t, const tango::obs::Span*> by_id;
  for (const tango::obs::Span& s : spans) {
    if (s.trace_id == root->trace_id) {
      by_id[s.span_id] = &s;
    }
  }

  struct Want {
    const char* name;
    int min_count;
  };
  const Want wants[] = {
      {"log.append", 1},                   // client append path
      {"rpc:sequencer.next", 1},           // token grant hop
      {"rpc:storage.write", kReplication}, // every chain replica
      {"runtime.play", 1},                 // playback after commit
      {"runtime.apply", 1},                // the write applied to the view
  };
  int failures = 0;
  for (const Want& want : wants) {
    int count = 0;
    for (const auto& [id, s] : by_id) {
      if (s->name == want.name && ReachesRoot(*s, root->span_id, by_id)) {
        ++count;
      }
    }
    std::printf("selftest: %-22s x%d (want >= %d) %s\n", want.name, count,
                want.min_count, count >= want.min_count ? "ok" : "MISSING");
    if (count < want.min_count) {
      ++failures;
    }
  }
  if (failures == 0) {
    std::printf(
        "selftest: causal trace %llx covers client -> sequencer -> %d chain "
        "replicas -> playback apply (%zu spans)\n",
        static_cast<unsigned long long>(root->trace_id), kReplication,
        by_id.size());
  }
  return failures == 0 ? 0 : 1;
}

// Fetches `path` from the daemon's observability HTTP port.
tango::Result<std::string> Fetch(const tangotools::ToolArgs& args,
                                 const char* path) {
  tangotools::NodeLayout layout{
      static_cast<int>(args.GetInt("nodes", 6)),
      static_cast<uint16_t>(args.GetInt("base-port", 19700))};
  uint16_t port =
      static_cast<uint16_t>(args.GetInt("http-port", layout.HttpPort()));
  return tango::obs::HttpGet(args.Get("connect", ""), port, path,
                             /*timeout_ms=*/5000);
}

int RunConnect(const tangotools::ToolArgs& args) {
  static const std::map<std::string, const char*> kPaths = {
      {"prom", "/metrics"}, {"json", "/vars"},    {"trace", "/traces"},
      {"slo", "/slo"},      {"flight", "/flight"}};
  auto path = kPaths.find(args.Get("kind", "prom"));
  if (path == kPaths.end()) {
    return Usage();
  }

  auto payload = Fetch(args, path->second);
  if (!payload.ok()) {
    std::fprintf(stderr, "tango_stat: fetch from %s failed: %s\n",
                 args.Get("connect", "").c_str(),
                 payload.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", payload->c_str());
  if (!payload->empty() && payload->back() != '\n') {
    std::printf("\n");
  }
  return 0;
}

// One numeric sample per metric name out of a Prometheus exposition.
// Bucket lines (any name carrying labels) are skipped — the derived _p50 /
// _p99 gauges carry the percentile story for watch mode.
std::map<std::string, double> ParseProm(const std::string& payload) {
  std::map<std::string, double> out;
  size_t pos = 0;
  while (pos < payload.size()) {
    size_t eol = payload.find('\n', pos);
    if (eol == std::string::npos) {
      eol = payload.size();
    }
    std::string line = payload.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    size_t sp = line.find(' ');
    if (sp == std::string::npos) {
      continue;
    }
    std::string name = line.substr(0, sp);
    if (name.find('{') != std::string::npos) {
      continue;
    }
    out[name] = std::atof(line.c_str() + sp + 1);
  }
  return out;
}

int RunWatch(const tangotools::ToolArgs& args) {
  uint64_t interval_s = static_cast<uint64_t>(args.GetInt("watch", 2));
  if (interval_s == 0) {
    interval_s = 1;
  }
  uint64_t count = static_cast<uint64_t>(args.GetInt("count", 0));

  std::map<std::string, double> prev;
  bool first = true;
  for (uint64_t polls = 0; count == 0 || polls < count; ++polls) {
    auto payload = Fetch(args, "/metrics");
    if (!payload.ok()) {
      std::fprintf(stderr, "tango_stat: watch fetch failed: %s\n",
                   payload.status().ToString().c_str());
      return 1;
    }
    std::map<std::string, double> cur = ParseProm(*payload);
    if (!first) {
      std::printf("--- %llus tick ---\n",
                  static_cast<unsigned long long>(interval_s));
      for (const auto& [name, value] : cur) {
        bool percentile =
            name.size() > 4 && (name.compare(name.size() - 4, 4, "_p50") == 0 ||
                                name.compare(name.size() - 4, 4, "_p99") == 0);
        auto it = prev.find(name);
        double before = it == prev.end() ? 0.0 : it->second;
        if (percentile) {
          if (value != before) {
            std::printf("%-48s %12.0f -> %.0f\n", name.c_str(), before, value);
          }
        } else if (value > before) {
          std::printf("%-48s %+12.1f/s (now %.0f)\n", name.c_str(),
                      (value - before) / static_cast<double>(interval_s),
                      value);
        }
      }
      std::fflush(stdout);
    }
    prev = std::move(cur);
    first = false;
    if (count != 0 && polls + 1 >= count) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::seconds(interval_s));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  tangotools::ToolArgs args(argc, argv);
  if (args.Get("selftest", "") == "true") {
    return RunDemo(args, /*selftest=*/true);
  }
  if (args.Get("demo", "") == "true") {
    return RunDemo(args, /*selftest=*/false);
  }
  if (!args.Get("connect", "").empty()) {
    if (!args.Get("watch", "").empty()) {
      return RunWatch(args);
    }
    return RunConnect(args);
  }
  return Usage();
}
