// tango_logd: a standalone CORFU shared-log deployment served over TCP.
//
// Hosts the storage nodes, the sequencer and the projection store of one
// log deployment in a single process (one process per machine is the
// expected production layout; this tool also supports running the whole
// cluster on one box for development).  Clients — tango_cli or any program
// using TcpTransport + NodeLayout routes — speak the same protocol the
// in-process tests and benches use.
//
// Usage:
//   tango_logd [--base-port=19700] [--nodes=6] [--repl=2]
//              [--data-dir=/var/lib/tango] [--fsync-batch=64]
//              [--listen=127.0.0.1] [--http-port=N]
//              [--trace-sample-every=1024] [--trace-slow-us=10000]
//
// An unknown flag, a positional argument or a non-numeric value for a
// numeric flag exits 2 with a usage line.
//
// Observability: an embedded HTTP server (default port base_port + 3 +
// nodes; --http-port=0 disables) serves /metrics (Prometheus), /traces
// (Chrome JSON), /vars, /slo, /flight and /healthz.  Tracing runs always-on
// with 1-in-N head sampling plus retention of any request slower than
// --trace-slow-us.  On a fatal signal the flight recorder's last control-
// plane events (seals, reconfigurations, GC, recovery, stalls) are written
// to stderr before the process dies.
//
// Without --data-dir the storage nodes keep their pages in memory.  With it,
// they run on the crash-consistent segment store (checksummed segment files
// under <data-dir>/node-<id>, kill -9 safe) and survive daemon restarts:
// restart with the same flags, then run `tango_cli recover` once to rebuild
// the fresh sequencer's state from the log.  --fsync-batch tunes the group
// commit (1 = fsync every append).

#include <algorithm>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <iterator>
#include <string>
#include <string_view>

#include "src/corfu/cluster.h"
#include "src/net/tcp_transport.h"
#include "src/obs/flight.h"
#include "src/obs/http.h"
#include "src/obs/trace.h"
#include "src/util/threading.h"
#include "tools/node_layout.h"

namespace {

tango::Notification* g_shutdown = nullptr;

void HandleSignal(int /*sig*/) {
  if (g_shutdown != nullptr) {
    g_shutdown->Notify();
  }
}

constexpr const char* kUsage =
    "usage: tango_logd [--base-port=19700] [--nodes=6] [--repl=2] "
    "[--data-dir=DIR] [--fsync-batch=64] [--listen=127.0.0.1] "
    "[--http-port=N] [--trace-sample-every=1024] [--trace-slow-us=10000]";

// Every flag tango_logd takes.
struct Flag {
  std::string_view name;
  bool integer;  // the value must parse as an integer
};
constexpr Flag kFlags[] = {
    {"base-port", true}, {"nodes", true},       {"repl", true},
    {"data-dir", false}, {"fsync-batch", true}, {"listen", false},
    {"http-port", true}, {"trace-sample-every", true},
    {"trace-slow-us", true}};

// What is wrong with the first bad argument, or "" when all are good.
std::string BadArgument(const tangotools::ToolArgs& args) {
  if (!args.positional.empty()) {
    return "unexpected argument " + args.positional.front();
  }
  for (const auto& [name, value] : args.flags) {
    auto flag = std::ranges::find(kFlags, name, &Flag::name);
    if (flag == std::end(kFlags)) {
      return "unknown flag --" + name;
    }
    int64_t parsed;
    const char* end = value.data() + value.size();
    auto [stop, ec] = std::from_chars(value.data(), end, parsed);
    if (flag->integer && (ec != std::errc() || stop != end)) {
      return "--" + name + " needs an integer, got '" + value + "'";
    }
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  tangotools::ToolArgs args(argc, argv);
  if (std::string bad = BadArgument(args); !bad.empty()) {
    std::fprintf(stderr, "tango_logd: %s\n%s\n", bad.c_str(), kUsage);
    return 2;
  }
  tangotools::NodeLayout layout{
      static_cast<int>(args.GetInt("nodes", 6)),
      static_cast<uint16_t>(args.GetInt("base-port", 19700))};
  int replication = static_cast<int>(args.GetInt("repl", 2));
  std::string data_dir = args.Get("data-dir", "");
  uint32_t fsync_batch = static_cast<uint32_t>(args.GetInt("fsync-batch", 64));
  std::string listen = args.Get("listen", "127.0.0.1");
  uint16_t http_port = static_cast<uint16_t>(
      args.GetInt("http-port", layout.HttpPort()));
  uint64_t sample_every =
      static_cast<uint64_t>(args.GetInt("trace-sample-every", 1024));
  uint64_t slow_us = static_cast<uint64_t>(args.GetInt("trace-slow-us", 10000));

  // The black box first: anything that crashes from here on dumps the
  // flight recorder to stderr before dying.
  tango::obs::FlightRecorder::InstallFatalSignalHandler();

  // Always-on sampled tracing: cheap enough to leave running (see
  // BENCH_obs.json), and the slow outliers are retained regardless of the
  // sampling rate.
  tango::obs::Tracer::Default().SetSampling({sample_every, slow_us, 0});
  tango::obs::Tracer::Default().SetEnabled(true);

  tango::TcpTransport transport;
  transport.SetListenAddress(listen);
  layout.AssignListenPorts(transport);

  corfu::CorfuCluster::Options options = layout.ClusterOptions(replication);
  if (!data_dir.empty()) {
    // Each node roots its segment store under here; create the parent now.
    (void)corfu::storage::PosixFileSystem()->CreateDir(data_dir);
    options.data_dir = data_dir;
    options.storage.fsync_batch = fsync_batch;
  }
  corfu::CorfuCluster cluster(&transport, options);

  // HTTP observability endpoint: curl :port/metrics, /traces, /slo, ...
  // `tango_stat --connect=HOST` (same flags as the daemon) reads it too.
  tango::obs::ObsHttpServer http;
  if (http_port != 0) {
    http.Handle("/flight",
                [] { return tango::obs::FlightRecorder::Default().Dump(); });
    tango::obs::ObsHttpServer::Options http_options;
    http_options.address = listen;
    http_options.port = http_port;
    tango::Status http_st = http.Start(http_options);
    if (!http_st.ok()) {
      std::fprintf(stderr, "tango_logd: obs http disabled: %s\n",
                   http_st.ToString().c_str());
    }
  }

  std::printf(
      "tango_logd: serving %d storage nodes (x%d replication) on %s ports "
      "%u-%u%s\n",
      layout.num_storage_nodes, replication, listen.c_str(),
      layout.ProjectionStorePort(),
      layout.StoragePort(layout.num_storage_nodes - 1),
      data_dir.empty() ? ""
                       : (", durable segment store in " + data_dir).c_str());
  if (http.running()) {
    std::printf("tango_logd: obs http (/metrics /traces /vars /slo /flight) "
                "on port %u\n",
                http.port());
  }
  std::printf("tango_logd: ready\n");
  std::fflush(stdout);

  tango::Notification shutdown;
  g_shutdown = &shutdown;
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  shutdown.WaitForNotification();
  std::printf("tango_logd: shutting down\n");
  return 0;
}
