// e2e_driver: one part of one end-to-end benchmark run.
//
// Launches a fresh deployment (a tango_logd child process over loopback
// TCP, or the same cluster shape in this process over InProcTransport),
// connects the workload's Tango objects, warms up, drives the workload from
// 4 closed-loop threads for --seconds, replays the log into a fresh client
// to check the outputs, and tears the deployment down.  run.py runs several
// parts per run, each in a fresh process.  Stdout gets one line per timed
// op: kind start_ns dur_ns read_ns trace_id (start from measure start).
// Everything else goes into --out:
//
//   summary.json         counts, set-up time, registry deltas, check result
//   calls.txt            (--trace=1) one line per RPC seen by TimedTransport:
//                        method trace_id key start_ns dur_ns req_bytes
//                        resp_bytes ok
//   client_spans.txt     (--trace=1) the client's bench.* op, rpc:* and
//                        playback spans
//   daemon_traces.json   (--trace=1, TCP) the daemon's /traces export
//
// Usage:
//   e2e_driver --workload=register_tcp|txn_map_tcp|register_inproc
//              --seed=N --seconds=S --out=DIR --logd=PATH
//              [--trace=0|1] [--part=K]
//
// Exit codes: 0 ok, 2 bad arguments, 3 output check failed, 4 deployment
// failure.

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "e2ebench/timed_transport.h"
#include "src/corfu/cluster.h"
#include "src/net/inproc_transport.h"
#include "src/net/tcp_transport.h"
#include "src/objects/tango_map.h"
#include "src/objects/tango_register.h"
#include "src/obs/http.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/runtime/runtime.h"
#include "src/util/random.h"
#include "src/util/serialize.h"
#include "tools/node_layout.h"

namespace e2ebench {
namespace {

namespace fs = std::filesystem;

// Deployment shape and workload constants (README.md states them).
constexpr int kThreads = 4;
constexpr int kStorageNodes = 2;
constexpr int kReplication = 2;
constexpr int kFsyncBatch = 64;
constexpr tango::ObjectId kOid = 1;
constexpr double kWriteFrac = 0.10;
constexpr uint64_t kMapKeys = 100000;
constexpr double kZipfTheta = 0.99;
constexpr int kTxReads = 3;
constexpr int kTxWrites = 3;
// Untimed ops per thread between connecting and the first timed op: enough
// that set-up time is mostly steady-state work rather than start-up jitter.
constexpr int kRegisterWarmupOps = 4000;
constexpr int kTxnWarmupOps = 1000;

enum class Workload { kRegisterTcp, kTxnMapTcp, kRegisterInproc };

struct Args {
  Workload workload = Workload::kRegisterTcp;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 1.0;
  bool traced = false;
  int part = 0;  // which part of a run this is; varies the op stream
  std::string out;
  std::string logd;
};

bool IsTcp(Workload w) { return w != Workload::kRegisterInproc; }
bool IsTxn(Workload w) { return w == Workload::kTxnMapTcp; }

// ---- tango_logd child process ---------------------------------------------

bool PortFree(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return false;
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  bool ok = ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  ::close(fd);
  return ok;
}

// A base port whose whole daemon range (projection store, sequencer, storage
// nodes, stats, http) is bindable, below the usual ephemeral port range.
uint16_t PickBasePort(tango::Rng& rng) {
  const int span = 4 + kStorageNodes;
  for (int attempt = 0; attempt < 200; ++attempt) {
    uint16_t base = static_cast<uint16_t>(10000 + rng.NextBelow(2700) * 8);
    bool all_free = true;
    for (int i = 0; i < span && all_free; ++i) {
      all_free = PortFree(static_cast<uint16_t>(base + i));
    }
    if (all_free) {
      return base;
    }
  }
  return 0;
}

// The kB value of `field` ("VmRSS:", "VmHWM:") in a /proc/<pid>/status file.
uint64_t ResidentKb(const std::string& status_path, const std::string& field) {
  std::ifstream in(status_path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::strtoull(line.c_str() + field.size(), nullptr, 10);
    }
  }
  return 0;
}

class Daemon {
 public:
  // Spawns tango_logd and waits for its "ready" line.  The child gets
  // SIGKILL if this process dies first, so it can never outlive the run.
  static std::unique_ptr<Daemon> Start(const std::string& logd,
                                       const std::string& data_dir,
                                       const std::string& log_path,
                                       uint16_t base_port, bool traced) {
    tangotools::NodeLayout layout{kStorageNodes, base_port};
    std::vector<std::string> argv_s = {
        logd,
        "--nodes=" + std::to_string(kStorageNodes),
        "--repl=" + std::to_string(kReplication),
        "--data-dir=" + data_dir,
        "--fsync-batch=" + std::to_string(kFsyncBatch),
        "--base-port=" + std::to_string(base_port),
        "--listen=127.0.0.1",
    };
    if (traced) {
      argv_s.push_back("--trace-sample-every=1");
    }
    std::vector<char*> argv;
    for (std::string& s : argv_s) {
      argv.push_back(s.data());
    }
    argv.push_back(nullptr);

    int out_pipe[2];
    if (::pipe2(out_pipe, O_CLOEXEC) != 0) {
      return nullptr;
    }
    int log_fd = ::open(log_path.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    pid_t parent = ::getpid();
    pid_t pid = ::fork();
    if (pid < 0) {
      ::close(out_pipe[0]);
      ::close(out_pipe[1]);
      if (log_fd >= 0) ::close(log_fd);
      return nullptr;
    }
    if (pid == 0) {
      // Child: async-signal-safe calls only.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) {
        ::_exit(127);
      }
      ::dup2(out_pipe[1], STDOUT_FILENO);
      if (log_fd >= 0) {
        ::dup2(log_fd, STDERR_FILENO);
      }
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(out_pipe[1]);
    if (log_fd >= 0) {
      ::close(log_fd);
    }
    auto d = std::unique_ptr<Daemon>(new Daemon(pid, out_pipe[0], layout));
    if (!d->WaitReady(/*timeout_ms=*/15000)) {
      return nullptr;  // ~Daemon stops the child
    }
    return d;
  }

  ~Daemon() { Stop(); }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // SIGTERM, then waits for the exit (SIGKILL after 30 s).
  void Stop() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int status = 0;
      bool exited = false;
      for (int i = 0; i < 15000 && !exited; ++i) {
        exited = ::waitpid(pid_, &status, WNOHANG) == pid_;
        if (!exited) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      }
      if (!exited) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
      }
      pid_ = -1;
    }
    if (out_fd_ >= 0) {
      ::close(out_fd_);
      out_fd_ = -1;
    }
  }

  uint64_t PeakRssKb() const {
    return ResidentKb("/proc/" + std::to_string(pid_) + "/status", "VmHWM:");
  }
  const tangotools::NodeLayout& layout() const { return layout_; }

 private:
  Daemon(pid_t pid, int out_fd, tangotools::NodeLayout layout)
      : pid_(pid), out_fd_(out_fd), layout_(layout) {}

  bool WaitReady(int timeout_ms) {
    std::string seen;
    bool http_up = false;
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      pollfd p{out_fd_, POLLIN, 0};
      if (::poll(&p, 1, 50) <= 0) {
        continue;
      }
      char buf[512];
      ssize_t n = ::read(out_fd_, buf, sizeof(buf));
      if (n <= 0) {
        return false;  // the daemon exited before it was ready
      }
      seen.append(buf, static_cast<size_t>(n));
      http_up = http_up || seen.find("obs http") != std::string::npos;
      if (seen.find("tango_logd: ready") != std::string::npos) {
        return http_up;
      }
    }
    return false;
  }

  pid_t pid_;
  int out_fd_;
  tangotools::NodeLayout layout_;
};

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) {
      total += e.file_size(ec);
    }
  }
  return total;
}

// ---- deployments ------------------------------------------------------------

// One fresh deployment: the server side plus the client transport, wrapped
// in the timing decorator on traced runs.  TCP: a tango_logd child and a
// client TcpTransport.  In-proc: the same cluster options (nodes,
// replication, segment store, fsync batch) served from this process over
// InProcTransport with no injected latency.
class Deployment {
 public:
  static std::unique_ptr<Deployment> Launch(const Args& args,
                                            const std::string& data_dir,
                                            const std::string& log_path,
                                            tango::Rng& port_rng) {
    auto d = std::unique_ptr<Deployment>(new Deployment());
    if (IsTcp(args.workload)) {
      for (int attempt = 0; attempt < 3 && d->daemon_ == nullptr; ++attempt) {
        uint16_t base = PickBasePort(port_rng);
        if (base == 0) {
          return nullptr;
        }
        fs::remove_all(data_dir);
        d->daemon_ =
            Daemon::Start(args.logd, data_dir, log_path, base, args.traced);
      }
      if (d->daemon_ == nullptr) {
        return nullptr;
      }
      d->tcp_ = std::make_unique<tango::TcpTransport>();
      d->daemon_->layout().AddRoutes(*d->tcp_, "127.0.0.1");
      d->transport_ = d->tcp_.get();
    } else {
      fs::create_directories(data_dir);
      d->inproc_ = std::make_unique<tango::InProcTransport>();
      tangotools::NodeLayout layout{kStorageNodes, 0};
      corfu::CorfuCluster::Options options = layout.ClusterOptions(kReplication);
      options.data_dir = data_dir;
      options.storage.fsync_batch = kFsyncBatch;
      d->cluster_ =
          std::make_unique<corfu::CorfuCluster>(d->inproc_.get(), options);
      d->transport_ = d->inproc_.get();
    }
    if (args.traced) {
      d->timed_ = std::make_unique<TimedTransport>(d->transport_);
      d->transport_ = d->timed_.get();
    }
    return d;
  }

  ~Deployment() { Stop(); }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  // Stops the server side; every client built on transport() must be gone.
  void Stop() {
    timed_.reset();
    tcp_.reset();
    daemon_.reset();
    cluster_.reset();
    inproc_.reset();
  }

  // What clients call through: the timing decorator on traced runs, else the
  // bare transport.
  tango::Transport& transport() { return *transport_; }
  // The timing decorator; null on untraced runs.
  TimedTransport* timed() { return timed_.get(); }
  tango::NodeId projection_store() const {
    return tangotools::NodeLayout{kStorageNodes, 0}.projection_store_node();
  }
  bool tcp() const { return daemon_ != nullptr; }
  uint64_t DaemonPeakRssKb() const {
    return daemon_ != nullptr ? daemon_->PeakRssKb() : 0;
  }

  // GETs `path` from the daemon's observability HTTP port (TCP only).
  tango::Result<std::string> FetchDaemon(const std::string& path) const {
    return tango::obs::HttpGet("127.0.0.1", daemon_->layout().HttpPort(), path,
                               /*timeout_ms=*/20000);
  }

 private:
  Deployment() = default;

  std::unique_ptr<Daemon> daemon_;
  std::unique_ptr<tango::TcpTransport> tcp_;
  std::unique_ptr<tango::InProcTransport> inproc_;
  std::unique_ptr<corfu::CorfuCluster> cluster_;
  std::unique_ptr<TimedTransport> timed_;
  tango::Transport* transport_ = nullptr;
};

// ---- workload ---------------------------------------------------------------

// One client view: its own CorfuClient and TangoRuntime hosting one object.
struct View {
  std::unique_ptr<corfu::CorfuClient> client;
  std::unique_ptr<tango::TangoRuntime> runtime;
  std::unique_ptr<tango::TangoRegister> reg;
  std::unique_ptr<tango::TangoMap> map;
};

View MakeView(Deployment& dep, bool txn) {
  View v;
  v.client = std::make_unique<corfu::CorfuClient>(&dep.transport(),
                                                  dep.projection_store());
  v.runtime = std::make_unique<tango::TangoRuntime>(v.client.get());
  if (txn) {
    v.map = std::make_unique<tango::TangoMap>(v.runtime.get(), kOid);
  } else {
    v.reg = std::make_unique<tango::TangoRegister>(v.runtime.get(), kOid);
  }
  return v;
}

struct OpRec {
  char kind = 'f';  // r read, w write, c commit, a abort, f failed
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  uint64_t read_ns = 0;  // transactions: BeginTx through the last Get
  uint64_t trace_id = 0;
};

struct Worker {
  int id = 0;
  std::unique_ptr<tango::Rng> rng;
  std::unique_ptr<tango::ZipfGenerator> zipf;
  uint64_t counter = 0;
  std::vector<int64_t> written;  // register values acknowledged
  uint64_t user_bytes = 0;       // key + value bytes acknowledged
  std::vector<OpRec> ops;
};

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class App {
 public:
  App(const Args& args, Deployment& dep) : args_(args) {
    bool txn = IsTxn(args.workload);
    int views = txn ? kThreads : 1;
    for (int i = 0; i < views; ++i) {
      views_.push_back(MakeView(dep, txn));
    }
    for (int t = 0; t < kThreads; ++t) {
      Worker w;
      w.id = t;
      uint64_t stream = (args.seed * 64 + args.part) * kThreads + t;
      w.rng = std::make_unique<tango::Rng>(Mix(stream));
      if (txn) {
        w.zipf = std::make_unique<tango::ZipfGenerator>(
            kMapKeys, kZipfTheta, Mix(~stream));
      }
      workers_.push_back(std::move(w));
    }
  }

  // Syncs every view with the log.
  bool Sync() {
    for (View& v : views_) {
      bool ok = v.map != nullptr ? v.map->Size().ok() : v.reg->Read().ok();
      if (!ok) {
        return false;
      }
    }
    return true;
  }

  // Runs `ops_per_thread` untimed ops on every thread.
  void Warmup(int ops_per_thread) {
    RunThreads([&](Worker& w, const std::atomic<bool>&) {
      for (int i = 0; i < ops_per_thread; ++i) {
        (void)RunOp(w, /*traced=*/false);
      }
    });
  }

  // Runs the timed closed loop for `seconds`; returns the elapsed seconds.
  double Measure(double seconds, bool traced) {
    // Reserved, not touched: only the pages the samples fill become
    // resident, and the vector never reallocates mid-run.
    for (Worker& w : workers_) {
      w.ops.clear();
      w.ops.reserve(1 << 22);
    }
    return RunThreads(
        [&](Worker& w, const std::atomic<bool>& stop) {
          while (!stop.load(std::memory_order_relaxed)) {
            w.ops.push_back(RunOp(w, traced));
          }
        },
        seconds);
  }

  std::vector<View>& views() { return views_; }
  std::vector<Worker>& workers() { return workers_; }

 private:
  // Starts one thread per worker, releases them together, and (with
  // seconds > 0) raises `stop` after that long.  Returns the seconds from
  // release until the last thread finished.
  template <typename Fn>
  double RunThreads(Fn fn, double seconds = 0) {
    std::atomic<bool> go{false};
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    for (Worker& w : workers_) {
      threads.emplace_back([&, wp = &w] {
        while (!go.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        fn(*wp, stop);
      });
    }
    uint64_t start = NowNs();
    go.store(true, std::memory_order_release);
    if (seconds > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
      stop.store(true, std::memory_order_relaxed);
    }
    for (std::thread& t : threads) {
      t.join();
    }
    return static_cast<double>(NowNs() - start) / 1e9;
  }

  OpRec RunOp(Worker& w, bool traced) {
    return IsTxn(args_.workload) ? RunTxn(w, traced) : RunRegister(w, traced);
  }

  // Fig 8-left: 10% Write / 90% Read on the one shared register view.
  OpRec RunRegister(Worker& w, bool traced) {
    tango::TangoRegister& reg = *views_[0].reg;
    bool write = w.rng->NextBool(kWriteFrac);
    std::optional<tango::obs::TraceScope> span;
    if (traced) {
      span.emplace(write ? "bench.write" : "bench.read");
    }
    OpRec rec;
    rec.trace_id = tango::obs::CurrentTrace().trace_id;
    rec.start_ns = NowNs();
    if (write) {
      // Unique per write, so the check can tell which write won.
      int64_t value = static_cast<int64_t>(
          ((args_.seed & 0xffff) << 44) |
          (static_cast<uint64_t>(w.id + 1) << 36) | ++w.counter);
      if (reg.Write(value).ok()) {
        rec.kind = 'w';
        w.written.push_back(value);
        w.user_bytes += sizeof(value);
      }
    } else if (reg.Read().ok()) {
      rec.kind = 'r';
    }
    rec.dur_ns = NowNs() - rec.start_ns;
    return rec;
  }

  // Fig 9: a 3-read/3-write transaction on this thread's own map view, keys
  // zipf(0.99) over 100k, no think time.
  OpRec RunTxn(Worker& w, bool traced) {
    View& v = views_[w.id];
    std::optional<tango::obs::TraceScope> span;
    if (traced) {
      span.emplace("bench.txn");
    }
    OpRec rec;
    rec.trace_id = tango::obs::CurrentTrace().trace_id;
    rec.start_ns = NowNs();
    bool failed = !v.runtime->BeginTx().ok();
    for (int i = 0; i < kTxReads && !failed; ++i) {
      tango::Result<std::string> got =
          v.map->Get("key" + std::to_string(w.zipf->Next()));
      failed = !got.ok() && got.status() != tango::StatusCode::kNotFound;
    }
    rec.read_ns = NowNs() - rec.start_ns;
    uint64_t bytes = 0;
    for (int i = 0; i < kTxWrites && !failed; ++i) {
      std::string key = "key" + std::to_string(w.zipf->Next());
      char value[32];
      std::snprintf(value, sizeof(value), "v%02d-%012" PRIu64, w.id,
                    ++w.counter);
      bytes += key.size() + std::strlen(value);
      failed = !v.map->Put(key, value).ok();
    }
    if (failed) {
      v.runtime->AbortTx();
    } else {
      tango::Status st = v.runtime->EndTx();
      if (st.ok()) {
        rec.kind = 'c';
        w.user_bytes += bytes;
      } else if (st == tango::StatusCode::kAborted) {
        rec.kind = 'a';
      }
    }
    rec.dur_ns = NowNs() - rec.start_ns;
    return rec;
  }

  const Args& args_;
  std::vector<View> views_;
  std::vector<Worker> workers_;
};

// ---- output checks ------------------------------------------------------------

std::map<std::string, std::string> DecodeMap(
    const std::vector<uint8_t>& checkpoint) {
  tango::ByteReader r{std::span<const uint8_t>(checkpoint)};
  std::map<std::string, std::string> out;
  uint32_t n = r.GetU32();
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    std::string key = r.GetString();
    std::string value = r.GetString();
    (void)r.GetU64();
    out[std::move(key)] = std::move(value);
  }
  return out;
}

// Replays the log into a fresh client and compares it with every live view.
// Returns "" when the outputs are correct, else what is wrong.
std::string CheckOutputs(const Args& args, Deployment& dep, App& app,
                         const tango::obs::MetricsRegistry::Snapshot& snap,
                         const std::map<char, uint64_t>& kinds) {
  bool txn = IsTxn(args.workload);
  View fresh = MakeView(dep, txn);
  if (!txn) {
    tango::Result<int64_t> replayed = fresh.reg->Read();
    tango::Result<int64_t> live = app.views()[0].reg->Read();
    if (!replayed.ok() || !live.ok()) {
      return "register read failed during the check";
    }
    if (*replayed != *live) {
      return "fresh replay and live view disagree on the register";
    }
    for (const Worker& w : app.workers()) {
      if (std::find(w.written.begin(), w.written.end(), *replayed) !=
          w.written.end()) {
        return "";
      }
    }
    return "register holds a value no client wrote";
  }

  if (!fresh.map->Size().ok()) {
    return "fresh replay failed";
  }
  std::map<std::string, std::string> expected =
      DecodeMap(fresh.map->Checkpoint());
  if (kinds.count('c') != 0 && expected.empty()) {
    return "fresh replay has an empty map after commits";
  }
  for (View& v : app.views()) {
    if (!v.map->Size().ok()) {
      return "live view sync failed";
    }
    if (DecodeMap(v.map->Checkpoint()) != expected) {
      return "a live map view differs from the fresh replay";
    }
  }
  auto counter = [&](const char* name) -> uint64_t {
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  uint64_t attempts = counter("runtime.txn.attempts");
  if (attempts != counter("runtime.txn.commits") + counter("runtime.txn.aborts") +
                      counter("runtime.txn.timeouts") +
                      counter("runtime.txn.errors")) {
    return "runtime.txn.attempts != commits + aborts + timeouts + errors";
  }
  auto kind = [&](char k) -> uint64_t {
    auto it = kinds.find(k);
    return it == kinds.end() ? 0 : it->second;
  };
  if (counter("runtime.txn.commits") != kind('c') ||
      counter("runtime.txn.aborts") != kind('a')) {
    return "registry commit/abort counts differ from the client's";
  }
  return "";
}

// ---- output -------------------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

bool WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
  return out.good();
}

int Usage() {
  std::fprintf(stderr,
               "usage: e2e_driver --workload=register_tcp|txn_map_tcp|"
               "register_inproc --seed=N --seconds=S --out=DIR --logd=PATH "
               "[--trace=0|1] [--part=K]\n");
  return 2;
}

// Set-up, measurement, check and teardown of one fresh deployment.  The
// data dir stays behind (run.py deletes it once the whole run is over, so no
// unlink competes with a later deployment's I/O).
int Run(const Args& args) {
  fs::create_directories(args.out);
  tango::Rng port_rng(Mix(static_cast<uint64_t>(::getpid()) ^ NowNs()));
  const bool txn = IsTxn(args.workload);
  const int warmup_ops = txn ? kTxnWarmupOps : kRegisterWarmupOps;
  const std::string data_dir = args.out + "/data";
  fs::remove_all(data_dir);

  // Set-up time: daemon launch through connect, object registration and
  // warm-up, up to the first timed op.
  uint64_t t0 = NowNs();
  std::unique_ptr<Deployment> dep = Deployment::Launch(
      args, data_dir, args.out + "/logd.log", port_rng);
  if (dep == nullptr) {
    std::fprintf(stderr, "e2e_driver: the deployment failed to start\n");
    return 4;
  }
  auto app = std::make_unique<App>(args, *dep);
  if (!app->Sync()) {
    std::fprintf(stderr, "e2e_driver: initial sync failed\n");
    return 4;
  }
  app->Warmup(warmup_ops);
  double setup_s = static_cast<double>(NowNs() - t0) / 1e9;

  // The measured phase: client registry and decorator start from zero, the
  // daemon's registry is diffed against the snapshot taken here.
  std::string daemon_before = "null";
  std::string daemon_after = "null";
  if (dep->tcp()) {
    auto vars = dep->FetchDaemon("/vars");
    if (!vars.ok()) {
      std::fprintf(stderr, "e2e_driver: /vars failed: %s\n",
                   vars.status().ToString().c_str());
      return 4;
    }
    daemon_before = *vars;
  }
  tango::obs::MetricsRegistry::Default().ResetAll();
  tango::obs::Tracer& tracer = tango::obs::Tracer::Default();
  if (args.traced) {
    dep->timed()->Clear();
    tracer.SetSampling({1, 0, 0});
    tracer.set_capacity(1 << 14);
    tracer.Clear();
    tracer.SetEnabled(true);
  }
  uint64_t measure_start = NowNs();
  double elapsed = app->Measure(args.seconds, args.traced);
  tracer.SetEnabled(false);
  tango::obs::MetricsRegistry::Snapshot snap =
      tango::obs::MetricsRegistry::Default().Snap();
  std::string client_metrics =
      tango::obs::MetricsRegistry::Default().RenderJson();
  if (dep->tcp()) {
    auto vars = dep->FetchDaemon("/vars");
    if (!vars.ok()) {
      std::fprintf(stderr, "e2e_driver: /vars failed: %s\n",
                   vars.status().ToString().c_str());
      return 4;
    }
    daemon_after = *vars;
  }

  if (args.traced) {
    std::ostringstream calls;
    for (const CallRec& c : dep->timed()->Calls()) {
      calls << c.method << ' ' << c.trace_id << ' ' << c.key << ' '
            << static_cast<int64_t>(c.start_ns - measure_start) << ' '
            << c.dur_ns << ' ' << c.req_bytes << ' '
            << c.resp_bytes << ' ' << (c.ok ? 1 : 0) << '\n';
    }
    std::ostringstream spans;
    for (const tango::obs::Span& s : tracer.Spans()) {
      if (s.name.rfind("rpc:", 0) == 0 || s.name.rfind("bench.", 0) == 0 ||
          s.name == "runtime.playback.task") {
        spans << s.name << ' ' << s.trace_id << ' ' << s.span_id << ' '
              << s.parent_id << ' ' << s.duration_us << '\n';
      }
    }
    bool wrote = WriteFile(args.out + "/calls.txt", calls.str()) &&
                 WriteFile(args.out + "/client_spans.txt", spans.str());
    if (dep->tcp()) {
      auto traces = dep->FetchDaemon("/traces");
      wrote = wrote && traces.ok() &&
              WriteFile(args.out + "/daemon_traces.json", *traces);
    }
    if (!wrote) {
      std::fprintf(stderr, "e2e_driver: could not save the traces\n");
      return 4;
    }
  }

  // Peak RSS of both processes; the client's less the pages this
  // benchmark's own op samples fill.
  uint64_t sample_kb = 0;
  for (const Worker& w : app->workers()) {
    sample_kb += w.ops.size() * sizeof(OpRec) / 1024;
  }
  uint64_t client_rss_kb =
      ResidentKb("/proc/self/status", "VmHWM:") - sample_kb;
  uint64_t daemon_rss_kb = dep->DaemonPeakRssKb();

  std::map<char, uint64_t> kinds;
  std::ostringstream ops;
  uint64_t user_bytes = 0;
  for (const Worker& w : app->workers()) {
    user_bytes += w.user_bytes;
    for (const OpRec& op : w.ops) {
      ++kinds[op.kind];
      ops << op.kind << ' ' << op.start_ns - measure_start << ' '
          << op.dur_ns << ' ' << op.read_ns << ' ' << op.trace_id << '\n';
    }
  }
  std::string problem = CheckOutputs(args, *dep, *app, snap, kinds);

  app.reset();
  dep.reset();  // waits for the daemon's exit, so its writes are on disk
  uint64_t stored_bytes = DirBytes(data_dir);

  std::ostringstream summary;
  summary << "{\"workload\":" << JsonString(args.workload_name)
          << ",\"seed\":" << args.seed << ",\"part\":" << args.part
          << ",\"traced\":" << args.traced << ",\"setup_s\":" << setup_s
          << ",\"elapsed_s\":" << elapsed << ",\"ops\":{";
  bool first = true;
  for (const auto& [kind, n] : kinds) {
    summary << (first ? "" : ",") << "\"" << kind << "\":" << n;
    first = false;
  }
  summary << "},\"user_bytes\":" << user_bytes
          << ",\"stored_bytes\":" << stored_bytes
          << ",\"rss_kb\":{\"client\":" << client_rss_kb
          << ",\"daemon\":" << daemon_rss_kb << "}"
          << ",\"check\":{\"ok\":" << (problem.empty() ? "true" : "false")
          << ",\"detail\":" << JsonString(problem) << "}"
          << ",\"client_metrics\":" << client_metrics
          << ",\"daemon_before\":" << daemon_before
          << ",\"daemon_after\":" << daemon_after << "}\n";
  if (!WriteFile(args.out + "/summary.json", summary.str())) {
    std::fprintf(stderr, "e2e_driver: could not write the results\n");
    return 4;
  }
  // The op samples go to stdout: run.py reads them from the pipe, so a run
  // leaves no large file to delete.
  std::string ops_text = ops.str();
  std::fwrite(ops_text.data(), 1, ops_text.size(), stdout);
  std::fflush(stdout);
  if (!problem.empty()) {
    std::fprintf(stderr, "e2e_driver: output check failed: %s\n",
                 problem.c_str());
    return 3;
  }
  return 0;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  tangotools::ToolArgs flags(argc, argv);
  e2ebench::Args args;
  args.workload_name = flags.Get("workload", "");
  if (args.workload_name == "register_tcp") {
    args.workload = e2ebench::Workload::kRegisterTcp;
  } else if (args.workload_name == "txn_map_tcp") {
    args.workload = e2ebench::Workload::kTxnMapTcp;
  } else if (args.workload_name == "register_inproc") {
    args.workload = e2ebench::Workload::kRegisterInproc;
  } else {
    return e2ebench::Usage();
  }
  try {
    args.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
    args.seconds = std::stod(flags.Get("seconds", "1"));
    args.traced = flags.GetInt("trace", 0) != 0;
    args.part = static_cast<int>(flags.GetInt("part", 0));
  } catch (const std::exception&) {
    return e2ebench::Usage();
  }
  args.out = flags.Get("out", "");
  args.logd = flags.Get("logd", "");
  if (args.out.empty() || args.seconds <= 0 || args.part < 0 ||
      (e2ebench::IsTcp(args.workload) && args.logd.empty())) {
    return e2ebench::Usage();
  }
  return e2ebench::Run(args);
}
