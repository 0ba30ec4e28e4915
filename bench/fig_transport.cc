// Transport connection sweep: sequencer throughput over real TCP sockets as
// client connections grow from the paper's 36-machine testbed to 10k.
//
// The thread-per-connection transport this replaced fell over long before 1k
// connections (one OS thread each; its 36-connection number, 102K req/s, is
// kept in BENCH_transport.json); the epoll server holds every connection on
// one loop thread, which also runs every handler.  The shape
// to verify: the server sustains the 10k cell with bounded threads.
//
// Each cell forks client fleets out of this same binary (--child mode) so the
// server's fd budget is spent on accepted sockets, not client sockets; every
// child drives up to 2500 closed-loop raw-socket clients off a private epoll
// loop, speaking the v2 wire format (see src/net/tcp_transport.h) directly.
// --json=FILE dumps the sweep plus the acceptance block (BENCH_transport.json).
//
// Before the sweep, an RTT cell times one closed-loop caller against a server
// in a child process: TcpTransport::Call next to a raw blocking-socket
// ping-pong carrying the same bytes each way, the floor any transport pays
// for a loopback round trip.  Each side reports p50 and p99 per repetition.

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <csignal>
#include <thread>

#include "bench/bench_common.h"
#include "src/corfu/sequencer.h"
#include "src/corfu/storage_node.h"
#include "src/corfu/types.h"
#include "src/net/tcp_transport.h"

namespace tangobench {
namespace {

constexpr int kMaxConnsPerChild = 2500;
constexpr int kConnectWindow = 512;   // outstanding nonblocking connects
constexpr int kConnectDeadlineMs = 20000;

// RTT cell: timed calls per repetition, repetitions, and the wire bytes of
// one call — a v2 frame around a 16-byte payload each way, about the size of
// a sequencer tail check.
constexpr int kRttCalls = 10000;
constexpr int kRttWarmupCalls = 1000;
constexpr int kRttReps = 5;
constexpr tango::NodeId kRttNode = 1;
constexpr size_t kRttPayload = 16;
constexpr size_t kRawRequestBytes = 4 + 8 + 2 + 8 + 8 + kRttPayload;
constexpr size_t kRawResponseBytes = 4 + 8 + 1 + 4 + kRttPayload;

void RaiseFdLimit() {
  struct rlimit rl;
  if (getrlimit(RLIMIT_NOFILE, &rl) == 0 && rl.rlim_cur < rl.rlim_max) {
    rl.rlim_cur = rl.rlim_max;
    setrlimit(RLIMIT_NOFILE, &rl);
  }
}

int CountOpenFds() {
  DIR* d = opendir("/proc/self/fd");
  if (d == nullptr) {
    return -1;
  }
  int n = 0;
  while (readdir(d) != nullptr) {
    ++n;
  }
  closedir(d);
  return n - 3;  // ".", "..", and the dirfd itself
}

int CountThreads() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return -1;
  }
  char line[256];
  int threads = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "Threads: %d", &threads) == 1) {
      break;
    }
  }
  std::fclose(f);
  return threads;
}

void PutU16Le(std::vector<uint8_t>* out, uint16_t v) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
}

void PutU32Le(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void PutU64Le(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

uint32_t GetU32Le(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

// One v2 request frame carrying a kSequencerNext for a single streamless
// token.  Closed loop = one in flight per connection, so a constant corr id
// is unambiguous.
std::vector<uint8_t> BuildNextFrame() {
  std::vector<uint8_t> payload;
  PutU32Le(&payload, 0);  // epoch
  PutU32Le(&payload, 1);  // count
  PutU16Le(&payload, 0);  // no streams

  std::vector<uint8_t> frame;
  PutU32Le(&frame, static_cast<uint32_t>(8 + 2 + 8 + 8 + payload.size()));
  PutU64Le(&frame, 1);  // corr_id
  PutU16Le(&frame, static_cast<uint16_t>(corfu::kSequencerNext));
  PutU64Le(&frame, 0);  // trace_id (untraced)
  PutU64Le(&frame, 0);  // parent_span
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

// --- child mode: a fleet of closed-loop raw-socket clients on one epoll loop.

struct ChildConn {
  int fd = -1;
  enum State { kConnecting, kReady, kDead } state = kConnecting;
  uint32_t interest = 0;
  size_t wr_off = 0;       // bytes of the request frame already sent
  bool sending = false;    // mid-request (wr_off < frame size)
  std::vector<uint8_t> in;
  std::vector<uint8_t> req;
  uint64_t total = 0;
  uint64_t good = 0;
};

struct Child {
  int ep = -1;
  std::vector<ChildConn> conns;
  int connected = 0;
  int dead = 0;

  void SetInterest(size_t idx, uint32_t events) {
    ChildConn& c = conns[idx];
    if (c.interest == events) {
      return;
    }
    struct epoll_event ev;
    ev.events = events;
    ev.data.u64 = idx;
    epoll_ctl(ep, EPOLL_CTL_MOD, c.fd, &ev);
    c.interest = events;
  }

  void Kill(size_t idx) {
    ChildConn& c = conns[idx];
    if (c.fd < 0) {
      return;
    }
    epoll_ctl(ep, EPOLL_CTL_DEL, c.fd, nullptr);
    close(c.fd);
    c.fd = -1;
    if (c.state == ChildConn::kReady) {
      --connected;
    }
    c.state = ChildConn::kDead;
    ++dead;
  }

  // Starts writing the (next) request; switches to EPOLLIN once fully sent.
  void SendRequest(size_t idx) {
    ChildConn& c = conns[idx];
    while (c.wr_off < c.req.size()) {
      ssize_t n = send(c.fd, c.req.data() + c.wr_off, c.req.size() - c.wr_off,
                       MSG_NOSIGNAL);
      if (n > 0) {
        c.wr_off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        c.sending = true;
        SetInterest(idx, EPOLLIN | EPOLLOUT);
        return;
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      Kill(idx);
      return;
    }
    c.sending = false;
    c.wr_off = 0;
    SetInterest(idx, EPOLLIN);
  }

  void OnReadable(size_t idx, bool counting) {
    ChildConn& c = conns[idx];
    uint8_t buf[512];
    ssize_t n = recv(c.fd, buf, sizeof(buf), 0);
    if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                   errno != EINTR)) {
      Kill(idx);
      return;
    }
    if (n < 0) {
      return;
    }
    c.in.insert(c.in.end(), buf, buf + n);
    while (c.in.size() >= 4) {
      uint32_t len = GetU32Le(c.in.data());
      if (c.in.size() < 4 + len) {
        break;
      }
      if (len < 13) {  // u64 corr + u8 status + u32 retry_after_us
        Kill(idx);
        return;
      }
      if (counting) {
        c.total += 1;
        if (c.in[12] == 0) {  // status byte: 0 == kOk
          c.good += 1;
        }
      }
      c.in.erase(c.in.begin(), c.in.begin() + 4 + len);
      SendRequest(idx);  // closed loop: fire the next request
      if (c.fd < 0) {
        return;
      }
    }
  }
};

int RunChild(const Flags& flags) {
  RaiseFdLimit();
  const uint16_t port = static_cast<uint16_t>(flags.GetInt("port", 0));
  const int want = static_cast<int>(flags.GetInt("conns", 1));
  const int duration_ms = static_cast<int>(flags.GetInt("duration-ms", 1000));
  if (port == 0) {
    std::fprintf(stderr, "child: --port is required\n");
    return 2;
  }

  Child child;
  child.ep = epoll_create1(EPOLL_CLOEXEC);
  if (child.ep < 0) {
    std::fprintf(stderr, "child: epoll_create1: %s\n", std::strerror(errno));
    return 1;
  }
  child.conns.resize(static_cast<size_t>(want));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);

  // Connect phase: keep a bounded window of in-flight nonblocking connects so
  // 2500 SYNs don't land on the listen backlog at once.
  int next_connect = 0;
  int connecting = 0;
  const uint64_t connect_deadline =
      tango::NowMicros() + static_cast<uint64_t>(kConnectDeadlineMs) * 1000;
  auto top_up = [&]() {
    while (next_connect < want && connecting < kConnectWindow) {
      size_t idx = static_cast<size_t>(next_connect++);
      ChildConn& c = child.conns[idx];
      c.fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
      if (c.fd < 0) {
        c.state = ChildConn::kDead;
        ++child.dead;
        continue;
      }
      int one = 1;
      setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      int rc = connect(c.fd, reinterpret_cast<struct sockaddr*>(&addr),
                       sizeof(addr));
      if (rc != 0 && errno != EINPROGRESS) {
        close(c.fd);
        c.fd = -1;
        c.state = ChildConn::kDead;
        ++child.dead;
        continue;
      }
      c.req = BuildNextFrame();
      struct epoll_event ev;
      ev.events = EPOLLOUT;
      ev.data.u64 = idx;
      epoll_ctl(child.ep, EPOLL_CTL_ADD, c.fd, &ev);
      c.interest = EPOLLOUT;
      ++connecting;
    }
  };

  bool counting = false;
  uint64_t t_start = 0, t_stop = 0;
  struct epoll_event events[256];
  while (true) {
    uint64_t now = tango::NowMicros();
    if (!counting) {
      top_up();
      if (child.connected + child.dead == want || now >= connect_deadline) {
        // Measurement window starts once the fleet is up (stragglers past the
        // deadline are counted as dead); counters are still zero.
        counting = true;
        t_start = now;
        t_stop = t_start + static_cast<uint64_t>(duration_ms) * 1000;
      }
    } else if (now >= t_stop || child.connected == 0) {
      break;
    }
    uint64_t horizon = counting ? t_stop : connect_deadline;
    int timeout_ms = static_cast<int>(
        std::min<uint64_t>((horizon > now ? horizon - now : 0) / 1000 + 1,
                           1000));
    int n = epoll_wait(child.ep, events, 256, timeout_ms);
    for (int i = 0; i < n; ++i) {
      size_t idx = static_cast<size_t>(events[i].data.u64);
      ChildConn& c = child.conns[idx];
      if (c.fd < 0) {
        continue;
      }
      if (c.state == ChildConn::kConnecting) {
        int err = 0;
        socklen_t len = sizeof(err);
        getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &len);
        if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0 || err != 0) {
          child.Kill(idx);
          --connecting;
          continue;
        }
        if ((events[i].events & EPOLLOUT) != 0) {
          c.state = ChildConn::kReady;
          ++child.connected;
          --connecting;
          child.SendRequest(idx);  // start the closed loop immediately
        }
        continue;
      }
      if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
        child.Kill(idx);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0 && c.sending) {
        child.SendRequest(idx);
      }
      if (c.fd >= 0 && (events[i].events & EPOLLIN) != 0) {
        child.OnReadable(idx, counting);
      }
    }
  }

  uint64_t total = 0, good = 0;
  for (const ChildConn& c : child.conns) {
    total += c.total;
    good += c.good;
  }
  uint64_t elapsed_us = std::max<uint64_t>(tango::NowMicros() - t_start, 1);
  std::printf("CHILD conns=%d connected=%d total=%" PRIu64 " good=%" PRIu64
              " elapsed_us=%" PRIu64 "\n",
              want, child.connected, total, good, elapsed_us);
  std::fflush(stdout);
  return 0;
}

// --- rtt-server mode: the far end of the RTT cell.

bool RecvFull(int fd, uint8_t* p, size_t n) {
  while (n > 0) {
    ssize_t got = recv(fd, p, n, 0);
    if (got < 0 && errno == EINTR) {
      continue;
    }
    if (got <= 0) {
      return false;
    }
    p += got;
    n -= static_cast<size_t>(got);
  }
  return true;
}

// Serves an echo node on a TcpTransport and a raw blocking ping-pong socket,
// prints both ports, and runs until the parent kills it.
int RunRttServer() {
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  tango::TcpTransport transport;
  transport.RegisterNode(
      kRttNode, [](uint16_t, tango::ByteReader& req, tango::ByteWriter& resp) {
        resp.PutU64(req.GetU64());
        resp.PutU64(req.GetU64());
        return tango::Status::Ok();
      });

  int lfd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  socklen_t len = sizeof(addr);
  if (lfd < 0 ||
      bind(lfd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(lfd, 4) != 0 ||
      getsockname(lfd, reinterpret_cast<struct sockaddr*>(&addr), &len) != 0) {
    std::fprintf(stderr, "rtt-server: raw listener: %s\n",
                 std::strerror(errno));
    return 1;
  }
  std::printf("RTT_SERVER pid=%d transport_port=%u raw_port=%u\n",
              static_cast<int>(getpid()), transport.LocalPort(kRttNode),
              static_cast<unsigned>(ntohs(addr.sin_port)));
  std::fflush(stdout);

  // One raw connection at a time: each repetition opens its own.
  while (true) {
    int fd = accept4(lfd, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      return 1;
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    uint8_t req[kRawRequestBytes];
    uint8_t resp[kRawResponseBytes] = {};
    while (RecvFull(fd, req, sizeof(req)) &&
           send(fd, resp, sizeof(resp), MSG_NOSIGNAL) ==
               static_cast<ssize_t>(sizeof(resp))) {
    }
    close(fd);
  }
}

// --- parent mode: server + child fleets + the sweep itself.

struct Cell {
  const char* mode = "mux";
  int conns = 0;
  int connected = 0;
  int children = 0;
  double ops_per_sec = 0;
  double good_per_sec = 0;
  int server_threads = 0;  // peak over the cell
  int server_fds = 0;      // peak over the cell
};

std::vector<int> ParseConnList(const std::string& s) {
  std::vector<int> out;
  size_t pos = 0;
  while (pos < s.size()) {
    size_t comma = s.find(',', pos);
    if (comma == std::string::npos) {
      comma = s.size();
    }
    int v = std::atoi(s.substr(pos, comma - pos).c_str());
    if (v > 0) {
      out.push_back(v);
    }
    pos = comma + 1;
  }
  return out;
}

// popen goes through /bin/sh, so "/proc/self/exe" would resolve to the shell;
// resolve our real binary path up front instead.
std::string SelfExePath() {
  char buf[4096];
  ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) {
    std::fprintf(stderr, "readlink(/proc/self/exe): %s\n",
                 std::strerror(errno));
    std::exit(1);
  }
  buf[n] = '\0';
  return std::string(buf);
}

// --- parent side of the RTT cell.

struct RttSide {
  std::vector<double> p50_us;  // one per repetition
  std::vector<double> p99_us;
};

struct RttCell {
  RttSide raw;
  RttSide transport;
};

// Times `kRttCalls` round trips of `one_call` after a warmup, and appends
// their p50 and p99 to `side`.  Returns false if a call failed.
template <typename Fn>
bool TimeRoundTrips(RttSide* side, Fn one_call) {
  for (int i = 0; i < kRttWarmupCalls; ++i) {
    if (!one_call()) {
      return false;
    }
  }
  std::vector<uint64_t> ns(kRttCalls);
  for (uint64_t& sample : ns) {
    uint64_t start = tango::NowNanos();
    if (!one_call()) {
      return false;
    }
    sample = tango::NowNanos() - start;
  }
  std::sort(ns.begin(), ns.end());
  side->p50_us.push_back(static_cast<double>(ns[ns.size() / 2]) / 1000.0);
  side->p99_us.push_back(static_cast<double>(ns[ns.size() * 99 / 100]) /
                         1000.0);
  return true;
}

bool RawRoundTrips(uint16_t port, RttSide* side) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (fd < 0 ||
      connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
          0) {
    if (fd >= 0) {
      close(fd);
    }
    return false;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  uint8_t req[kRawRequestBytes] = {};
  uint8_t resp[kRawResponseBytes];
  bool ok = TimeRoundTrips(side, [&] {
    return send(fd, req, sizeof(req), MSG_NOSIGNAL) ==
               static_cast<ssize_t>(sizeof(req)) &&
           RecvFull(fd, resp, sizeof(resp));
  });
  close(fd);
  return ok;
}

bool TransportRoundTrips(uint16_t port, RttSide* side) {
  tango::TcpTransport transport;
  transport.AddRoute(kRttNode, "127.0.0.1", port);
  std::vector<uint8_t> request(kRttPayload, 0x5a);
  std::vector<uint8_t> response;
  return TimeRoundTrips(side, [&] {
    return transport.Call(kRttNode, 0, request, &response).ok() &&
           response.size() == kRttPayload;
  });
}

// Starts the RTT server child, then alternates raw and transport
// repetitions against it.  Returns false if any repetition failed.
bool RunRttCell(RttCell* cell) {
  const std::string cmd = "exec '" + SelfExePath() + "' --rtt-server=1";
  FILE* p = popen(cmd.c_str(), "r");
  if (p == nullptr) {
    std::fprintf(stderr, "popen failed for the rtt server\n");
    return false;
  }
  int pid = 0;
  unsigned transport_port = 0, raw_port = 0;
  char line[256];
  bool ok = std::fgets(line, sizeof(line), p) != nullptr &&
            std::sscanf(line, "RTT_SERVER pid=%d transport_port=%u raw_port=%u",
                        &pid, &transport_port, &raw_port) == 3;
  for (int rep = 0; ok && rep < kRttReps; ++rep) {
    ok = RawRoundTrips(static_cast<uint16_t>(raw_port), &cell->raw) &&
         TransportRoundTrips(static_cast<uint16_t>(transport_port),
                             &cell->transport);
  }
  if (pid > 0) {
    kill(pid, SIGKILL);
  }
  pclose(p);
  return ok;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Median, min and max over repetitions, as table cells.
std::vector<std::string> SpreadCells(const std::vector<double>& v) {
  return {Fmt(Median(v)), Fmt(*std::min_element(v.begin(), v.end())),
          Fmt(*std::max_element(v.begin(), v.end()))};
}

void PrintRttRow(const char* path, const RttSide& side) {
  std::vector<std::string> row = {path};
  for (const auto* v : {&side.p50_us, &side.p99_us}) {
    std::vector<std::string> cells = SpreadCells(*v);
    row.insert(row.end(), cells.begin(), cells.end());
  }
  PrintRow(row);
}

void WriteRttSide(FILE* f, const char* name, const RttSide& side,
                  const char* sep) {
  auto list = [&](const std::vector<double>& v) {
    std::string out;
    for (size_t i = 0; i < v.size(); ++i) {
      out += (i == 0 ? "" : ", ") + Fmt(v[i]);
    }
    return out;
  };
  std::fprintf(f,
               "    \"%s\": {\"p50_us\": [%s], \"p99_us\": [%s], "
               "\"p50_us_median\": %s, \"p99_us_median\": %s}%s\n",
               name, list(side.p50_us).c_str(), list(side.p99_us).c_str(),
               Fmt(Median(side.p50_us)).c_str(),
               Fmt(Median(side.p99_us)).c_str(), sep);
}

Cell RunCellOnce(const char* mode, int conns, int duration_ms, uint16_t port) {
  Cell cell;
  cell.mode = mode;
  cell.conns = conns;
  cell.children = (conns + kMaxConnsPerChild - 1) / kMaxConnsPerChild;

  std::vector<FILE*> pipes;
  const std::string self = SelfExePath();
  int remaining = conns;
  for (int i = 0; i < cell.children; ++i) {
    int share = std::min(remaining, kMaxConnsPerChild);
    remaining -= share;
    char cmd[4352];
    std::snprintf(cmd, sizeof(cmd),
                  "'%s' --child=1 --port=%u --conns=%d "
                  "--duration-ms=%d",
                  self.c_str(), port, share, duration_ms);
    FILE* p = popen(cmd, "r");
    if (p == nullptr) {
      std::fprintf(stderr, "popen failed for child %d\n", i);
      continue;
    }
    pipes.push_back(p);
  }

  // Sample the server process (us) while the fleet runs; report the peaks.
  // Bounded threads under 10k connections is the whole point of the mux.
  std::atomic<bool> sampling{true};
  std::thread sampler([&] {
    while (sampling.load(std::memory_order_relaxed)) {
      cell.server_threads = std::max(cell.server_threads, CountThreads());
      cell.server_fds = std::max(cell.server_fds, CountOpenFds());
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });

  for (FILE* p : pipes) {
    char line[256];
    while (std::fgets(line, sizeof(line), p) != nullptr) {
      int want = 0, connected = 0;
      uint64_t total = 0, good = 0, elapsed_us = 0;
      if (std::sscanf(line,
                      "CHILD conns=%d connected=%d total=%" SCNu64
                      " good=%" SCNu64 " elapsed_us=%" SCNu64,
                      &want, &connected, &total, &good, &elapsed_us) == 5) {
        cell.connected += connected;
        double secs = static_cast<double>(elapsed_us) / 1e6;
        cell.ops_per_sec += static_cast<double>(total) / secs;
        cell.good_per_sec += static_cast<double>(good) / secs;
      }
    }
    pclose(p);
  }
  sampling.store(false);
  sampler.join();
  return cell;
}

// Runs the cell `reps` times and keeps the run with median throughput —
// single runs on a shared/noisy host can swing ±15%.
Cell RunCell(const char* mode, int conns, int duration_ms, uint16_t port,
             int reps) {
  std::vector<Cell> runs;
  for (int r = 0; r < reps; ++r) {
    runs.push_back(RunCellOnce(mode, conns, duration_ms, port));
  }
  std::sort(runs.begin(), runs.end(), [](const Cell& a, const Cell& b) {
    return a.ops_per_sec < b.ops_per_sec;
  });
  return runs[runs.size() / 2];
}

void Run(const Flags& flags) {
  RaiseFdLimit();
  const int duration_ms = static_cast<int>(flags.GetInt("duration-ms", 2000));
  const std::string conn_list =
      flags.GetString("conns", "36,1000,10000");
  const std::string json_path = flags.GetString("json", "");
  const int reps = static_cast<int>(flags.GetInt("reps", 1));

  std::vector<int> sweep = ParseConnList(conn_list);
  if (sweep.empty()) {
    std::fprintf(stderr, "bad --conns list: %s\n", conn_list.c_str());
    std::exit(2);
  }

  RttCell rtt;
  if (!RunRttCell(&rtt)) {
    std::fprintf(stderr, "rtt cell failed\n");
    std::exit(1);
  }
  std::printf("RTT: one caller, server in a child process, %d calls x %d "
              "reps; median, min and max over reps\n\n",
              kRttCalls, kRttReps);
  PrintHeader({"path", "p50_us", "p50_min", "p50_max", "p99_us", "p99_min",
               "p99_max"});
  PrintRttRow("raw_socket", rtt.raw);
  PrintRttRow("tcp_transport", rtt.transport);

  std::printf("\nTransport sweep: sequencer Kreq/s vs TCP connections\n\n");
  PrintHeader({"mode", "conns", "connected", "children", "Kreq/s", "Kgood/s",
               "srv_thr", "srv_fds"});

  std::vector<Cell> cells;
  tango::TcpTransport transport;
  corfu::Sequencer sequencer(&transport, /*node=*/10, /*epoch=*/0, /*K=*/4);
  corfu::StorageNode storage(&transport, /*node=*/100,
                             corfu::StorageNode::Options{});
  const uint16_t port = transport.LocalPort(10);

  for (int conns : sweep) {
    Cell cell = RunCell("mux", conns, duration_ms, port, reps);
    cells.push_back(cell);
    PrintRow({cell.mode, std::to_string(cell.conns),
              std::to_string(cell.connected), std::to_string(cell.children),
              Fmt(cell.ops_per_sec / 1000.0), Fmt(cell.good_per_sec / 1000.0),
              std::to_string(cell.server_threads),
              std::to_string(cell.server_fds)});
  }

  // Acceptance: every cell got its full fleet connected and completed work,
  // with server threads bounded (not scaling with connections).
  const Cell* mux_max = nullptr;
  int mux_threads = 0;
  bool pass_sustain = true;
  for (const Cell& c : cells) {
    if (mux_max == nullptr || c.conns > mux_max->conns) {
      mux_max = &c;
    }
    mux_threads = std::max(mux_threads, c.server_threads);
    if (c.connected < c.conns || c.good_per_sec <= 0) {
      pass_sustain = false;
    }
  }
  // Loop + main + sampler + slack; never ~1 thread per conn.
  bool pass_threads = mux_threads > 0 && mux_threads <= 64;
  if (mux_max != nullptr) {
    std::printf("\nsustained %d conns with %d server threads %s\n",
                mux_max->conns, mux_threads,
                pass_sustain && pass_threads ? "(PASS)" : "(FAIL)");
  }

  if (!json_path.empty()) {
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      std::exit(1);
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"fig_transport\",\n"
                 "  \"duration_ms\": %d,\n",
                 duration_ms);
    WriteRunInfoField(f);
    WriteMetricsField(f);
    std::fprintf(
        f,
        "  \"acceptance\": {\"max_conns\": %d, \"max_conns_connected\": %d, "
        "\"mux_server_threads_peak\": %d, \"pass_sustain\": %s, "
        "\"pass_threads\": %s},\n",
        mux_max != nullptr ? mux_max->conns : 0,
        mux_max != nullptr ? mux_max->connected : 0, mux_threads,
        pass_sustain ? "true" : "false", pass_threads ? "true" : "false");
    std::fprintf(f,
                 "  \"rtt\": {\"calls_per_rep\": %d, \"reps\": %d, "
                 "\"payload_bytes\": %zu,\n",
                 kRttCalls, kRttReps, kRttPayload);
    WriteRttSide(f, "raw_socket", rtt.raw, ",");
    WriteRttSide(f, "tcp_transport", rtt.transport, "");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"cells\": [\n");
    for (size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      std::fprintf(f,
                   "    {\"mode\": \"%s\", \"conns\": %d, \"connected\": %d, "
                   "\"children\": %d, \"ops_per_sec\": %.1f, "
                   "\"good_per_sec\": %.1f, \"server_threads\": %d, "
                   "\"server_fds\": %d}%s\n",
                   c.mode, c.conns, c.connected, c.children, c.ops_per_sec,
                   c.good_per_sec, c.server_threads, c.server_fds,
                   i + 1 == cells.size() ? "" : ",");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
}

}  // namespace
}  // namespace tangobench

int main(int argc, char** argv) {
  tangobench::Flags flags(argc, argv);
  if (flags.GetInt("child", 0) != 0) {
    return tangobench::RunChild(flags);
  }
  if (flags.GetInt("rtt-server", 0) != 0) {
    return tangobench::RunRttServer();
  }
  tangobench::Run(flags);
  return 0;
}
