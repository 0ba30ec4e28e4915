#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/net/inproc_transport.h"
#include "src/net/tcp_transport.h"
#include "src/util/threading.h"

namespace tango {
namespace {

RpcHandler EchoHandler() {
  return [](uint16_t method, ByteReader& req, ByteWriter& resp) {
    if (method == 1) {  // echo
      std::string s = req.GetString();
      resp.PutString(s);
      return Status::Ok();
    }
    if (method == 2) {  // fail
      return Status(StatusCode::kFailedPrecondition, "nope");
    }
    return Status(StatusCode::kInvalidArgument, "unknown method");
  };
}

std::vector<uint8_t> EchoRequest(const std::string& s) {
  ByteWriter w;
  w.PutString(s);
  return w.Take();
}

template <typename T>
void ExerciseEcho(T& transport) {
  transport.RegisterNode(7, EchoHandler());
  std::vector<uint8_t> resp;
  Status st = transport.Call(7, 1, EchoRequest("ping"), &resp);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ByteReader r(resp);
  EXPECT_EQ(r.GetString(), "ping");
}

// --- InProcTransport -----------------------------------------------------------

TEST(InProcTransportTest, Echo) {
  InProcTransport t;
  ExerciseEcho(t);
}

TEST(InProcTransportTest, UnknownNodeUnavailable) {
  InProcTransport t;
  EXPECT_EQ(t.Call(99, 1, {}, nullptr).code(), StatusCode::kUnavailable);
}

TEST(InProcTransportTest, HandlerStatusPropagates) {
  InProcTransport t;
  t.RegisterNode(7, EchoHandler());
  EXPECT_EQ(t.Call(7, 2, {}, nullptr).code(),
            StatusCode::kFailedPrecondition);
}

TEST(InProcTransportTest, KillAndRevive) {
  InProcTransport t;
  t.RegisterNode(7, EchoHandler());
  t.KillNode(7);
  EXPECT_TRUE(t.IsKilled(7));
  EXPECT_EQ(t.Call(7, 1, EchoRequest("x"), nullptr).code(),
            StatusCode::kUnavailable);
  t.ReviveNode(7);
  EXPECT_TRUE(t.Call(7, 1, EchoRequest("x"), nullptr).ok());
}

TEST(InProcTransportTest, UnregisterRemoves) {
  InProcTransport t;
  t.RegisterNode(7, EchoHandler());
  t.UnregisterNode(7);
  EXPECT_EQ(t.Call(7, 1, {}, nullptr).code(), StatusCode::kUnavailable);
}

TEST(InProcTransportTest, DropInjection) {
  InProcTransport::Options options;
  options.drop_probability = 1.0;
  InProcTransport t(options);
  t.RegisterNode(7, EchoHandler());
  EXPECT_EQ(t.Call(7, 1, EchoRequest("x"), nullptr).code(),
            StatusCode::kUnavailable);
}

TEST(InProcTransportTest, PartialDropEventuallySucceeds) {
  InProcTransport::Options options;
  options.drop_probability = 0.5;
  options.seed = 99;
  InProcTransport t(options);
  t.RegisterNode(7, EchoHandler());
  int successes = 0;
  for (int i = 0; i < 100; ++i) {
    if (t.Call(7, 1, EchoRequest("x"), nullptr).ok()) {
      ++successes;
    }
  }
  EXPECT_GT(successes, 20);
  EXPECT_LT(successes, 80);
}

TEST(InProcTransportTest, CountsCalls) {
  InProcTransport t;
  t.RegisterNode(7, EchoHandler());
  uint64_t before = t.call_count();
  (void)t.Call(7, 1, EchoRequest("x"), nullptr);
  (void)t.Call(7, 1, EchoRequest("y"), nullptr);
  EXPECT_EQ(t.call_count(), before + 2);
}

TEST(InProcTransportTest, PartitionLinkIsAsymmetric) {
  InProcTransport t;
  t.RegisterNode(7, EchoHandler());
  t.RegisterNode(8, EchoHandler());
  t.PartitionLink(1, 7);  // 1 -> 7 severed; every other direction intact
  EXPECT_TRUE(t.IsPartitioned(1, 7));
  EXPECT_FALSE(t.IsPartitioned(7, 1));
  {
    ScopedNetworkIdentity as_one(1);
    EXPECT_EQ(t.Call(7, 1, EchoRequest("x"), nullptr).code(),
              StatusCode::kUnavailable);
    EXPECT_TRUE(t.Call(8, 1, EchoRequest("x"), nullptr).ok());
  }
  {
    // The reverse direction and anonymous callers are unaffected.
    ScopedNetworkIdentity as_seven(7);
    EXPECT_TRUE(t.Call(7, 1, EchoRequest("x"), nullptr).ok());
  }
  EXPECT_TRUE(t.Call(7, 1, EchoRequest("x"), nullptr).ok());
  t.HealLink(1, 7);
  ScopedNetworkIdentity as_one(1);
  EXPECT_TRUE(t.Call(7, 1, EchoRequest("x"), nullptr).ok());
}

TEST(InProcTransportTest, HealAllLinksClearsEveryPartition) {
  InProcTransport t;
  t.RegisterNode(7, EchoHandler());
  t.PartitionLink(1, 7);
  t.PartitionLink(2, 7);
  t.HealAllLinks();
  EXPECT_FALSE(t.IsPartitioned(1, 7));
  EXPECT_FALSE(t.IsPartitioned(2, 7));
  ScopedNetworkIdentity as_two(2);
  EXPECT_TRUE(t.Call(7, 1, EchoRequest("x"), nullptr).ok());
}

TEST(InProcTransportTest, IdentityRestoredOnScopeExit) {
  EXPECT_EQ(CurrentNetworkIdentity(), kInvalidNodeId);
  {
    ScopedNetworkIdentity outer(5);
    EXPECT_EQ(CurrentNetworkIdentity(), 5u);
    {
      ScopedNetworkIdentity inner(6);
      EXPECT_EQ(CurrentNetworkIdentity(), 6u);
    }
    EXPECT_EQ(CurrentNetworkIdentity(), 5u);
  }
  EXPECT_EQ(CurrentNetworkIdentity(), kInvalidNodeId);
}

TEST(InProcTransportTest, LinkJitterStillDelivers) {
  InProcTransport t;
  t.RegisterNode(7, EchoHandler());
  t.set_link_jitter_us(200);
  for (int i = 0; i < 20; ++i) {
    std::vector<uint8_t> resp;
    ASSERT_TRUE(t.Call(7, 1, EchoRequest("jittered"), &resp).ok());
    ByteReader r(resp);
    EXPECT_EQ(r.GetString(), "jittered");
  }
}

TEST(InProcTransportTest, ConcurrentCallers) {
  InProcTransport t;
  std::atomic<uint64_t> handled{0};
  t.RegisterNode(3, [&](uint16_t, ByteReader&, ByteWriter&) {
    handled.fetch_add(1, std::memory_order_relaxed);
    return Status::Ok();
  });
  RunParallel(4, [&](int) {
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE(t.Call(3, 0, {}, nullptr).ok());
    }
  });
  EXPECT_EQ(handled.load(), 2000u);
}

// --- TcpTransport ------------------------------------------------------------------

TEST(TcpTransportTest, EchoOverLoopback) {
  TcpTransport t;
  ExerciseEcho(t);
}

TEST(TcpTransportTest, PortAssigned) {
  TcpTransport t;
  t.RegisterNode(7, EchoHandler());
  EXPECT_GT(t.LocalPort(7), 0);
  EXPECT_EQ(t.LocalPort(8), 0);
}

TEST(TcpTransportTest, StatusPropagates) {
  TcpTransport t;
  t.RegisterNode(7, EchoHandler());
  EXPECT_EQ(t.Call(7, 2, {}, nullptr).code(),
            StatusCode::kFailedPrecondition);
}

TEST(TcpTransportTest, NoRouteIsUnavailable) {
  TcpTransport t;
  EXPECT_EQ(t.Call(42, 1, {}, nullptr).code(), StatusCode::kUnavailable);
}

TEST(TcpTransportTest, LargePayloadRoundTrip) {
  TcpTransport t;
  t.RegisterNode(7, EchoHandler());
  std::string big(1 << 20, 'z');  // 1 MiB
  std::vector<uint8_t> resp;
  ASSERT_TRUE(t.Call(7, 1, EchoRequest(big), &resp).ok());
  ByteReader r(resp);
  EXPECT_EQ(r.GetString(), big);
}

TEST(TcpTransportTest, SequentialRequestsReuseConnection) {
  TcpTransport t;
  t.RegisterNode(7, EchoHandler());
  for (int i = 0; i < 50; ++i) {
    std::vector<uint8_t> resp;
    ASSERT_TRUE(t.Call(7, 1, EchoRequest(std::to_string(i)), &resp).ok());
    ByteReader r(resp);
    EXPECT_EQ(r.GetString(), std::to_string(i));
  }
}

TEST(TcpTransportTest, TwoNodesIndependent) {
  TcpTransport t;
  t.RegisterNode(1, [](uint16_t, ByteReader&, ByteWriter& resp) {
    resp.PutString("one");
    return Status::Ok();
  });
  t.RegisterNode(2, [](uint16_t, ByteReader&, ByteWriter& resp) {
    resp.PutString("two");
    return Status::Ok();
  });
  std::vector<uint8_t> resp;
  ASSERT_TRUE(t.Call(1, 0, {}, &resp).ok());
  ByteReader r1(resp);
  EXPECT_EQ(r1.GetString(), "one");
  ASSERT_TRUE(t.Call(2, 0, {}, &resp).ok());
  ByteReader r2(resp);
  EXPECT_EQ(r2.GetString(), "two");
}

TEST(TcpTransportTest, UnregisterClosesServer) {
  TcpTransport t;
  t.RegisterNode(7, EchoHandler());
  ASSERT_TRUE(t.Call(7, 1, EchoRequest("x"), nullptr).ok());
  t.UnregisterNode(7);
  EXPECT_FALSE(t.Call(7, 1, EchoRequest("x"), nullptr).ok());
}

TEST(TcpTransportTest, CallTimesOutOnStalledPeer) {
  // A listener that accepts the TCP handshake (kernel backlog) but never
  // reads or replies: without a deadline this call would block forever.
  int listener = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(listen(listener, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(
      getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  TcpTransport::Options options;
  options.call_timeout_ms = 100;
  TcpTransport t(options);
  t.AddRoute(42, "127.0.0.1", ntohs(addr.sin_port));

  auto start = std::chrono::steady_clock::now();
  Status st = t.Call(42, 1, EchoRequest("stalled"), nullptr);
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_EQ(st.code(), StatusCode::kTimeout) << st.ToString();
  EXPECT_GE(elapsed.count(), 50);
  EXPECT_LT(elapsed.count(), 5000);
  close(listener);
}

// --- resource-leak regression tests ------------------------------------------------
//
// Connection churn must not accumulate threads or fds: the paper's fan-in
// shape (Fig 2) is many short-lived clients against one server, and a
// transport that leaks a thread or socket per churned connection falls over
// long before 10k concurrent clients.

// Thread count of this process, from /proc/self/status (Linux-only, like the
// rest of the TCP stack here).
int CountThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::atoi(line.c_str() + 8);
    }
  }
  return -1;
}

// Open descriptors of this process, from /proc/self/fd.
int CountOpenFds() {
  int n = 0;
  DIR* d = opendir("/proc/self/fd");
  if (d == nullptr) {
    return -1;
  }
  while (readdir(d) != nullptr) {
    ++n;
  }
  closedir(d);
  return n - 2;  // "." and ".."
}

// Polls until `pred` holds or ~5s elapse; returns its final value.
bool EventuallyTrue(const std::function<bool()>& pred) {
  for (int i = 0; i < 500; ++i) {
    if (pred()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

TEST(TcpTransportTest, ConnectionChurnReapsThreadsAndFds) {
  TcpTransport t;
  t.RegisterNode(7, EchoHandler());
  uint16_t port = t.LocalPort(7);
  ASSERT_GT(port, 0);

  const int base_threads = CountThreads();
  const int base_fds = CountOpenFds();
  ASSERT_GT(base_threads, 0);
  ASSERT_GT(base_fds, 0);

  // 1k short-lived connections: connect, (sometimes) exchange one frame,
  // close.  Every one of these used to strand an exited thread and its fd
  // on the listener until transport shutdown.
  for (int i = 0; i < 1000; ++i) {
    int fd = socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
        << "connect " << i << ": " << strerror(errno);
    close(fd);
    if (i % 100 == 0) {
      // Interleave real calls so the churn cannot wedge live traffic.
      std::vector<uint8_t> resp;
      ASSERT_TRUE(t.Call(7, 1, EchoRequest("alive"), &resp).ok());
    }
  }

  // Exited connection threads unwind asynchronously; poll until the process
  // is back near its baseline.  The bounds are deliberately loose (the
  // transport may keep a bounded pool of loop/handler threads) but far
  // below the 1000 threads/fds a leak would strand.
  EXPECT_TRUE(EventuallyTrue([&] {
    return CountThreads() <= base_threads + 8;
  })) << "threads: " << CountThreads() << " vs baseline " << base_threads;
  EXPECT_TRUE(EventuallyTrue([&] {
    return CountOpenFds() <= base_fds + 16;
  })) << "fds: " << CountOpenFds() << " vs baseline " << base_fds;

  // The transport is still healthy after the churn.
  std::vector<uint8_t> resp;
  ASSERT_TRUE(t.Call(7, 1, EchoRequest("after"), &resp).ok());
}

TEST(TcpTransportTest, ConcurrentFirstCallsDontLeakFds) {
  const int base_fds = CountOpenFds();
  ASSERT_GT(base_fds, 0);

  // Many threads issue the *first* Call to a node at once, so all of them
  // find the free list empty and connect.  Every connection they open must
  // be closed with the transport.  Fresh transport per round so every round
  // re-races.
  for (int round = 0; round < 20; ++round) {
    TcpTransport t;
    t.RegisterNode(7, EchoHandler());
    RunParallel(8, [&](int) {
      std::vector<uint8_t> resp;
      ASSERT_TRUE(t.Call(7, 1, EchoRequest("race"), &resp).ok());
    });
  }

  EXPECT_TRUE(EventuallyTrue([&] {
    return CountOpenFds() <= base_fds + 8;
  })) << "fds: " << CountOpenFds() << " vs baseline " << base_fds;
}

TEST(TcpTransportTest, TimeoutDoesNotBreakHealthyPeers) {
  TcpTransport::Options options;
  options.call_timeout_ms = 1000;
  TcpTransport t(options);
  t.RegisterNode(7, EchoHandler());
  std::vector<uint8_t> resp;
  ASSERT_TRUE(t.Call(7, 1, EchoRequest("quick"), &resp).ok());
  ByteReader r(resp);
  EXPECT_EQ(r.GetString(), "quick");
}

// --- server-side multiplexing ------------------------------------------------------
//
// A client may pipeline many RPCs on one connection, correlated by id: the
// server answers each as it completes, in any order.  TcpTransport callers
// own one connection per call, so these tests speak wire format v2 on a raw
// socket, as bench/fig_transport's fleets do.

// Completes deferred replies from helper threads, each after its delay;
// joins them on destruction (declare it before the transport).
class DelayedReplies {
 public:
  ~DelayedReplies() {
    for (std::thread& t : threads_) {
      t.join();
    }
  }

  void After(uint32_t delay_ms, std::unique_ptr<DeferredReply> reply,
             std::vector<uint8_t> payload) {
    std::lock_guard<std::mutex> lock(mu_);
    threads_.emplace_back([delay_ms, reply = std::move(reply),
                           payload = std::move(payload)] {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      reply->Complete(Status::Ok(), payload);
    });
  }

 private:
  std::mutex mu_;
  std::vector<std::thread> threads_;
};

RpcHandler MuxHandler(DelayedReplies* delayed) {
  return [delayed](uint16_t method, ByteReader& req, ByteWriter& resp) {
    switch (method) {
      case 1: {  // echo
        resp.PutString(req.GetString());
        return Status::Ok();
      }
      case 3: {  // delayed echo: u32 delay_ms | string, replied from a helper
        uint32_t delay_ms = req.GetU32();
        ByteWriter echo;
        echo.PutString(req.GetString());
        std::unique_ptr<DeferredReply> reply = DeferReply(req);
        if (reply == nullptr) {
          return Status(StatusCode::kInternal, "reply not deferrable");
        }
        delayed->After(delay_ms, std::move(reply), echo.Take());
        return Status::Ok();  // ignored: the reply was taken
      }
      case 4: {  // busy shed echoing the requested hint: u32 retry_after_us
        Status st(StatusCode::kBusy, "shed");
        st.set_retry_after_us(req.GetU32());
        return st;
      }
      default:
        return Status(StatusCode::kInvalidArgument, "unknown method");
    }
  };
}

// A blocking raw-socket client that pipelines v2 request frames on one
// connection and reads response frames in arrival order.
class RawV2Client {
 public:
  struct Response {
    uint64_t corr = 0;
    StatusCode code = StatusCode::kOk;
    std::vector<uint8_t> payload;
  };

  explicit RawV2Client(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    connected_ = fd_ >= 0 && connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                                     sizeof(addr)) == 0;
  }
  ~RawV2Client() {
    if (fd_ >= 0) {
      close(fd_);
    }
  }
  RawV2Client(const RawV2Client&) = delete;
  RawV2Client& operator=(const RawV2Client&) = delete;

  bool connected() const { return connected_; }

  // Queues one request frame; Flush sends every queued frame in one write.
  void Add(uint64_t corr, uint16_t method, const std::vector<uint8_t>& payload) {
    pending_.PutU32(static_cast<uint32_t>(8 + 2 + 8 + 8 + payload.size()));
    pending_.PutU64(corr);
    pending_.PutU16(method);
    pending_.PutU64(0);  // untraced
    pending_.PutU64(0);
    pending_.PutBytes(payload.data(), payload.size());
  }
  bool Flush() {
    std::vector<uint8_t> bytes = pending_.Take();
    pending_ = ByteWriter();
    return send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(bytes.size());
  }

  // A response that could not be read comes back with code kUnavailable.
  Response Read() {
    constexpr size_t kHeader = 8 + 1 + 4;
    Response resp;
    resp.code = StatusCode::kUnavailable;
    std::vector<uint8_t> head = ReadExactly(4 + kHeader);
    if (head.size() < 4 + kHeader) {
      return resp;
    }
    ByteReader r(head);
    uint32_t len = r.GetU32();
    if (len < kHeader) {
      ADD_FAILURE() << "malformed response frame";
      return resp;
    }
    resp.corr = r.GetU64();
    resp.code = static_cast<StatusCode>(r.GetU8());
    resp.payload = ReadExactly(len - kHeader);
    return resp;
  }

 private:
  std::vector<uint8_t> ReadExactly(size_t n) {
    std::vector<uint8_t> out(n);
    size_t got = 0;
    while (got < n) {
      ssize_t k = recv(fd_, out.data() + got, n - got, 0);
      if (k <= 0) {
        ADD_FAILURE() << "connection closed mid-frame";
        out.resize(got);
        return out;
      }
      got += static_cast<size_t>(k);
    }
    return out;
  }

  int fd_ = -1;
  bool connected_ = false;
  ByteWriter pending_;
};

std::vector<uint8_t> DelayedEchoRequest(uint32_t delay_ms,
                                        const std::string& s) {
  ByteWriter w;
  w.PutU32(delay_ms);
  w.PutString(s);
  return w.Take();
}

std::string EchoOf(const RawV2Client::Response& resp) {
  ByteReader r(resp.payload);
  return r.GetString();
}

TEST(TcpTransportTest, MultiplexedResponsesReturnOutOfOrder) {
  DelayedReplies delayed;
  TcpTransport t;
  t.RegisterNode(7, MuxHandler(&delayed));
  RawV2Client client(t.LocalPort(7));
  ASSERT_TRUE(client.connected());

  // Six requests pipelined on one connection; request 0's reply is parked
  // while the rest complete, so it arrives last and each payload proves
  // correlation by id, not by arrival order.
  constexpr int kCalls = 6;
  for (int i = 0; i < kCalls; ++i) {
    client.Add(static_cast<uint64_t>(i), 3,
               DelayedEchoRequest(i == 0 ? 400 : 0, "mux-" + std::to_string(i)));
  }
  ASSERT_TRUE(client.Flush());
  std::vector<uint64_t> order;
  for (int i = 0; i < kCalls; ++i) {
    RawV2Client::Response resp = client.Read();
    ASSERT_EQ(resp.code, StatusCode::kOk);
    EXPECT_EQ(EchoOf(resp), "mux-" + std::to_string(resp.corr));
    order.push_back(resp.corr);
  }
  ASSERT_EQ(order.size(), static_cast<size_t>(kCalls));
  EXPECT_EQ(order.back(), 0u) << "the delayed reply should arrive last";
}

TEST(TcpTransportTest, ConcurrentCallsOpenAtMostOneSocketEach) {
  DelayedReplies delayed;
  TcpTransport t;
  t.RegisterNode(7, MuxHandler(&delayed));
  ASSERT_TRUE(t.Call(7, 1, EchoRequest("warm"), nullptr).ok());
  const int base_fds = CountOpenFds();
  ASSERT_GT(base_fds, 0);

  constexpr int kCalls = 12;
  std::vector<std::thread> callers;
  callers.reserve(kCalls);
  for (int i = 0; i < kCalls; ++i) {
    callers.emplace_back([&t, i] {
      std::vector<uint8_t> resp;
      Status st = t.Call(7, 3, DelayedEchoRequest(300, std::to_string(i)),
                         &resp);
      EXPECT_TRUE(st.ok()) << st.ToString();
      ByteReader r(resp);
      EXPECT_EQ(r.GetString(), std::to_string(i));
    });
  }
  // Mid-flight: a dozen parked calls hold at most a dozen client sockets
  // (one reused from the warm call), each with its accepted server peer in
  // this same process.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_LE(CountOpenFds(), base_fds + 2 * (kCalls - 1));
  for (auto& caller : callers) {
    caller.join();
  }

  // Sequential calls afterwards reuse the idle connections and open none.
  const int pooled_fds = CountOpenFds();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(t.Call(7, 1, EchoRequest("again"), nullptr).ok());
  }
  EXPECT_EQ(CountOpenFds(), pooled_fds);
}

TEST(TcpTransportTest, TimedOutCallsLateReplyNeverReachesTheNextCall) {
  DelayedReplies delayed;
  TcpTransport::Options options;
  options.call_timeout_ms = 100;
  TcpTransport t(options);
  t.RegisterNode(7, MuxHandler(&delayed));
  ASSERT_TRUE(t.Call(7, 1, EchoRequest("warm"), nullptr).ok());
  const int base_fds = CountOpenFds();
  ASSERT_GT(base_fds, 0);

  EXPECT_EQ(t.Call(7, 3, DelayedEchoRequest(300, "late"), nullptr).code(),
            StatusCode::kTimeout);
  // The late reply is sent while the next call still waits for its own.
  t.set_call_timeout_ms(0);
  std::vector<uint8_t> resp;
  Status st = t.Call(7, 3, DelayedEchoRequest(300, "next"), &resp);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ByteReader r(resp);
  EXPECT_EQ(r.GetString(), "next");
  // The timed-out call closed its connection; the server closed its end.
  EXPECT_TRUE(EventuallyTrue([&] { return CountOpenFds() <= base_fds; }))
      << "fds: " << CountOpenFds() << " vs baseline " << base_fds;
}

TEST(TcpTransportTest, IdleConnectionToARestartedServerIsReplaced) {
  TcpTransport server;
  server.RegisterNode(7, EchoHandler());
  const uint16_t port = server.LocalPort(7);
  ASSERT_GT(port, 0);
  server.SetListenPort(7, port);

  TcpTransport client;
  client.AddRoute(7, "127.0.0.1", port);
  ASSERT_TRUE(client.Call(7, 1, EchoRequest("before"), nullptr).ok());

  // The restart closes the server end of the client's idle connection.
  server.UnregisterNode(7);
  server.RegisterNode(7, EchoHandler());
  ASSERT_EQ(server.LocalPort(7), port);

  std::vector<uint8_t> resp;
  Status st = client.Call(7, 1, EchoRequest("after"), &resp);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ByteReader r(resp);
  EXPECT_EQ(r.GetString(), "after");
}

TEST(TcpTransportTest, CallOnlyTransportStartsNoThread) {
  TcpTransport server;
  server.RegisterNode(7, EchoHandler());
  const int base_threads = CountThreads();
  ASSERT_GT(base_threads, 0);

  TcpTransport client;
  client.AddRoute(7, "127.0.0.1", server.LocalPort(7));
  ASSERT_TRUE(client.Call(7, 1, EchoRequest("x"), nullptr).ok());
  EXPECT_EQ(CountThreads(), base_threads);
}

TEST(TcpTransportTest, UnregisterFailsACallInFlightToThatNode) {
  DelayedReplies delayed;
  TcpTransport server;
  std::atomic<bool> parked{false};
  RpcHandler mux = MuxHandler(&delayed);
  server.RegisterNode(7, [&](uint16_t method, ByteReader& req,
                             ByteWriter& resp) {
    Status st = mux(method, req, resp);
    parked.store(true);
    return st;
  });
  TcpTransport client;
  client.AddRoute(7, "127.0.0.1", server.LocalPort(7));

  uint64_t failed_after_us = 0;
  std::thread caller([&] {
    uint64_t start = NowMicros();
    EXPECT_EQ(client.Call(7, 3, DelayedEchoRequest(1000, "parked"), nullptr)
                  .code(),
              StatusCode::kUnavailable);
    failed_after_us = NowMicros() - start;
  });
  ASSERT_TRUE(EventuallyTrue([&] { return parked.load(); }));
  client.UnregisterNode(7);
  caller.join();
  EXPECT_LT(failed_after_us, 500'000u) << "the call waited for the reply";
}

TEST(TcpTransportTest, BusyHintsDemuxToTheRightCalls) {
  DelayedReplies delayed;
  TcpTransport t;
  t.RegisterNode(7, MuxHandler(&delayed));
  ASSERT_TRUE(t.Call(7, 1, EchoRequest("warm"), nullptr).ok());

  // Interleave shed and served calls concurrently over the one connection:
  // every kBusy response must carry the hint its own caller requested.
  RunParallel(8, [&](int i) {
    for (int iter = 0; iter < 25; ++iter) {
      if (i % 2 == 0) {
        uint32_t want = 1000u * static_cast<uint32_t>(i + 1) +
                        static_cast<uint32_t>(iter);
        ByteWriter w;
        w.PutU32(want);
        Status st = t.Call(7, 4, w.Take(), nullptr);
        EXPECT_EQ(st.code(), StatusCode::kBusy);
        EXPECT_EQ(st.retry_after_us(), want);
      } else {
        std::string payload =
            "ok-" + std::to_string(i) + "-" + std::to_string(iter);
        std::vector<uint8_t> resp;
        Status st = t.Call(7, 1, EchoRequest(payload), &resp);
        ASSERT_TRUE(st.ok()) << st.ToString();
        ByteReader r(resp);
        EXPECT_EQ(r.GetString(), payload);
      }
    }
  });
}

TEST(TcpTransportTest, UnregisterWaitsForInflightHandlers) {
  TcpTransport t;
  std::atomic<bool> torn_down{false};
  std::atomic<int> running{0};
  t.RegisterNode(7, [&](uint16_t, ByteReader&, ByteWriter&) {
    running.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    // UnregisterNode must not return (and the handler's state must not be
    // torn down) while this handler is still executing.
    EXPECT_FALSE(torn_down.load());
    return Status::Ok();
  });
  std::thread caller(
      [&t] { (void)t.Call(7, 1, EchoRequest("inflight"), nullptr); });
  while (running.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  t.UnregisterNode(7);
  torn_down.store(true);
  caller.join();
}

// --- deferred replies ---------------------------------------------------------------

TEST(TcpTransportTest, ParkedReplyDoesNotDelayOtherCallsOnItsConnection) {
  DelayedReplies delayed;
  TcpTransport t;
  t.RegisterNode(7, MuxHandler(&delayed));
  RawV2Client client(t.LocalPort(7));
  ASSERT_TRUE(client.connected());

  // The handler returned at once, so the loop serves the echo pipelined
  // behind the slow request while the slow reply is still parked on its
  // helper thread.
  uint64_t start = NowMicros();
  client.Add(1, 3, DelayedEchoRequest(300, "slow"));
  client.Add(2, 1, EchoRequest("quick"));
  ASSERT_TRUE(client.Flush());
  RawV2Client::Response first = client.Read();
  uint64_t took_us = NowMicros() - start;
  EXPECT_EQ(first.corr, 2u);
  EXPECT_EQ(EchoOf(first), "quick");
  EXPECT_LT(took_us, 150'000u);
  RawV2Client::Response second = client.Read();
  EXPECT_EQ(second.corr, 1u);
  EXPECT_EQ(EchoOf(second), "slow");
}

TEST(TcpTransportTest, UnregisterWaitsForParkedReplyAndDropsIt) {
  std::atomic<bool> parked{false};
  std::atomic<bool> completing{false};
  std::thread completer;
  {
    TcpTransport t;
    t.RegisterNode(7, [&](uint16_t, ByteReader& req, ByteWriter&) {
      std::shared_ptr<DeferredReply> reply = DeferReply(req);
      completer = std::thread([&completing, reply] {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        // Races teardown: the connection is closed by now, so the reply is
        // dropped on the loop.
        completing.store(true);
        reply->Complete(Status::Ok());
      });
      parked.store(true);
      return Status::Ok();
    });
    std::thread caller([&t] {
      // The caller's connection dies with the node.
      EXPECT_EQ(t.Call(7, 1, EchoRequest("parked"), nullptr).code(),
                StatusCode::kUnavailable);
    });
    while (!parked.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    t.UnregisterNode(7);
    EXPECT_TRUE(completing.load())
        << "UnregisterNode returned before the parked reply completed";
    caller.join();
  }  // the transport goes away right after the dropped completion
  completer.join();
}

TEST(TcpTransportTest, DroppedDeferredReplyFailsTheCall) {
  TcpTransport t;
  t.RegisterNode(7, [](uint16_t, ByteReader& req, ByteWriter&) {
    DeferReply(req);  // taken and destroyed without Complete
    return Status::Ok();
  });
  EXPECT_EQ(t.Call(7, 1, EchoRequest("x"), nullptr).code(),
            StatusCode::kUnavailable);
}

TEST(TcpTransportTest, CallFromTheLoopThreadIsRefusedNotDeadlocked) {
  TcpTransport t;
  t.RegisterNode(8, EchoHandler());
  t.RegisterNode(7, [&t](uint16_t, ByteReader&, ByteWriter& resp) {
    // Handlers run on the loop, which alone could deliver this reply.
    Status nested = t.Call(8, 1, EchoRequest("nested"), nullptr);
    resp.PutU8(static_cast<uint8_t>(nested.code()));
    return Status::Ok();
  });
  std::vector<uint8_t> resp;
  ASSERT_TRUE(t.Call(7, 1, {}, &resp).ok());
  ByteReader r(resp);
  EXPECT_EQ(static_cast<StatusCode>(r.GetU8()),
            StatusCode::kFailedPrecondition);
}

TEST(InProcTransportTest, HandlersCannotDeferReplies) {
  InProcTransport t;
  bool deferred = true;
  t.RegisterNode(7, [&](uint16_t, ByteReader& req, ByteWriter&) {
    deferred = DeferReply(req) != nullptr;
    return Status::Ok();
  });
  ASSERT_TRUE(t.Call(7, 1, {}, nullptr).ok());
  EXPECT_FALSE(deferred);
}

}  // namespace
}  // namespace tango
