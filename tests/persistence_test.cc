// Durability across process restarts: storage nodes on the segment store
// (data_dir) reload their pages, seals and trims on construction, so "the
// shared log is the source of durability" holds even when every server goes
// down.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <thread>

#include "src/corfu/cluster.h"
#include "src/corfu/storage_node.h"
#include "src/net/inproc_transport.h"
#include "src/objects/tango_map.h"
#include "src/runtime/runtime.h"
#include "tests/test_env.h"

namespace corfu {
namespace {

using tango::StatusCode;
using tango_test::Bytes;

class PersistenceTest : public ::testing::Test {
 protected:
  PersistenceTest() {
    dir_ = std::filesystem::temp_directory_path() /
           ("tango-persist-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter_++));
    std::filesystem::create_directories(dir_);
  }
  ~PersistenceTest() override { std::filesystem::remove_all(dir_); }

  // Options for a storage node whose segment store lives under dir_.
  StorageNode::Options DurableNode() {
    StorageNode::Options options;
    options.data_dir = (dir_ / "node-data").string();
    return options;
  }

  std::filesystem::path dir_;
  static int counter_;
};

int PersistenceTest::counter_ = 0;

TEST_F(PersistenceTest, PagesSurviveRestart) {
  tango::InProcTransport transport;
  StorageNode::Options options = DurableNode();
  {
    StorageNode node(&transport, 1, options);
    ASSERT_TRUE(node.WriteLocal(0, 3, Bytes("persisted")).ok());
    ASSERT_TRUE(node.WriteLocal(0, 7, Bytes("sparse")).ok());
  }  // "crash"
  StorageNode revived(&transport, 1, options);
  auto page = revived.ReadLocal(0, 3);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(tango_test::Str(*page), "persisted");
  // Write-once still enforced after restart; tail recovered.
  EXPECT_EQ(revived.WriteLocal(0, 3, Bytes("x")).code(), StatusCode::kWritten);
  auto tail = revived.Seal(1);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(*tail, 8u);
}

TEST_F(PersistenceTest, SealSurvivesRestart) {
  tango::InProcTransport transport;
  StorageNode::Options options = DurableNode();
  {
    StorageNode node(&transport, 1, options);
    ASSERT_TRUE(node.Seal(4).ok());
  }
  StorageNode revived(&transport, 1, options);
  // A restarted node must not accept requests from fenced epochs.
  EXPECT_EQ(revived.WriteLocal(2, 0, Bytes("stale")).code(),
            StatusCode::kSealedEpoch);
  EXPECT_TRUE(revived.WriteLocal(4, 0, Bytes("current")).ok());
}

TEST_F(PersistenceTest, TrimsSurviveRestart) {
  tango::InProcTransport transport;
  StorageNode::Options options = DurableNode();
  {
    StorageNode node(&transport, 1, options);
    for (LogOffset o = 0; o < 6; ++o) {
      ASSERT_TRUE(node.WriteLocal(0, o, Bytes("v")).ok());
    }
    ASSERT_TRUE(node.TrimLocal(0, 5).ok());
    ASSERT_TRUE(node.TrimPrefixLocal(0, 3).ok());
  }
  StorageNode revived(&transport, 1, options);
  EXPECT_EQ(revived.ReadLocal(0, 0).status().code(), StatusCode::kTrimmed);
  EXPECT_EQ(revived.ReadLocal(0, 5).status().code(), StatusCode::kTrimmed);
  EXPECT_TRUE(revived.ReadLocal(0, 3).ok());
  EXPECT_TRUE(revived.ReadLocal(0, 4).ok());
}

TEST_F(PersistenceTest, SegmentStoreNodeSurvivesRestart) {
  tango::InProcTransport transport;
  StorageNode::Options options = DurableNode();
  options.fsync_batch = 1;
  {
    StorageNode node(&transport, 1, options);
    ASSERT_TRUE(node.WriteLocal(0, 3, Bytes("durable")).ok());
    ASSERT_TRUE(node.Seal(2).ok());
  }
  StorageNode revived(&transport, 1, options);
  EXPECT_EQ(tango_test::Str(*revived.ReadLocal(2, 3)), "durable");
  EXPECT_EQ(revived.WriteLocal(1, 0, Bytes("stale")).code(),
            StatusCode::kSealedEpoch);
  EXPECT_EQ(revived.WriteLocal(2, 3, Bytes("x")).code(), StatusCode::kWritten);
}

TEST_F(PersistenceTest, WholeClusterRestartPreservesObjectsOnSegmentStore) {
  // End to end on the durable engine: build objects, restart every storage
  // node, rebuild views from the recovered segment files.
  corfu::CorfuCluster::Options options;
  options.num_storage_nodes = 4;
  options.replication_factor = 2;
  options.data_dir = dir_.string();
  {
    tango::InProcTransport transport;
    corfu::CorfuCluster cluster(&transport, options);
    auto client = cluster.MakeClient();
    tango::TangoRuntime runtime(client.get());
    tango::TangoMap map(&runtime, 1);
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(
          map.Put("k" + std::to_string(i), "v" + std::to_string(i)).ok());
    }
  }  // full cluster shutdown

  {
    tango::InProcTransport transport2;
    corfu::CorfuCluster cluster(&transport2, options);
    auto client = cluster.MakeClient();
    ASSERT_TRUE(Reconfigure(client.get(), [](Projection&) {}).ok());
    tango::TangoRuntime runtime(client.get());
    tango::TangoMap map(&runtime, 1);
    auto size = map.Size();
    ASSERT_TRUE(size.ok());
    EXPECT_EQ(*size, 12u);
    auto value = map.Get("k7");
    ASSERT_TRUE(value.ok());
    EXPECT_EQ(*value, "v7");
    ASSERT_TRUE(map.Put("k12", "v12").ok());
  }  // second full shutdown

  // Second restart: the fresh projection store is back at epoch 0 while the
  // segment files carry the previous cycle's seal.  Reconfigure must
  // discover the durably sealed epoch and fence above it (regression: the
  // seal round used to fail with kSealedEpoch here).
  tango::InProcTransport transport3;
  corfu::CorfuCluster cluster(&transport3, options);
  auto client = cluster.MakeClient();
  ASSERT_TRUE(Reconfigure(client.get(), [](Projection&) {}).ok());
  EXPECT_GE(client->projection().epoch, 2u);
  tango::TangoRuntime runtime(client.get());
  tango::TangoMap map(&runtime, 1);
  auto size = map.Size();
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 13u);
  auto value = map.Get("k12");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, "v12");
}

// Cluster shape shared by the kill -9 storm child and the recovery check.
corfu::CorfuCluster::Options CrashClusterOptions(const std::string& dir) {
  corfu::CorfuCluster::Options options;
  options.num_storage_nodes = 2;
  options.replication_factor = 2;
  options.data_dir = dir;
  options.storage.fsync_batch = 8;
  options.storage.flush_interval_ms = 2;
  return options;
}

// Child body for KillNineClusterLosesNoAcknowledgedAppend: build a durable
// cluster on TANGO_CRASH_CHILD_DIR and stream (offset, id) ack pairs to
// stdout until SIGKILLed.  Runs from a global initializer — before gtest —
// so the re-exec'd child never enters the test runner.
int CrashChildMain() {
  const char* dir = ::getenv("TANGO_CRASH_CHILD_DIR");
  if (dir == nullptr) {
    return 0;  // normal test run
  }
  tango::InProcTransport transport;
  corfu::CorfuCluster cluster(&transport, CrashClusterOptions(dir));
  auto client = cluster.MakeClient();
  for (uint64_t i = 0; i < 20000; ++i) {
    auto payload = Bytes("crash-entry-" + std::to_string(i));
    auto offset = client->Append(payload);
    if (!offset.ok()) {
      ::_exit(3);
    }
    // Ack only AFTER the append returned: (global offset, payload id).
    uint64_t msg[2] = {*offset, i};
    if (::write(STDOUT_FILENO, msg, sizeof(msg)) !=
        static_cast<ssize_t>(sizeof(msg))) {
      ::_exit(4);
    }
  }
  ::_exit(0);
}

const int kRunCrashChild = CrashChildMain();

TEST_F(PersistenceTest, KillNineClusterLosesNoAcknowledgedAppend) {
  // A storage daemon dies mid-storm (SIGKILL — no destructors, no flush);
  // on restart, every append the client saw acknowledged must be readable.
  // The storming cluster runs in a re-exec'd child (CrashChildMain above),
  // not a bare fork: earlier tests leave the process-wide shared executor's
  // threads running, and spawning threads in the fork child of a
  // multi-threaded parent is undefined enough that TSan outright refuses it.
  // exec resets the child to a single thread.
  int pipefd[2];
  ASSERT_EQ(::pipe(pipefd), 0);
  pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::close(pipefd[0]);
    if (::dup2(pipefd[1], STDOUT_FILENO) < 0) {
      ::_exit(5);
    }
    ::setenv("TANGO_CRASH_CHILD_DIR", dir_.string().c_str(), 1);
    char exe[4096];
    ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    if (n <= 0) {
      ::_exit(5);
    }
    exe[n] = '\0';
    ::execl(exe, exe, static_cast<char*>(nullptr));
    ::_exit(6);
  }

  ::close(pipefd[1]);
  std::map<uint64_t, uint64_t> acked;  // global offset -> payload id
  uint64_t msg[2];
  // Let a healthy batch of acks land, then SIGKILL mid-storm.  Each 16-byte
  // ack is written atomically (well under PIPE_BUF), so reads never split a
  // record.
  while (acked.size() < 64) {
    if (::read(pipefd[0], msg, sizeof(msg)) !=
        static_cast<ssize_t>(sizeof(msg))) {
      break;  // child exited before the storm finished
    }
    acked[msg[0]] = msg[1];
  }
  ::kill(child, SIGKILL);
  // Acks already sitting in the pipe buffer were acknowledged before the
  // kill landed — they count, so drain to EOF.
  while (::read(pipefd[0], msg, sizeof(msg)) ==
         static_cast<ssize_t>(sizeof(msg))) {
    acked[msg[0]] = msg[1];
  }
  int status = 0;
  ::waitpid(child, &status, 0);
  ::close(pipefd[0]);
  ASSERT_FALSE(acked.empty()) << "child died before acking anything";

  // Restart the cluster on the same segment directories and recover.
  tango::InProcTransport transport;
  corfu::CorfuCluster cluster(&transport, CrashClusterOptions(dir_.string()));
  auto client = cluster.MakeClient();
  ASSERT_TRUE(Reconfigure(client.get(), [](Projection&) {}).ok());
  for (const auto& [offset, id] : acked) {
    auto entry = client->Read(offset);
    ASSERT_TRUE(entry.ok()) << "ACKED APPEND LOST at global offset " << offset;
    EXPECT_EQ(tango_test::Str(entry->payload),
              "crash-entry-" + std::to_string(id))
        << "wrong bytes at offset " << offset;
  }
}

}  // namespace
}  // namespace corfu
