#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "src/objects/tango_list.h"
#include "src/objects/tango_map.h"
#include "src/objects/tango_register.h"
#include "src/runtime/runtime.h"
#include "tests/test_env.h"

namespace tango {
namespace {

using tango_test::Bytes;
using tango_test::ClusterFixture;

class TxnTest : public ClusterFixture {
 protected:
  TxnTest()
      : client_a_(MakeClient()),
        client_b_(MakeClient()),
        rt_a_(client_a_.get()),
        rt_b_(client_b_.get()) {}

  std::unique_ptr<corfu::CorfuClient> client_a_;
  std::unique_ptr<corfu::CorfuClient> client_b_;
  TangoRuntime rt_a_;
  TangoRuntime rt_b_;
};

TEST_F(TxnTest, SingleObjectCommit) {
  TangoMap map(&rt_a_, 1);
  ASSERT_TRUE(rt_a_.BeginTx().ok());
  ASSERT_TRUE(map.Put("k", "v").ok());
  EXPECT_TRUE(rt_a_.EndTx().ok());
  auto value = map.Get("k");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, "v");
}

TEST_F(TxnTest, BufferedWritesInvisibleUntilCommit) {
  TangoMap map_a(&rt_a_, 1);
  TangoMap map_b(&rt_b_, 1);
  ASSERT_TRUE(rt_a_.BeginTx().ok());
  ASSERT_TRUE(map_a.Put("k", "v").ok());
  // Not yet in the log: another client can't see it.
  EXPECT_EQ(map_b.Get("k").status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(rt_a_.EndTx().ok());
  EXPECT_TRUE(map_b.Get("k").ok());
}

TEST_F(TxnTest, AbortTxDiscards) {
  TangoMap map(&rt_a_, 1);
  ASSERT_TRUE(rt_a_.BeginTx().ok());
  ASSERT_TRUE(map.Put("k", "v").ok());
  rt_a_.AbortTx();
  EXPECT_FALSE(rt_a_.InTx());
  EXPECT_EQ(map.Get("k").status().code(), StatusCode::kNotFound);
}

TEST_F(TxnTest, NestedBeginRejected) {
  ASSERT_TRUE(rt_a_.BeginTx().ok());
  EXPECT_EQ(rt_a_.BeginTx().code(), StatusCode::kFailedPrecondition);
  rt_a_.AbortTx();
}

TEST_F(TxnTest, EndWithoutBeginRejected) {
  EXPECT_EQ(rt_a_.EndTx().code(), StatusCode::kFailedPrecondition);
}

TEST_F(TxnTest, EmptyTxCommits) {
  ASSERT_TRUE(rt_a_.BeginTx().ok());
  EXPECT_TRUE(rt_a_.EndTx().ok());
}

TEST_F(TxnTest, ReadSetConflictAborts) {
  TangoRegister reg_a(&rt_a_, 1);
  TangoRegister reg_b(&rt_b_, 1);
  ASSERT_TRUE(reg_a.Write(1).ok());
  ASSERT_TRUE(reg_a.Read().ok());

  ASSERT_TRUE(rt_a_.BeginTx().ok());
  ASSERT_TRUE(reg_a.Read().ok());  // read at version X
  // Concurrent writer bumps the register inside the conflict window.
  ASSERT_TRUE(reg_b.Write(99).ok());
  ASSERT_TRUE(reg_a.Write(2).ok());  // buffered
  EXPECT_EQ(rt_a_.EndTx().code(), StatusCode::kAborted);

  // The aborted write is not applied anywhere.
  auto value = reg_b.Read();
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 99);
}

TEST_F(TxnTest, NoConflictNoAbort) {
  TangoRegister reg(&rt_a_, 1);
  ASSERT_TRUE(reg.Write(1).ok());
  ASSERT_TRUE(reg.Read().ok());  // sync the view before transacting
  ASSERT_TRUE(rt_a_.BeginTx().ok());
  ASSERT_TRUE(reg.Read().ok());
  ASSERT_TRUE(reg.Write(2).ok());
  EXPECT_TRUE(rt_a_.EndTx().ok());
}

TEST_F(TxnTest, FineGrainedKeysDontConflict) {
  // §3.2 Versioning: transactions touching disjoint keys commute.
  TangoMap map_a(&rt_a_, 1);
  TangoMap map_b(&rt_b_, 1);
  ASSERT_TRUE(map_a.Put("x", "0").ok());
  ASSERT_TRUE(map_a.Put("y", "0").ok());
  ASSERT_TRUE(map_a.Get("x").ok());  // sync the view before transacting

  ASSERT_TRUE(rt_a_.BeginTx().ok());
  ASSERT_TRUE(map_a.Get("x").ok());          // read x
  ASSERT_TRUE(map_b.Put("y", "other").ok()); // concurrent write to y
  ASSERT_TRUE(map_a.Put("x", "1").ok());
  EXPECT_TRUE(rt_a_.EndTx().ok());           // y-write does not abort us
}

TEST_F(TxnTest, SameKeyConflicts) {
  TangoMap map_a(&rt_a_, 1);
  TangoMap map_b(&rt_b_, 1);
  ASSERT_TRUE(map_a.Put("x", "0").ok());
  ASSERT_TRUE(map_a.Get("x").ok());  // sync the view before transacting

  ASSERT_TRUE(rt_a_.BeginTx().ok());
  ASSERT_TRUE(map_a.Get("x").ok());
  ASSERT_TRUE(map_b.Put("x", "race").ok());
  ASSERT_TRUE(map_a.Put("x", "1").ok());
  EXPECT_EQ(rt_a_.EndTx().code(), StatusCode::kAborted);
}

TEST_F(TxnTest, KeylessWriteInvalidatesKeyedReads) {
  // A whole-object write must conflict with per-key reads.
  TangoMap map_a(&rt_a_, 1);
  ASSERT_TRUE(map_a.Put("x", "0").ok());
  ASSERT_TRUE(map_a.Get("x").ok());  // sync the view before transacting
  ASSERT_TRUE(rt_a_.BeginTx().ok());
  ASSERT_TRUE(map_a.Get("x").ok());
  // Keyless write through the raw runtime API (e.g. a bulk operation): a
  // TangoMap kPut record appended without a fine-grained version key.
  ByteWriter raw_put;
  raw_put.PutU8(1);  // TangoMap::kPut
  raw_put.PutString("x");
  raw_put.PutString("z");
  ASSERT_TRUE(rt_b_.UpdateHelper(1, raw_put.bytes()).ok());
  ASSERT_TRUE(map_a.Put("x", "1").ok());
  EXPECT_EQ(rt_a_.EndTx().code(), StatusCode::kAborted);
}

TEST_F(TxnTest, CrossObjectAtomicity) {
  // Figure 4's pattern: read a map, conditionally update a list.
  TangoMap owners_a(&rt_a_, 1);
  TangoList list_a(&rt_a_, 2);
  TangoMap owners_b(&rt_b_, 1);
  TangoList list_b(&rt_b_, 2);

  ASSERT_TRUE(owners_a.Put("ledger-1", "me").ok());
  ASSERT_TRUE(owners_a.Get("ledger-1").ok());  // sync before transacting

  ASSERT_TRUE(rt_a_.BeginTx().ok());
  auto owner = owners_a.Get("ledger-1");
  ASSERT_TRUE(owner.ok());
  ASSERT_EQ(*owner, "me");
  ASSERT_TRUE(list_a.Add("item").ok());
  ASSERT_TRUE(rt_a_.EndTx().ok());

  // Both effects visible atomically at the other client.
  auto all = list_b.All();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 1u);
}

TEST_F(TxnTest, CrossObjectConflictDetected) {
  TangoMap map1_a(&rt_a_, 1);
  TangoMap map2_a(&rt_a_, 2);
  TangoMap map1_b(&rt_b_, 1);
  ASSERT_TRUE(map1_a.Put("k", "0").ok());
  ASSERT_TRUE(map1_a.Get("k").ok());  // sync before transacting

  ASSERT_TRUE(rt_a_.BeginTx().ok());
  ASSERT_TRUE(map1_a.Get("k").ok());
  ASSERT_TRUE(map1_b.Put("k", "race").ok());
  ASSERT_TRUE(map2_a.Put("out", "1").ok());
  EXPECT_EQ(rt_a_.EndTx().code(), StatusCode::kAborted);
  EXPECT_EQ(map2_a.Get("out").status().code(), StatusCode::kNotFound);
}

TEST_F(TxnTest, ReadOnlyTxCommitsWithoutAppending) {
  TangoRegister reg(&rt_a_, 1);
  ASSERT_TRUE(reg.Write(5).ok());
  ASSERT_TRUE(reg.Read().ok());
  auto tail_before = client_a_->CheckTail();
  ASSERT_TRUE(tail_before.ok());

  ASSERT_TRUE(rt_a_.BeginTx().ok());
  ASSERT_TRUE(reg.Read().ok());
  EXPECT_TRUE(rt_a_.EndTx().ok());

  auto tail_after = client_a_->CheckTail();
  ASSERT_TRUE(tail_after.ok());
  EXPECT_EQ(*tail_before, *tail_after);  // no commit record in the log
}

TEST_F(TxnTest, ReadOnlyTxAbortsOnConflict) {
  TangoRegister reg_a(&rt_a_, 1);
  TangoRegister reg_b(&rt_b_, 1);
  ASSERT_TRUE(reg_a.Write(1).ok());
  ASSERT_TRUE(reg_a.Read().ok());  // sync before transacting
  ASSERT_TRUE(rt_a_.BeginTx().ok());
  ASSERT_TRUE(reg_a.Read().ok());
  ASSERT_TRUE(reg_b.Write(2).ok());
  EXPECT_EQ(rt_a_.EndTx().code(), StatusCode::kAborted);
}

TEST_F(TxnTest, StaleSnapshotTx) {
  // §3.2: fast read-only transactions from stale snapshots decide locally.
  TangoRegister reg_a(&rt_a_, 1);
  TangoRegister reg_b(&rt_b_, 1);
  ASSERT_TRUE(reg_a.Write(1).ok());
  ASSERT_TRUE(reg_a.Read().ok());

  ASSERT_TRUE(rt_a_.BeginTx().ok());
  ASSERT_TRUE(rt_a_.QueryHelper(1).ok());
  // A concurrent write happens, but the stale-snapshot commit validates
  // against the *local* view and still succeeds.
  ASSERT_TRUE(reg_b.Write(2).ok());
  EXPECT_TRUE(rt_a_.EndTxStale().ok());

  // With writes it is rejected.
  ASSERT_TRUE(rt_a_.BeginTx().ok());
  ASSERT_TRUE(reg_a.Write(3).ok());
  EXPECT_EQ(rt_a_.EndTxStale().code(), StatusCode::kInvalidArgument);
}

TEST_F(TxnTest, WriteOnlyTxCommitsImmediately) {
  TangoMap map(&rt_a_, 1);
  ASSERT_TRUE(rt_a_.BeginTx().ok());
  ASSERT_TRUE(map.Put("a", "1").ok());
  ASSERT_TRUE(map.Put("b", "2").ok());
  EXPECT_TRUE(rt_a_.EndTx().ok());
  EXPECT_TRUE(map.Get("a").ok());
  EXPECT_TRUE(map.Get("b").ok());
}

TEST_F(TxnTest, RemoteWriteTransaction) {
  // §4.1 B: a transaction can write an object it does not host; a client
  // hosting that object applies the write when it encounters the commit.
  TangoMap local(&rt_a_, 1);
  TangoMap remote_view(&rt_b_, 2);  // hosted only by B
  ASSERT_TRUE(local.Put("seed", "x").ok());
  ASSERT_TRUE(local.Get("seed").ok());  // sync before transacting

  ASSERT_TRUE(rt_a_.BeginTx().ok());
  ASSERT_TRUE(local.Get("seed").ok());
  // Raw remote write to oid 2 (a kPut record for map "moved"/"x").
  ByteWriter w;
  w.PutU8(1);  // TangoMap::kPut
  w.PutString("moved");
  w.PutString("x");
  ASSERT_TRUE(rt_a_.UpdateHelper(2, w.bytes()).ok());
  ASSERT_TRUE(rt_a_.EndTx().ok());

  auto moved = remote_view.Get("moved");
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(*moved, "x");
}

TEST_F(TxnTest, TransactionalReadOfUnhostedObjectRejected) {
  // §4.1 D: remote reads inside transactions are not supported.
  ASSERT_TRUE(rt_a_.BeginTx().ok());
  EXPECT_EQ(rt_a_.QueryHelper(77).code(), StatusCode::kInvalidArgument);
  rt_a_.AbortTx();
}

TEST_F(TxnTest, DecisionRecordsForPartitionedConsumers) {
  // Figure 6: App1 hosts A (read set) and C; App2 hosts only C.  App2 can't
  // evaluate the commit and must wait for App1's decision record.
  ObjectConfig needs_decision;
  needs_decision.needs_decision_records = true;

  TangoMap a_view(&rt_a_, 1);                      // A at App1
  TangoMap c_at_a(&rt_a_, 2, {needs_decision});    // C at App1
  TangoMap c_at_b(&rt_b_, 2, {needs_decision});    // C at App2 (no A!)

  ASSERT_TRUE(a_view.Put("key", "val").ok());
  ASSERT_TRUE(a_view.Get("key").ok());  // sync before transacting

  ASSERT_TRUE(rt_a_.BeginTx().ok());
  ASSERT_TRUE(a_view.Get("key").ok());     // read A
  ASSERT_TRUE(c_at_a.Put("c", "1").ok());  // write C
  ASSERT_TRUE(rt_a_.EndTx().ok());

  // App2 applies the write after seeing the decision record.
  auto value = c_at_b.Get("c");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, "1");
  EXPECT_GE(rt_b_.stats().decision_stalls, 1u);
}

TEST_F(TxnTest, DecisionRecordAbortPropagates) {
  ObjectConfig needs_decision;
  needs_decision.needs_decision_records = true;
  TangoMap a_view(&rt_a_, 1);
  TangoMap c_at_a(&rt_a_, 2, {needs_decision});
  TangoMap c_at_b(&rt_b_, 2, {needs_decision});
  TangoMap a_other(&rt_b_, 3);  // unrelated writer used to bump A...

  ASSERT_TRUE(a_view.Put("key", "v0").ok());
  ASSERT_TRUE(a_view.Get("key").ok());  // sync before transacting

  ASSERT_TRUE(rt_a_.BeginTx().ok());
  ASSERT_TRUE(a_view.Get("key").ok());
  // Conflict: another client writes A inside the window (remote write).
  ByteWriter w;
  w.PutU8(1);
  w.PutString("key");
  w.PutString("v1");
  ASSERT_TRUE(rt_b_.UpdateHelper(1, w.bytes(),
                                 std::hash<std::string>{}("key"))
                  .ok());
  ASSERT_TRUE(c_at_a.Put("c", "1").ok());
  EXPECT_EQ(rt_a_.EndTx().code(), StatusCode::kAborted);

  // App2 learns the abort via the decision record: write never applies.
  EXPECT_EQ(c_at_b.Get("c").status().code(), StatusCode::kNotFound);
}

// Forwards to the cluster's transport.  Once armed, fails the next sequencer
// grant with a non-retryable error, so exactly one append fails.
class FailNextAppendTransport : public Transport {
 public:
  explicit FailNextAppendTransport(Transport* inner) : inner_(inner) {}

  Status Call(NodeId dest, uint16_t method, std::span<const uint8_t> request,
              std::vector<uint8_t>* response) override {
    if (method == corfu::kSequencerNext && fail_next_append.exchange(false)) {
      return Status(StatusCode::kInternal, "injected append failure");
    }
    return inner_->Call(dest, method, request, response);
  }
  void RegisterNode(NodeId node, RpcHandler handler) override {
    inner_->RegisterNode(node, std::move(handler));
  }
  void UnregisterNode(NodeId node) override { inner_->UnregisterNode(node); }

  std::atomic<bool> fail_next_append{false};

 private:
  Transport* inner_;
};

// Linearizable queries that found nothing to play.
uint64_t AlreadyPlayed() {
  return tango_test::CounterValue("runtime.query.already_played");
}

// A commit record whose generator "crashed" before its decision record:
// reads key "key" of map 1 at `host`'s current version, writes c=orphan to
// map 2.  Nobody appends a decision for it but a read-set host's fallback.
std::vector<uint8_t> OrphanedCommit(TangoRuntime& host) {
  std::vector<WriteOp> writes(1);
  writes[0].oid = 2;
  writes[0].has_key = true;
  writes[0].key = std::hash<std::string>{}("c");
  {
    ByteWriter w;
    w.PutU8(1);  // kPut
    w.PutString("c");
    w.PutString("orphan");
    writes[0].data = w.Take();
  }
  std::vector<ReadDep> reads(1);
  reads[0].oid = 1;
  reads[0].has_key = true;
  reads[0].key = std::hash<std::string>{}("key");
  reads[0].version = host.VersionOf(1, reads[0].key);
  return EncodeRecord(MakeCommitRecord(/*txid=*/0xdead0001, writes, reads));
}

TEST_F(TxnTest, OrphanedCommitPatchedByReadSetHost) {
  // §4.1 Failure Handling: the generator "crashes" after the commit record
  // (we simulate by appending a commit record manually with no decision).
  // A client hosting the read set appends the decision after its timeout.
  ObjectConfig needs_decision;
  needs_decision.needs_decision_records = true;

  TangoRuntime::Options patched_options;
  patched_options.decision_timeout_ms = 30;
  auto patcher_client = MakeClient();
  TangoRuntime patcher(patcher_client.get(), patched_options);
  TangoMap a_at_patcher(&patcher, 1);
  TangoMap c_at_patcher(&patcher, 2, {needs_decision});

  TangoMap c_at_b(&rt_b_, 2, {needs_decision});  // waits on decisions

  ASSERT_TRUE(a_at_patcher.Put("key", "v").ok());
  ASSERT_TRUE(a_at_patcher.Get("key").ok());
  ASSERT_TRUE(
      patcher_client->AppendToStreams(OrphanedCommit(patcher), {2}).ok());

  // The patcher (hosting A and C) evaluates the commit and, after its
  // timeout, publishes the decision record on stream 2.
  ASSERT_TRUE(c_at_patcher.Get("c").ok());  // plays the commit
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  // Nothing was appended since, so the query takes the already-played path,
  // which must still run the deadline check.
  const uint64_t played_before = AlreadyPlayed();
  ASSERT_TRUE(patcher.QueryHelper(2).ok());  // deadline check runs here
  EXPECT_EQ(AlreadyPlayed() - played_before, 1u);
  EXPECT_GE(patcher.stats().decisions_appended, 1u);

  // The partitioned consumer B unblocks via the patched decision.
  auto value = c_at_b.Get("c");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, "orphan");
}

TEST_F(TxnTest, FailedFallbackDecisionIsRetried) {
  // As above, but the read-set host's first decision append fails.  The
  // decision must stay queued for the next deadline check; dropping it
  // leaves the partitioned consumer stalled for good.
  ObjectConfig needs_decision;
  needs_decision.needs_decision_records = true;

  FailNextAppendTransport faulty(&transport_);
  corfu::CorfuClient::Options client_options;
  client_options.hole_timeout_ms = 5;
  corfu::CorfuClient patcher_client(
      &faulty, cluster_->options().projection_store_node, client_options);
  TangoRuntime::Options patched_options;
  patched_options.decision_timeout_ms = 30;
  TangoRuntime patcher(&patcher_client, patched_options);
  TangoMap a_at_patcher(&patcher, 1);
  TangoMap c_at_patcher(&patcher, 2, {needs_decision});

  TangoMap c_at_b(&rt_b_, 2, {needs_decision});  // waits on decisions

  ASSERT_TRUE(a_at_patcher.Put("key", "v").ok());
  ASSERT_TRUE(a_at_patcher.Get("key").ok());
  ASSERT_TRUE(
      patcher_client.AppendToStreams(OrphanedCommit(patcher), {2}).ok());
  ASSERT_TRUE(c_at_patcher.Get("c").ok());  // plays the commit

  // First deadline: the decision append fails.  Both queries below find
  // the view already played to the tail and take the lock-free path.
  const uint64_t played_before = AlreadyPlayed();
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  faulty.fail_next_append.store(true);
  ASSERT_TRUE(patcher.QueryHelper(2).ok());
  ASSERT_FALSE(faulty.fail_next_append.load()) << "no decision append ran";
  EXPECT_EQ(patcher.stats().decisions_appended, 0u);

  // Next deadline: the retry goes out and B resolves the transaction.
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  ASSERT_TRUE(patcher.QueryHelper(2).ok());
  EXPECT_EQ(AlreadyPlayed() - played_before, 2u);
  EXPECT_EQ(patcher.stats().decisions_appended, 1u);
  auto value = c_at_b.Get("c");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, "orphan");
}

TEST_F(TxnTest, ConcurrentTransactionsSerialize) {
  // Two clients transactionally increment the same register value; every
  // increment must be serialized (no lost updates).
  TangoRegister reg_a(&rt_a_, 1);
  TangoRegister reg_b(&rt_b_, 1);
  ASSERT_TRUE(reg_a.Write(0).ok());

  auto incr = [](TangoRuntime& rt, TangoRegister& reg) {
    for (int attempt = 0; attempt < 256; ++attempt) {
      ASSERT_TRUE(rt.BeginTx().ok());
      auto value = reg.Read();  // in-tx read: records dep, no sync
      ASSERT_TRUE(value.ok());
      ASSERT_TRUE(reg.Write(*value + 1).ok());
      Status st = rt.EndTx();
      if (st.ok()) {
        return;
      }
      ASSERT_EQ(st.code(), StatusCode::kAborted);
      ASSERT_TRUE(reg.Read().ok());  // resync before retrying
    }
    FAIL() << "increment never committed";
  };

  constexpr int kPerClient = 10;
  std::thread ta([&] {
    for (int i = 0; i < kPerClient; ++i) {
      incr(rt_a_, reg_a);
    }
  });
  std::thread tb([&] {
    for (int i = 0; i < kPerClient; ++i) {
      incr(rt_b_, reg_b);
    }
  });
  ta.join();
  tb.join();

  auto final_a = reg_a.Read();
  auto final_b = reg_b.Read();
  ASSERT_TRUE(final_a.ok());
  ASSERT_TRUE(final_b.ok());
  EXPECT_EQ(*final_a, 2 * kPerClient);
  EXPECT_EQ(*final_b, 2 * kPerClient);
}

}  // namespace
}  // namespace tango
