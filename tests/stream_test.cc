#include <gtest/gtest.h>

#include <map>

#include "src/corfu/stream.h"
#include "src/util/random.h"
#include "src/util/threading.h"
#include "tests/test_env.h"

namespace corfu {
namespace {

using tango::StatusCode;
using tango_test::Bytes;
using tango_test::ClusterFixture;
using tango_test::Str;

class StreamTest : public ClusterFixture {
 protected:
  StreamTest() : client_(MakeClient()), store_(client_.get()) {}

  // Drains everything currently in `stream` (after a sync) into a vector.
  std::vector<std::string> Drain(StreamStore& store, StreamId stream) {
    EXPECT_TRUE(store.Sync(stream).ok());
    std::vector<std::string> out;
    while (true) {
      auto entry = store.ReadNext(stream);
      if (!entry.ok()) {
        EXPECT_EQ(entry.status().code(), StatusCode::kUnwritten);
        break;
      }
      out.push_back(Str(entry->entry->payload));
    }
    return out;
  }

  std::unique_ptr<CorfuClient> client_;
  StreamStore store_;
};

TEST_F(StreamTest, AppendAndReadBack) {
  store_.Open(1);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(store_.Append(1, Bytes("m" + std::to_string(i))).ok());
  }
  EXPECT_EQ(Drain(store_, 1),
            (std::vector<std::string>{"m0", "m1", "m2", "m3", "m4"}));
}

TEST_F(StreamTest, ReadNextBeforeSyncSeesNothing) {
  store_.Open(1);
  ASSERT_TRUE(store_.Append(1, Bytes("x")).ok());
  EXPECT_EQ(store_.ReadNext(1).status().code(), StatusCode::kUnwritten);
}

TEST_F(StreamTest, StreamsAreIsolated) {
  store_.Open(1);
  store_.Open(2);
  ASSERT_TRUE(store_.Append(1, Bytes("a1")).ok());
  ASSERT_TRUE(store_.Append(2, Bytes("b1")).ok());
  ASSERT_TRUE(store_.Append(1, Bytes("a2")).ok());
  EXPECT_EQ(Drain(store_, 1), (std::vector<std::string>{"a1", "a2"}));
  EXPECT_EQ(Drain(store_, 2), (std::vector<std::string>{"b1"}));
}

TEST_F(StreamTest, SelectiveConsumptionSkipsOtherStreams) {
  // The whole point of streams: a reader of stream 1 does not fetch the bulk
  // of the log occupied by stream 2 (§4).
  store_.Open(1);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(store_.Append(1, Bytes("mine")).ok());
  }
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(store_.Append(2, Bytes("other")).ok());
  }
  uint64_t calls_before = transport_.call_count();
  EXPECT_EQ(Drain(store_, 1).size(), 3u);
  uint64_t calls = transport_.call_count() - calls_before;
  // 3 entries: ~1 tail query + ~3 reads (plus epoch slack); far below 100.
  EXPECT_LT(calls, 20u);
}

TEST_F(StreamTest, MultiAppendVisibleInAllStreams) {
  store_.Open(1);
  store_.Open(2);
  ASSERT_TRUE(store_.MultiAppend(Bytes("both"), {1, 2}).ok());
  auto in1 = Drain(store_, 1);
  auto in2 = Drain(store_, 2);
  EXPECT_EQ(in1, (std::vector<std::string>{"both"}));
  EXPECT_EQ(in2, (std::vector<std::string>{"both"}));
  // Single position in the global ordering: one log entry total.
  auto tail = client_->CheckTail();
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(*tail, 1u);
}

TEST_F(StreamTest, MultiAppendCachedOnce) {
  store_.Open(1);
  store_.Open(2);
  ASSERT_TRUE(store_.MultiAppend(Bytes("both"), {1, 2}).ok());
  ASSERT_TRUE(store_.Sync(1).ok());
  ASSERT_TRUE(store_.Sync(2).ok());
  auto a = store_.ReadNext(1);
  auto b = store_.ReadNext(2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->entry.get(), b->entry.get());  // same cached decode
}

TEST_F(StreamTest, ColdReaderReconstructsFromBackpointers) {
  // A fresh client (restart) rebuilds the linked list by striding backward.
  store_.Open(1);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(store_.Append(1, Bytes("e" + std::to_string(i))).ok());
  }
  auto cold_client = MakeClient();
  StreamStore cold(cold_client.get());
  cold.Open(1);
  auto drained = Drain(cold, 1);
  ASSERT_EQ(drained.size(), 30u);
  EXPECT_EQ(drained.front(), "e0");
  EXPECT_EQ(drained.back(), "e29");
}

TEST_F(StreamTest, ReconstructionCostScalesWithK) {
  // §5: building the list takes ~N/K reads.  With K=4 and N=40 interleaved
  // entries, a cold reader should fetch far fewer than N entries... of its
  // own stream it reads N/K "stride" entries plus the tail chain.
  store_.Open(1);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(store_.Append(1, Bytes("x")).ok());
  }
  auto cold_client = MakeClient();
  StreamStore cold(cold_client.get());
  cold.Open(1);
  ASSERT_TRUE(cold.Sync(1).ok());
  // 40 entries / K=4 = 10 stride reads (+1 slack for the frontier).
  EXPECT_LE(cold.reconstruction_reads(), 12u);
  EXPECT_GE(cold.reconstruction_reads(), 10u);
}

TEST_F(StreamTest, IncrementalSyncOnlyFetchesNewEntries) {
  store_.Open(1);
  ASSERT_TRUE(store_.Append(1, Bytes("a")).ok());
  EXPECT_EQ(Drain(store_, 1).size(), 1u);
  ASSERT_TRUE(store_.Append(1, Bytes("b")).ok());
  EXPECT_EQ(Drain(store_, 1), (std::vector<std::string>{"b"}));
}

TEST_F(StreamTest, JunkEntriesSkipped) {
  store_.Open(1);
  ASSERT_TRUE(store_.Append(1, Bytes("before")).ok());
  // Burn an offset granted to stream 1 (simulated crash), then fill it.
  auto grant =
      SequencerNext(&transport_, client_->projection().sequencer,
                    client_->projection().epoch, 1, {1});
  ASSERT_TRUE(grant.ok());
  ASSERT_TRUE(client_->Fill(grant->start).ok());
  ASSERT_TRUE(store_.Append(1, Bytes("after")).ok());
  EXPECT_EQ(Drain(store_, 1), (std::vector<std::string>{"before", "after"}));
}

TEST_F(StreamTest, HoleRepairDuringPlayback) {
  store_.Open(1);
  ASSERT_TRUE(store_.Append(1, Bytes("a")).ok());
  // Leave a hole in the middle of the stream (crashed writer), unfilled.
  auto grant =
      SequencerNext(&transport_, client_->projection().sequencer,
                    client_->projection().epoch, 1, {1});
  ASSERT_TRUE(grant.ok());
  ASSERT_TRUE(store_.Append(1, Bytes("b")).ok());
  // Playback repairs the hole (5 ms timeout) and continues.
  EXPECT_EQ(Drain(store_, 1), (std::vector<std::string>{"a", "b"}));
  auto filled = client_->Read(grant->start);
  ASSERT_TRUE(filled.ok());
  EXPECT_TRUE(filled->is_junk());
}

TEST_F(StreamTest, PooledOwnTokenIsFilledAfterOneHoleTimeout) {
  // The pipeline asks for two tokens for one append and pools the second,
  // unwritten, until its next submission.  That offset is in the stream and
  // is this client's, so playback waits on it, then fills it: one hole
  // timeout in all, not one on the completion wait and another in
  // ReadRepair.
  CorfuClient::Options options;
  options.hole_timeout_ms = 300;
  options.pipeline.grant_batch = 2;
  auto client = cluster_->MakeClient(options);
  ASSERT_TRUE(client->AppendAsync(Bytes("a"), {1}).Wait().ok());
  const uint64_t fills_before = tango_test::CounterValue("log.fills");
  const uint64_t timeouts_before =
      tango_test::CounterValue("log.hole_timeouts");

  StreamStore store(client.get());
  store.Open(1);
  const uint64_t start_us = tango::NowMicros();
  EXPECT_EQ(Drain(store, 1), (std::vector<std::string>{"a"}));
  const uint64_t elapsed_us = tango::NowMicros() - start_us;
  EXPECT_GE(elapsed_us, 300'000u);
  EXPECT_LT(elapsed_us, 450'000u) << "the hole timeout was waited twice";
  EXPECT_EQ(tango_test::CounterValue("log.fills") - fills_before, 1u);
  EXPECT_EQ(tango_test::CounterValue("log.hole_timeouts") - timeouts_before,
            1u);
}

TEST_F(StreamTest, ColdReaderFallsBackAcrossJunk) {
  // If a stream's most recent K grants all became junk, the backpointer
  // chain dead-ends and the reader must scan backward (§5).
  store_.Open(1);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(store_.Append(1, Bytes("real" + std::to_string(i))).ok());
  }
  // Burn K=4 consecutive grants so every live backpointer path dies.
  for (int i = 0; i < 4; ++i) {
    auto grant =
        SequencerNext(&transport_, client_->projection().sequencer,
                      client_->projection().epoch, 1, {1});
    ASSERT_TRUE(grant.ok());
    ASSERT_TRUE(client_->Fill(grant->start).ok());
  }
  auto cold_client = MakeClient();
  StreamStore cold(cold_client.get());
  cold.Open(1);
  auto drained = Drain(cold, 1);
  ASSERT_EQ(drained.size(), 6u);
  EXPECT_EQ(drained.front(), "real0");
  EXPECT_EQ(drained.back(), "real5");
}

TEST_F(StreamTest, CursorHelpers) {
  store_.Open(1);
  ASSERT_TRUE(store_.Append(1, Bytes("a")).ok());
  ASSERT_TRUE(store_.Append(1, Bytes("b")).ok());
  ASSERT_TRUE(store_.Sync(1).ok());

  EXPECT_EQ(store_.NextOffset(1), 0u);
  auto peeked = store_.PeekNext(1);
  ASSERT_TRUE(peeked.ok());
  EXPECT_EQ(Str(peeked->entry->payload), "a");
  EXPECT_EQ(store_.NextOffset(1), 0u);  // peek does not advance

  store_.AdvanceCursor(1);
  EXPECT_EQ(store_.NextOffset(1), 1u);

  store_.ResetCursor(1);
  EXPECT_EQ(store_.NextOffset(1), 0u);

  store_.SeekCursorAfter(1, 0);
  EXPECT_EQ(store_.NextOffset(1), 1u);

  EXPECT_EQ(store_.KnownOffsets(1), (std::vector<LogOffset>{0, 1}));
}

TEST_F(StreamTest, SyncAllCoversManyStreams) {
  std::vector<StreamId> streams{1, 2, 3, 4};
  for (StreamId s : streams) {
    store_.Open(s);
    ASSERT_TRUE(store_.Append(s, Bytes("s" + std::to_string(s))).ok());
  }
  auto tail = store_.SyncAll(streams);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(*tail, 4u);
  for (StreamId s : streams) {
    auto entry = store_.ReadNext(s);
    ASSERT_TRUE(entry.ok());
    EXPECT_EQ(Str(entry->entry->payload), "s" + std::to_string(s));
  }
}

TEST_F(StreamTest, FoldIsMonotoneUnderReorderedAnswers) {
  // Two concurrent barriers may fold their answers in either order; the
  // older one must neither shrink the synced tail nor rediscover offsets.
  store_.Open(1);
  ASSERT_TRUE(store_.Append(1, Bytes("a")).ok());
  auto older = client_->StreamTails({1});
  ASSERT_TRUE(older.ok());
  ASSERT_TRUE(store_.Append(1, Bytes("b")).ok());
  auto newer = client_->StreamTails({1});
  ASSERT_TRUE(newer.ok());
  ASSERT_LT(older->tail, newer->tail);

  ASSERT_TRUE(store_.Fold({1}, *newer).ok());
  ASSERT_TRUE(store_.Fold({1}, *older).ok());
  EXPECT_EQ(store_.SyncedTail(1), newer->tail);
  EXPECT_EQ(store_.KnownOffsets(1), (std::vector<LogOffset>{0, 1}));
}

TEST_F(StreamTest, AbsoluteBackpointerFormatOverLiveStream) {
  // §5: when a stream's previous entry is more than 64K offsets back, the
  // 2-byte relative deltas overflow and the header switches to the absolute
  // format with K/4 pointers.  Build that gap for real: two stream-1 entries
  // separated by >64K entries of another stream, then cold-reconstruct.
  store_.Open(1);
  ASSERT_TRUE(store_.Append(1, Bytes("early")).ok());
  std::vector<uint8_t> filler{0};
  for (int i = 0; i < 66000; ++i) {
    ASSERT_TRUE(client_->AppendToStreams(filler, {2}).ok());
  }
  ASSERT_TRUE(store_.Append(1, Bytes("late")).ok());

  // The late entry's stream-1 header must be in the absolute format (one
  // pointer, since K=4 relative == 1 absolute by space budget).
  auto late = client_->Read(66001);
  ASSERT_TRUE(late.ok());
  const StreamHeader* header = late->FindHeader(1);
  ASSERT_NE(header, nullptr);
  ASSERT_EQ(header->backpointers.size(), 1u);
  EXPECT_EQ(header->backpointers[0], 0u);

  // A cold reader strides across the 64K gap through the absolute pointer.
  auto cold_client = MakeClient();
  StreamStore cold(cold_client.get());
  cold.Open(1);
  ASSERT_TRUE(cold.Sync(1).ok());
  EXPECT_LT(cold.reconstruction_reads(), 10u);  // no fallback scan needed
  auto first = cold.ReadNext(1);
  auto second = cold.ReadNext(1);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(Str(first->entry->payload), "early");
  EXPECT_EQ(Str(second->entry->payload), "late");
}

TEST_F(StreamTest, EntryCacheIsLruNotFifo) {
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client_->Append(Bytes("e" + std::to_string(i))).ok());
  }
  StreamStore::Options opt;
  opt.cache_capacity = 2;
  opt.readahead = 0;
  StreamStore lru(client_.get(), opt);

  ASSERT_TRUE(lru.FetchEntry(0).ok());  // miss
  ASSERT_TRUE(lru.FetchEntry(1).ok());  // miss
  ASSERT_TRUE(lru.FetchEntry(0).ok());  // hit: promotes 0 over 1
  ASSERT_TRUE(lru.FetchEntry(2).ok());  // miss: evicts 1 (FIFO would evict 0)
  ASSERT_TRUE(lru.FetchEntry(0).ok());  // hit under LRU, miss under FIFO
  EXPECT_EQ(lru.cache_hits(), 2u);
  EXPECT_EQ(lru.cache_misses(), 3u);
  ASSERT_TRUE(lru.FetchEntry(1).ok());  // evicted above: miss again
  EXPECT_EQ(lru.cache_misses(), 4u);
}

TEST_F(StreamTest, ReadAheadBatchesPlaybackRoundTrips) {
  store_.Open(1);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(store_.Append(1, Bytes("x" + std::to_string(i))).ok());
  }
  StreamStore::Options opt;
  opt.readahead = 16;
  StreamStore pf(client_.get(), opt);
  pf.Open(1);
  ASSERT_TRUE(pf.Sync(1).ok());

  // Cold replay: 30 entries over 3 replica sets with readahead 16 is two
  // prefetch batches of three sub-RPCs each — not 30 round trips.
  pf.ClearEntryCache();
  pf.ResetCursor(1);
  uint64_t calls_before = transport_.call_count();
  uint64_t batches_before = pf.prefetch_batches();
  for (int i = 0; i < 30; ++i) {
    auto entry = pf.ReadNext(1);
    ASSERT_TRUE(entry.ok());
    EXPECT_EQ(Str(entry->entry->payload), "x" + std::to_string(i));
  }
  EXPECT_LE(transport_.call_count() - calls_before, 8u);
  EXPECT_EQ(pf.prefetch_batches() - batches_before, 2u);
  EXPECT_GE(pf.cache_hits(), 28u);
}

TEST_F(StreamTest, ReadAheadSkipsHoleAndDemandReadRepairsIt) {
  // A hole inside the prefetch window: the batch reports kUnwritten for the
  // slot (never fills it), and only the demand read waits out the straggler
  // and repairs.
  store_.Open(1);
  ASSERT_TRUE(store_.Append(1, Bytes("a")).ok());
  auto grant = SequencerNext(&transport_, client_->projection().sequencer,
                             client_->projection().epoch, 1, {1});
  ASSERT_TRUE(grant.ok());
  ASSERT_TRUE(store_.Append(1, Bytes("b")).ok());

  auto cold_client = MakeClient();
  StreamStore::Options opt;
  opt.readahead = 8;
  StreamStore cold(cold_client.get(), opt);
  cold.Open(1);
  ASSERT_TRUE(cold.Sync(1).ok());
  std::vector<std::string> got;
  while (true) {
    auto entry = cold.ReadNext(1);
    if (!entry.ok()) {
      EXPECT_EQ(entry.status().code(), StatusCode::kUnwritten);
      break;
    }
    got.push_back(Str(entry->entry->payload));
  }
  EXPECT_EQ(got, (std::vector<std::string>{"a", "b"}));
  auto filled = cold_client->Read(grant->start);
  ASSERT_TRUE(filled.ok());
  EXPECT_TRUE(filled->is_junk());
}

// Property test: random interleavings of appends across streams always
// replay per-stream in order, matching a sequential oracle.
class StreamInterleavingTest : public ClusterFixture,
                               public ::testing::WithParamInterface<uint64_t> {
};

TEST_P(StreamInterleavingTest, MatchesOracle) {
  auto client = MakeClient();
  StreamStore store(client.get());
  constexpr int kStreams = 5;
  std::map<StreamId, std::vector<std::string>> oracle;
  tango::Rng rng(GetParam());
  for (StreamId s = 1; s <= kStreams; ++s) {
    store.Open(s);
  }
  for (int i = 0; i < 120; ++i) {
    StreamId s = 1 + static_cast<StreamId>(rng.NextBelow(kStreams));
    std::string payload = std::to_string(s) + "#" + std::to_string(i);
    if (rng.NextBool(0.2)) {
      // Occasionally multiappend to a pair of streams.
      StreamId s2 = 1 + static_cast<StreamId>(rng.NextBelow(kStreams));
      ASSERT_TRUE(store.MultiAppend(Bytes(payload), {s, s2}).ok());
      oracle[s].push_back(payload);
      if (s2 != s) {
        oracle[s2].push_back(payload);
      }
    } else {
      ASSERT_TRUE(store.Append(s, Bytes(payload)).ok());
      oracle[s].push_back(payload);
    }
  }
  for (StreamId s = 1; s <= kStreams; ++s) {
    ASSERT_TRUE(store.Sync(s).ok());
    std::vector<std::string> got;
    while (true) {
      auto entry = store.ReadNext(s);
      if (!entry.ok()) {
        break;
      }
      got.push_back(Str(entry->entry->payload));
    }
    EXPECT_EQ(got, oracle[s]) << "stream " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamInterleavingTest,
                         ::testing::Values(1, 2, 3, 42, 99));

}  // namespace
}  // namespace corfu
