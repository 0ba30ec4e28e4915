// StorageNode: a flash unit exposing a 64-bit write-once address space (§2.2).
//
// Each node stores fixed-size pages keyed by *local* offset (the client maps
// global log offsets onto replica sets and local offsets using the
// projection).  The write-once contract — first writer wins, second writer
// gets kWritten — is what makes client-driven chain replication and hole
// filling safe, and it is enforced here, not trusted to clients.
//
// Nodes are sealed by epoch: a Seal(e) call raises the node's epoch to e and
// makes it reject any request carrying an older epoch with kSealedEpoch,
// which is the mechanism reconfiguration uses to fence lagging clients and
// retired sequencers.
//
// The node itself is a protocol shell: wire handling, media simulation and
// metrics live here, while the write-once page state lives behind a
// storage::StorageBackend: the in-memory MemoryBackend by default, or the
// durable SegmentStoreBackend when `data_dir` is set.

#ifndef SRC_CORFU_STORAGE_NODE_H_
#define SRC_CORFU_STORAGE_NODE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "src/corfu/types.h"
#include "src/net/transport.h"
#include "src/obs/metrics.h"
#include "src/storage/backend.h"
#include "src/storage/fault_fs.h"
#include "src/util/status.h"

namespace corfu {

class StorageNode {
 public:
  struct Options {
    uint32_t page_size = 4096;
    // Simulated media latency per op (microseconds); 0 = no sleep.  Models
    // the SSD read/write cost of the paper's testbed when desired.
    uint32_t write_latency_us = 0;
    uint32_t read_latency_us = 0;
    // When true (default), simulated latency is served under a per-node
    // media lock, so a node's throughput is bounded at 1/latency IOPS —
    // modeling a single-channel device.  When false, latency only delays
    // callers (infinite parallelism).
    bool serialize_media_access = true;
    // When non-empty, the node runs on the durable SegmentStoreBackend
    // rooted at this directory and survives process restarts.
    std::string data_dir;
    // Segment-engine tuning; see storage::SegmentStoreOptions.
    uint64_t segment_bytes = 8ull << 20;
    uint32_t fsync_batch = 64;
    uint32_t flush_interval_ms = 20;
    // File abstraction for the segment engine; nullptr = real POSIX.
    // Tests inject faults here.
    corfu::storage::FileSystem* fs = nullptr;
  };

  StorageNode(tango::Transport* transport, tango::NodeId node, Options options);
  ~StorageNode();

  StorageNode(const StorageNode&) = delete;
  StorageNode& operator=(const StorageNode&) = delete;

  tango::NodeId node() const { return node_; }
  // The persistence engine under this node.
  corfu::storage::StorageBackend* backend() { return backend_.get(); }

  // Direct (non-RPC) accessors used by tests.
  tango::Status WriteLocal(Epoch epoch, LogOffset local,
                           std::vector<uint8_t> bytes);
  tango::Result<std::vector<uint8_t>> ReadLocal(Epoch epoch, LogOffset local);
  // Vectored read: serves every offset in `locals` under one epoch check and
  // one media pass.  `pages` gets one Result per offset, in order; per-offset
  // failures (kUnwritten, kTrimmed) land in the Results while the call itself
  // fails only on a stale epoch or malformed input.
  tango::Status ReadBatchLocal(
      Epoch epoch, const std::vector<LogOffset>& locals,
      std::vector<tango::Result<std::vector<uint8_t>>>* pages);
  // Seals the node at `epoch` and returns the local tail (highest written
  // local offset + 1, i.e. number of the next unwritten slot upper bound).
  tango::Result<LogOffset> Seal(Epoch epoch);
  tango::Status TrimLocal(Epoch epoch, LogOffset local);
  tango::Status TrimPrefixLocal(Epoch epoch, LogOffset local_limit);

  // Stats for GC / capacity tests.
  size_t PageCount() const;
  uint64_t trimmed_count() const;

 private:
  // WriteLocal's body.  `req`, set for a write served over RPC, lets the
  // ack defer its reply rather than wait for an fsync on the handler's
  // thread (see StorageBackend::PutOrPark).
  tango::Status Write(Epoch epoch, LogOffset local,
                      std::span<const uint8_t> bytes,
                      const tango::ByteReader* req);
  // Counts a write's outcome and returns it.
  tango::Status CountWrite(tango::Status s);

  tango::Status HandleWrite(tango::ByteReader& req, tango::ByteWriter& resp);
  tango::Status HandleRead(tango::ByteReader& req, tango::ByteWriter& resp);
  tango::Status HandleReadBatch(tango::ByteReader& req,
                                tango::ByteWriter& resp);
  tango::Status HandleSeal(tango::ByteReader& req, tango::ByteWriter& resp);
  tango::Status HandleTrim(tango::ByteReader& req, tango::ByteWriter& resp);
  tango::Status HandleTrimPrefix(tango::ByteReader& req,
                                 tango::ByteWriter& resp);
  tango::Status HandleLocalTail(tango::ByteReader& req,
                                tango::ByteWriter& resp);
  tango::Status HandleSealedEpoch(tango::ByteReader& req,
                                  tango::ByteWriter& resp);

  void SimulateMedia(uint32_t latency_us);

  tango::Transport* transport_;
  tango::NodeId node_;
  Options options_;
  std::mutex media_mu_;  // serializes simulated device access

  std::unique_ptr<corfu::storage::StorageBackend> backend_;

  // Registry instruments (shared across all storage nodes in the process).
  tango::obs::Counter* writes_ok_;
  tango::obs::Counter* writes_lost_;   // write-once conflicts (kWritten)
  tango::obs::Counter* reads_ok_;
  tango::obs::Counter* reads_unwritten_;
  tango::obs::Counter* reads_trimmed_;
  tango::obs::Counter* seals_;
  tango::obs::Counter* trims_;
  tango::obs::Histogram* batch_size_;

  tango::RpcDispatcher dispatcher_;
};

}  // namespace corfu

#endif  // SRC_CORFU_STORAGE_NODE_H_
