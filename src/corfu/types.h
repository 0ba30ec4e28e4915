// Core identifiers and protocol constants for the CORFU shared log.

#ifndef SRC_CORFU_TYPES_H_
#define SRC_CORFU_TYPES_H_

#include <cstdint>

namespace corfu {

// Global offset in the shared log's 64-bit address space.
using LogOffset = uint64_t;
inline constexpr LogOffset kInvalidOffset = ~0ULL;

// Configuration epoch.  Every RPC carries the caller's epoch; sealed servers
// reject stale epochs, forcing clients to refresh their projection.
using Epoch = uint32_t;

// Stream identifier.  31 bits are significant (the paper reserves the last
// bit of the on-wire id for the backpointer format indicator).
using StreamId = uint32_t;
inline constexpr StreamId kMaxStreamId = 0x7fffffffu;
inline constexpr StreamId kInvalidStreamId = 0xffffffffu;

// Reserved stream carrying sequencer-state checkpoints (§5 names this as
// future work: "having the sequencer store periodic checkpoints in the
// log").  Applications must not use this id.
inline constexpr StreamId kSequencerStateStream = kMaxStreamId;

// Redundancy factor for stream backpointers ("K" in the paper, default 4).
inline constexpr int kDefaultBackpointerCount = 4;

// Upper bound on offsets per kStorageReadBatch request; a backstop against
// malformed frames, far above any readahead depth clients actually use.
inline constexpr uint32_t kMaxReadBatch = 65536;

// Upper bound on tokens per kSequencerNext range grant; bounds the per-token
// backpointer payload of a single response.
inline constexpr uint32_t kMaxGrantBatch = 4096;

// RPC method ids, grouped by service.
enum RpcMethod : uint16_t {
  // StorageNode
  kStorageWrite = 0x0100,
  kStorageRead = 0x0101,
  kStorageSeal = 0x0102,
  kStorageTrim = 0x0103,
  kStorageTrimPrefix = 0x0104,
  kStorageLocalTail = 0x0105,
  // Vectored read: N local offsets in, N per-offset (status, page) out, one
  // round trip.  A stale epoch fails the whole batch with kSealedEpoch;
  // per-offset failures (unwritten, trimmed) never do.
  kStorageReadBatch = 0x0106,
  // Epoch discovery: returns the node's current sealed epoch (no epoch
  // check — this is how a reconfiguring client with a stale or reset
  // projection learns what epoch it must seal above, e.g. after a restart
  // on a durable store whose seal records outlive the projection store).
  kStorageSealedEpoch = 0x0107,

  // Sequencer
  kSequencerNext = 0x0200,
  kSequencerTail = 0x0201,
  kSequencerBootstrap = 0x0202,
  kSequencerDump = 0x0203,

  // ProjectionStore
  kProjectionGet = 0x0300,
  kProjectionPropose = 0x0301,

  // Baseline 2PL lock managers (src/baseline)
  kLockAcquire = 0x0400,
  kLockCommit = 0x0401,
  kLockAbort = 0x0402,
  kTimestampNext = 0x0403,
};

}  // namespace corfu

#endif  // SRC_CORFU_TYPES_H_
