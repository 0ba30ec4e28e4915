#include "src/obs/rpc_metrics.h"

#include <array>
#include <string>

#include "src/corfu/types.h"

namespace tango::obs {

namespace {

struct MethodEntry {
  uint16_t id;
  const char* name;
  const char* span_name;
};

// Keep in sync with corfu::RpcMethod (src/corfu/types.h).
constexpr MethodEntry kMethods[] = {
    {corfu::kStorageWrite, "storage.write", "rpc:storage.write"},
    {corfu::kStorageRead, "storage.read", "rpc:storage.read"},
    {corfu::kStorageSeal, "storage.seal", "rpc:storage.seal"},
    {corfu::kStorageTrim, "storage.trim", "rpc:storage.trim"},
    {corfu::kStorageTrimPrefix, "storage.trim_prefix",
     "rpc:storage.trim_prefix"},
    {corfu::kStorageLocalTail, "storage.local_tail", "rpc:storage.local_tail"},
    {corfu::kStorageReadBatch, "storage.read_batch", "rpc:storage.read_batch"},
    {corfu::kSequencerNext, "sequencer.next", "rpc:sequencer.next"},
    {corfu::kSequencerTail, "sequencer.tail", "rpc:sequencer.tail"},
    {corfu::kSequencerBootstrap, "sequencer.bootstrap",
     "rpc:sequencer.bootstrap"},
    {corfu::kSequencerDump, "sequencer.dump", "rpc:sequencer.dump"},
    {corfu::kProjectionGet, "projection.get", "rpc:projection.get"},
    {corfu::kProjectionPropose, "projection.propose",
     "rpc:projection.propose"},
    {corfu::kLockAcquire, "lock.acquire", "rpc:lock.acquire"},
    {corfu::kLockCommit, "lock.commit", "rpc:lock.commit"},
    {corfu::kLockAbort, "lock.abort", "rpc:lock.abort"},
    {corfu::kTimestampNext, "timestamp.next", "rpc:timestamp.next"},
};

constexpr int kNumKnown = static_cast<int>(std::size(kMethods));
constexpr int kNumSlots = kNumKnown + 1;  // + "other"

int SlotFor(uint16_t method) {
  for (int i = 0; i < kNumKnown; ++i) {
    if (kMethods[i].id == method) {
      return i;
    }
  }
  return kNumKnown;
}

std::array<RpcMethodStats, kNumSlots> BuildSlots() {
  std::array<RpcMethodStats, kNumSlots> slots;
  MetricsRegistry& reg = MetricsRegistry::Default();
  auto fill = [&reg](RpcMethodStats* s, const char* name,
                     const char* span_name) {
    std::string prefix = std::string("rpc.") + name;
    s->span_name = span_name;
    s->calls = reg.GetCounter(prefix + ".calls");
    s->failures = reg.GetCounter(prefix + ".failures");
    s->drops = reg.GetCounter(prefix + ".drops");
    s->latency_us = reg.GetHistogram(prefix + ".latency_us");
  };
  for (int i = 0; i < kNumKnown; ++i) {
    fill(&slots[i], kMethods[i].name, kMethods[i].span_name);
  }
  fill(&slots[kNumKnown], "other", "rpc:other");
  return slots;
}

}  // namespace

const char* RpcMethodName(uint16_t method) {
  int slot = SlotFor(method);
  return slot < kNumKnown ? kMethods[slot].name : "other";
}

RpcMethodStats& RpcStatsFor(uint16_t method) {
  static std::array<RpcMethodStats, kNumSlots> slots = BuildSlots();
  return slots[SlotFor(method)];
}

}  // namespace tango::obs
