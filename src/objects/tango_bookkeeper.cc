#include "src/objects/tango_bookkeeper.h"

#include <atomic>

#include "src/util/logging.h"
#include "src/util/serialize.h"

namespace tango {

namespace {
constexpr int kTxRetries = 64;
std::atomic<uint64_t> g_next_writer_token{1};
}  // namespace

TangoBk::TangoBk(TangoRuntime* runtime, ObjectId oid, ObjectConfig config)
    : runtime_(runtime), oid_(oid) {
  Status st = runtime_->RegisterObject(oid_, this, config);
  TANGO_CHECK(st.ok()) << "register object failed: " << st.ToString();
}

TangoBk::~TangoBk() { (void)runtime_->UnregisterObject(oid_); }

Result<TangoBk::LedgerHandle> TangoBk::CreateLedger() {
  uint64_t token = g_next_writer_token.fetch_add(1);
  for (int attempt = 0; attempt < kTxRetries; ++attempt) {
    TANGO_RETURN_IF_ERROR(runtime_->QueryHelper(oid_));
    TANGO_RETURN_IF_ERROR(runtime_->BeginTx());
    // Read the allocation counter (object-level dep) and claim the next id.
    TANGO_RETURN_IF_ERROR(runtime_->QueryHelper(oid_, uint64_t{0}));
    LedgerId id;
    {
      std::lock_guard<std::mutex> lock(mu_);
      id = next_ledger_;
    }
    ByteWriter w(32);
    w.PutU8(kCreateLedger);
    w.PutU64(id);
    w.PutU64(token);
    // Unkeyed, so parallel playback orders it before any later write to the
    // new ledger's key; it still conflicts with racing creates, which read
    // key 0.
    Status st = runtime_->UpdateHelper(oid_, w.bytes());
    if (!st.ok()) {
      runtime_->AbortTx();
      return st;
    }
    st = runtime_->EndTx();
    if (st.ok()) {
      return LedgerHandle{id, token};
    }
    if (st != StatusCode::kAborted) {
      return st;
    }
  }
  return Status(StatusCode::kTimeout, "ledger creation retries exhausted");
}

Result<uint64_t> TangoBk::AddEntry(const LedgerHandle& handle,
                                   const std::string& data) {
  // Single-writer fast path: a raw stream append, no transaction, no sync.
  // The entry id is the writer's local count — correct while this handle is
  // the sole accepted writer; if the ledger has been fenced, the append is a
  // deterministic no-op everywhere and we report it on the *next* call once
  // the view catches up (mirrors BookKeeper's asynchronous fencing error).
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = ledgers_.find(handle.id);
    if (it != ledgers_.end() &&
        (it->second.state != LedgerState::kOpen ||
         it->second.writer_token != handle.writer_token)) {
      return Status(StatusCode::kFailedPrecondition, "ledger fenced or closed");
    }
  }
  ByteWriter w(32 + data.size());
  w.PutU8(kAddEntry);
  w.PutU64(handle.id);
  w.PutU64(handle.writer_token);
  w.PutString(data);
  TANGO_RETURN_IF_ERROR(
      runtime_->UpdateHelper(oid_, w.bytes(), handle.id));
  std::lock_guard<std::mutex> lock(writer_mu_);
  return writer_counts_[handle.writer_token]++;
}

Status TangoBk::CloseLedger(const LedgerHandle& handle) {
  ByteWriter w(24);
  w.PutU8(kCloseLedger);
  w.PutU64(handle.id);
  w.PutU64(handle.writer_token);
  TANGO_RETURN_IF_ERROR(runtime_->UpdateHelper(oid_, w.bytes(), handle.id));
  // Make the close visible locally before returning.
  return runtime_->QueryHelper(oid_, handle.id);
}

Result<uint64_t> TangoBk::OpenAndFence(LedgerId id) {
  ByteWriter w(16);
  w.PutU8(kFence);
  w.PutU64(id);
  TANGO_RETURN_IF_ERROR(runtime_->UpdateHelper(oid_, w.bytes(), id));
  // Linearization point: once the fence record is applied, no later append
  // by the old writer can be accepted; the entry count is now stable.
  TANGO_RETURN_IF_ERROR(runtime_->QueryHelper(oid_, id));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ledgers_.find(id);
  if (it == ledgers_.end()) {
    return Status(StatusCode::kNotFound, "no such ledger");
  }
  return static_cast<uint64_t>(it->second.entries.size());
}

Result<std::string> TangoBk::ReadEntry(LedgerId id, uint64_t entry_id) {
  TANGO_RETURN_IF_ERROR(runtime_->QueryHelper(oid_, id));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ledgers_.find(id);
  if (it == ledgers_.end()) {
    return Status(StatusCode::kNotFound, "no such ledger");
  }
  if (entry_id >= it->second.entries.size()) {
    return Status(StatusCode::kOutOfRange, "no such entry");
  }
  return it->second.entries[entry_id];
}

Result<uint64_t> TangoBk::EntryCount(LedgerId id) {
  TANGO_RETURN_IF_ERROR(runtime_->QueryHelper(oid_, id));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ledgers_.find(id);
  if (it == ledgers_.end()) {
    return Status(StatusCode::kNotFound, "no such ledger");
  }
  return static_cast<uint64_t>(it->second.entries.size());
}

Result<bool> TangoBk::IsClosed(LedgerId id) {
  TANGO_RETURN_IF_ERROR(runtime_->QueryHelper(oid_, id));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ledgers_.find(id);
  if (it == ledgers_.end()) {
    return Status(StatusCode::kNotFound, "no such ledger");
  }
  return it->second.state != LedgerState::kOpen;
}

void TangoBk::Apply(std::span<const uint8_t> update,
                    corfu::LogOffset /*offset*/) {
  ByteReader r(update);
  Op op = static_cast<Op>(r.GetU8());
  std::lock_guard<std::mutex> lock(mu_);
  switch (op) {
    case kCreateLedger: {
      LedgerId id = r.GetU64();
      uint64_t token = r.GetU64();
      if (!r.ok() || ledgers_.contains(id)) {
        return;
      }
      Ledger ledger;
      ledger.writer_token = token;
      ledgers_.emplace(id, std::move(ledger));
      if (id >= next_ledger_) {
        next_ledger_ = id + 1;
      }
      return;
    }
    case kAddEntry: {
      LedgerId id = r.GetU64();
      uint64_t token = r.GetU64();
      std::string data = r.GetString();
      if (!r.ok()) {
        return;
      }
      auto it = ledgers_.find(id);
      if (it == ledgers_.end() || it->second.state != LedgerState::kOpen ||
          it->second.writer_token != token) {
        return;  // stale or fenced writer: dropped deterministically
      }
      it->second.entries.push_back(std::move(data));
      return;
    }
    case kCloseLedger: {
      LedgerId id = r.GetU64();
      uint64_t token = r.GetU64();
      if (!r.ok()) {
        return;
      }
      auto it = ledgers_.find(id);
      if (it != ledgers_.end() && it->second.writer_token == token &&
          it->second.state == LedgerState::kOpen) {
        it->second.state = LedgerState::kClosed;
      }
      return;
    }
    case kFence: {
      LedgerId id = r.GetU64();
      if (!r.ok()) {
        return;
      }
      auto it = ledgers_.find(id);
      if (it != ledgers_.end() && it->second.state == LedgerState::kOpen) {
        it->second.state = LedgerState::kFenced;
      }
      return;
    }
  }
}

void TangoBk::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ledgers_.clear();
  next_ledger_ = 1;
}

std::vector<uint8_t> TangoBk::Checkpoint() const {
  std::lock_guard<std::mutex> lock(mu_);
  ByteWriter w;
  w.PutU64(next_ledger_);
  w.PutU32(static_cast<uint32_t>(ledgers_.size()));
  for (const auto& [id, ledger] : ledgers_) {
    w.PutU64(id);
    w.PutU64(ledger.writer_token);
    w.PutU8(static_cast<uint8_t>(ledger.state));
    w.PutU32(static_cast<uint32_t>(ledger.entries.size()));
    for (const std::string& entry : ledger.entries) {
      w.PutString(entry);
    }
  }
  return w.Take();
}

void TangoBk::Restore(std::span<const uint8_t> state) {
  ByteReader r(state);
  std::lock_guard<std::mutex> lock(mu_);
  ledgers_.clear();
  next_ledger_ = r.GetU64();
  uint32_t count = r.GetU32();
  for (uint32_t i = 0; i < count && r.ok(); ++i) {
    LedgerId id = r.GetU64();
    Ledger ledger;
    ledger.writer_token = r.GetU64();
    ledger.state = static_cast<LedgerState>(r.GetU8());
    uint32_t entries = r.GetU32();
    ledger.entries.reserve(entries);
    for (uint32_t j = 0; j < entries && r.ok(); ++j) {
      ledger.entries.push_back(r.GetString());
    }
    ledgers_.emplace(id, std::move(ledger));
  }
}

}  // namespace tango
