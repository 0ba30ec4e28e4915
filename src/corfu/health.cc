#include "src/corfu/health.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>
#include <vector>

// For ScopedNetworkIdentity: the monitor stamps its probes with an identity
// so transports that model per-link partitions (InProcTransport) can isolate
// the monitor itself.  On transports without link modeling the scope is a
// no-op thread-local write.
#include "src/net/inproc_transport.h"
#include "src/corfu/sequencer.h"
#include "src/obs/flight.h"
#include "src/util/logging.h"
#include "src/util/threading.h"

namespace corfu {

using tango::NodeId;
using tango::Result;
using tango::Status;
using tango::StatusCode;

namespace {

// How a probe outcome bears on the target's health.
enum class Probe {
  kHealthy,  // answered (any answer, even an application error, is a pulse)
  kStale,    // answered kSealedEpoch: the node is alive, *we* may be behind
  kMiss,     // unreachable or timed out
};

Probe Classify(const Status& st) {
  if (st == StatusCode::kSealedEpoch) {
    return Probe::kStale;
  }
  if (st == StatusCode::kUnavailable || st == StatusCode::kTimeout) {
    return Probe::kMiss;
  }
  return Probe::kHealthy;
}

}  // namespace

HealthMonitor::HealthMonitor(tango::Transport* transport,
                             NodeId projection_store, Options options)
    : transport_(transport), options_(options) {
  client_ = std::make_unique<CorfuClient>(transport, projection_store);
  Projection p = client_->projection();
  for (const std::vector<NodeId>& chain : p.replica_sets) {
    expected_replication_ = std::max(expected_replication_, chain.size());
  }
  auto& reg = tango::obs::MetricsRegistry::Default();
  heartbeats_ = reg.GetCounter("health.heartbeats");
  misses_ = reg.GetCounter("health.misses");
  failovers_storage_ = reg.GetCounter("health.failovers_storage");
  failovers_sequencer_ = reg.GetCounter("health.failovers_sequencer");
  reconfigurations_ = reg.GetGauge("health.reconfigurations");
  recovery_latency_ = reg.GetHistogram("health.recovery_latency_us");
}

HealthMonitor::~HealthMonitor() { Stop(); }

void HealthMonitor::set_spare_provider(SpareProvider provider) {
  std::lock_guard<std::mutex> lock(run_mu_);
  spare_provider_ = std::move(provider);
}

void HealthMonitor::set_sequencer_provider(SequencerProvider provider) {
  std::lock_guard<std::mutex> lock(run_mu_);
  sequencer_provider_ = std::move(provider);
}

void HealthMonitor::Start() {
  std::lock_guard<std::mutex> lock(thread_mu_);
  if (thread_.joinable()) {
    return;
  }
  stop_ = false;
  thread_ = std::thread([this] { Loop(); });
}

void HealthMonitor::Stop() {
  {
    std::lock_guard<std::mutex> lock(thread_mu_);
    if (!thread_.joinable()) {
      return;
    }
    stop_ = true;
  }
  thread_cv_.notify_all();
  thread_.join();
  thread_ = std::thread();
}

void HealthMonitor::Loop() {
  tango::SetCurrentThreadName("tgo-health");
  while (true) {
    {
      std::unique_lock<std::mutex> lock(thread_mu_);
      thread_cv_.wait_for(
          lock, std::chrono::milliseconds(options_.heartbeat_interval_ms),
          [this] { return stop_; });
      if (stop_) {
        return;
      }
    }
    // Failures inside a round are expected while the cluster is degraded
    // (lost CAS races, unreachable peers); RunOnce logs them and the next
    // round re-evaluates from the refreshed projection.
    (void)RunOnce();
  }
}

int HealthMonitor::ConsecutiveMisses(NodeId node) const {
  std::lock_guard<std::mutex> lock(run_mu_);
  auto it = misses_by_node_.find(node);
  return it == misses_by_node_.end() ? 0 : it->second;
}

void HealthMonitor::NoteRecoveryStart() {
  uint64_t expected = 0;
  recovery_start_us_.compare_exchange_strong(expected, tango::NowMicros(),
                                             std::memory_order_relaxed);
}

Status HealthMonitor::RunOnce() {
  std::lock_guard<std::mutex> run_lock(run_mu_);
  std::optional<tango::ScopedNetworkIdentity> identity;
  if (options_.identity != tango::kInvalidNodeId) {
    identity.emplace(options_.identity);
  }

  // --- Probe phase -------------------------------------------------------
  // The projection store probe doubles as the refresh: any reconfiguration a
  // concurrent monitor landed is adopted before we judge anyone.
  heartbeats_->Add();
  Status store_st = client_->RefreshProjection();
  if (Classify(store_st) == Probe::kMiss) {
    misses_->Add();
    // A single CAS store has no failover; keep serving from the cached
    // projection and keep probing.
  }
  Projection p = client_->projection();

  heartbeats_->Add();
  Result<SequencerTailInfo> seq_tail =
      SequencerTail(transport_, p.sequencer, p.epoch, {});
  Probe seq_probe = Classify(seq_tail.status());
  if (seq_probe == Probe::kStale) {
    // Either our projection is behind (refresh fixes it) or the sequencer
    // itself is sealed behind the current epoch — a lost bootstrap, e.g. a
    // monitor that crashed between propose and bootstrap.  The latter is a
    // real outage (every append fails) that a plain heartbeat would miss.
    (void)client_->RefreshProjection();
    p = client_->projection();
    seq_tail = SequencerTail(transport_, p.sequencer, p.epoch, {});
    if (seq_tail.status() == StatusCode::kSealedEpoch) {
      NoteRecoveryStart();
      return ResyncSequencer();
    }
    seq_probe = Classify(seq_tail.status());
  }

  std::unordered_map<NodeId, int> next_misses;
  int seq_misses = 0;
  if (seq_probe == Probe::kMiss) {
    misses_->Add();
    seq_misses = misses_by_node_[p.sequencer] + 1;
    next_misses[p.sequencer] = seq_misses;
    if (seq_misses >= options_.miss_threshold) {
      NoteRecoveryStart();
    }
  }

  bool saw_stale_storage = false;
  NodeId dead_storage = tango::kInvalidNodeId;
  for (const std::vector<NodeId>& chain : p.replica_sets) {
    for (NodeId node : chain) {
      heartbeats_->Add();
      Probe probe =
          Classify(StorageLocalTail(transport_, node, p.epoch).status());
      switch (probe) {
        case Probe::kHealthy:
          break;
        case Probe::kStale:
          saw_stale_storage = true;
          break;
        case Probe::kMiss: {
          misses_->Add();
          int m = misses_by_node_[node] + 1;
          next_misses[node] = m;
          if (m >= options_.miss_threshold &&
              dead_storage == tango::kInvalidNodeId) {
            dead_storage = node;
            NoteRecoveryStart();
          }
          break;
        }
      }
    }
  }
  // Nodes that answered — or left the projection — drop out of the ledger,
  // so a blip never accumulates across unrelated incidents.
  misses_by_node_ = std::move(next_misses);

  if (saw_stale_storage) {
    // A reconfiguration we have not seen yet; adopt it before acting.
    (void)client_->RefreshProjection();
  }

  // --- React phase: at most one epoch change per round -------------------
  if (seq_misses >= options_.miss_threshold) {
    return HandleSequencerFailure();
  }
  if (dead_storage != tango::kInvalidNodeId) {
    return DegradeChain(dead_storage);
  }
  if (options_.auto_repair && spare_provider_) {
    Projection current = client_->projection();
    for (size_t set = 0; set < current.replica_sets.size(); ++set) {
      if (current.replica_sets[set].size() < expected_replication_) {
        return RepairChain(set);
      }
    }
  }

  // --- Healed? -----------------------------------------------------------
  if (recovery_start_us_.load(std::memory_order_relaxed) != 0 &&
      store_st.ok() && seq_probe == Probe::kHealthy && misses_by_node_.empty()) {
    Projection current = client_->projection();
    bool full = true;
    for (const std::vector<NodeId>& chain : current.replica_sets) {
      full = full && chain.size() >= expected_replication_;
    }
    if (full) {
      uint64_t start = recovery_start_us_.exchange(0, std::memory_order_relaxed);
      uint64_t latency = tango::NowMicros() - start;
      recovery_latency_->Record(latency);
      tango::obs::FlightRecorder::Default().Record(tango::obs::FlightKind::kRecovery,
                                            "cluster healed", current.epoch,
                                            latency);
      TANGO_LOG(kInfo)
          << "health: cluster healed at epoch " << current.epoch << " after "
          << latency << " us";
    }
  }
  return Status::Ok();
}

Status HealthMonitor::HandleSequencerFailure() {
  if (!sequencer_provider_) {
    return Status(StatusCode::kFailedPrecondition,
                  "sequencer dead and no sequencer provider configured");
  }
  if (pending_sequencer_ == tango::kInvalidNodeId) {
    pending_sequencer_ = sequencer_provider_();
  }
  NodeId replacement = pending_sequencer_;
  if (replacement == tango::kInvalidNodeId) {
    return Status(StatusCode::kUnavailable, "no replacement sequencer");
  }
  TANGO_LOG(kWarning)
      << "health: sequencer unreachable, reconfiguring to node " << replacement;
  Status st = Reconfigure(
      client_.get(),
      [replacement](Projection& next) { next.sequencer = replacement; },
      options_.rebuild_scan_limit);
  if (!st.ok()) {
    // Lost the race or a peer was unreachable mid-seal; a refreshed view
    // next round decides whether the failover is still needed.  The spawned
    // replacement is kept for reuse.
    (void)client_->RefreshProjection();
    return st;
  }
  pending_sequencer_ = tango::kInvalidNodeId;
  misses_by_node_.clear();
  failovers_sequencer_->Add();
  reconfigurations_->Add(1);
  tango::obs::FlightRecorder::Default().Record(
      tango::obs::FlightKind::kReconfig, "sequencer failover",
      client_->projection().epoch);
  return Status::Ok();
}

Status HealthMonitor::ResyncSequencer() {
  TANGO_LOG(kWarning)
      << "health: sequencer sealed behind current epoch, re-bootstrapping";
  // A no-op membership change: seals e+1, rebuilds backpointer state from
  // the log, and bootstraps the (same) sequencer at the new epoch.
  Status st = Reconfigure(
      client_.get(), [](Projection&) {}, options_.rebuild_scan_limit);
  if (st.ok()) {
    reconfigurations_->Add(1);
    tango::obs::FlightRecorder::Default().Record(
        tango::obs::FlightKind::kReconfig, "sequencer resync",
        client_->projection().epoch);
  } else {
    (void)client_->RefreshProjection();
  }
  return st;
}

Status HealthMonitor::DegradeChain(NodeId dead) {
  Projection current = client_->projection();
  size_t set_index = current.replica_sets.size();
  size_t chain_pos = 0;
  for (size_t s = 0; s < current.replica_sets.size(); ++s) {
    for (size_t r = 0; r < current.replica_sets[s].size(); ++r) {
      if (current.replica_sets[s][r] == dead) {
        set_index = s;
        chain_pos = r;
      }
    }
  }
  if (set_index == current.replica_sets.size()) {
    return Status::Ok();  // already reconfigured away by a peer
  }
  // Never excise the last live replica of an extent: that would lose data.
  // A member that missed this round's probe does not count as live — its
  // seal below would fail after the chains before it were already sealed
  // above the installed projection.  Keep probing instead; once a replica
  // answers again, the chain degrades onto it and heals.
  const std::vector<NodeId>& chain = current.replica_sets[set_index];
  if (std::none_of(chain.begin(), chain.end(), [&](NodeId node) {
        return node != dead && !misses_by_node_.contains(node);
      })) {
    return Status(StatusCode::kFailedPrecondition,
                  "no live replica would remain; cannot degrade");
  }

  Projection next = current;
  next.epoch = current.epoch + 1;
  next.replica_sets[set_index].erase(next.replica_sets[set_index].begin() +
                                     static_cast<long>(chain_pos));
  TANGO_LOG(kWarning)
      << "health: storage node " << dead << " declared dead, degrading set "
      << set_index << " at epoch " << next.epoch;

  // Seal the survivors (all chains — the epoch is global) at the new epoch,
  // collecting the sealed tail.  kSealedEpoch from any node means a peer
  // monitor won the race to e+1; adopt its view instead.
  Result<SealedTails> tails = SealAll(transport_, next);
  if (!tails.ok()) {
    (void)client_->RefreshProjection();
    return tails.status();
  }

  Status proposed =
      ProposeProjection(transport_, client_->projection_store(), next);
  if (!proposed.ok()) {
    (void)client_->RefreshProjection();
    return proposed;
  }
  failovers_storage_->Add();
  reconfigurations_->Add(1);
  tango::obs::FlightRecorder::Default().Record(tango::obs::FlightKind::kReconfig,
                                        "storage failover", next.epoch);

  // The sequencer keeps its soft state across a storage swap; it only needs
  // the new epoch and the sealed tail.  If it is dead too, the next round's
  // probe escalates to a sequencer failover, which re-bootstraps anyway.
  Status boot = SequencerBootstrap(transport_, next.sequencer, next.epoch,
                                   tails->global_tail, {});
  (void)client_->RefreshProjection();
  return boot;
}

Status HealthMonitor::CopyLocalRange(NodeId source, NodeId dest, Epoch epoch,
                                     LogOffset from, LogOffset to) {
  for (LogOffset local = from; local < to; ++local) {
    Result<std::vector<uint8_t>> page =
        StorageRead(transport_, source, epoch, local);
    if (page.status() == StatusCode::kUnwritten ||
        page.status() == StatusCode::kTrimmed) {
      continue;  // holes stay holes; trimmed pages stay reclaimed
    }
    if (!page.ok()) {
      return page.status();
    }
    Status written = StorageWrite(transport_, dest, epoch, local, *page);
    // kWritten means a previous (partial) copy already placed this page.
    if (!written.ok() && written != StatusCode::kWritten) {
      return written;
    }
  }
  return Status::Ok();
}

Status HealthMonitor::RepairChain(size_t set_index) {
  Projection current = client_->projection();
  if (set_index >= current.replica_sets.size() ||
      current.replica_sets[set_index].empty()) {
    return Status(StatusCode::kFailedPrecondition, "no surviving replica");
  }
  const std::vector<NodeId>& chain = current.replica_sets[set_index];

  NodeId spare;
  if (pending_spare_ != tango::kInvalidNodeId &&
      pending_spare_set_ == set_index) {
    spare = pending_spare_;  // resume the interrupted repair
  } else {
    spare = spare_provider_();
    if (spare == tango::kInvalidNodeId) {
      return Status(StatusCode::kUnavailable, "no spare storage node");
    }
    pending_spare_ = spare;
    pending_spare_set_ = set_index;
  }

  // Warm copy: stream the chain's pages onto the spare at the *current*
  // epoch, with foreground traffic still flowing.  The head holds a superset
  // of every replica below it, so it is the source.
  NodeId source = chain[0];
  Result<LogOffset> watermark =
      StorageLocalTail(transport_, source, current.epoch);
  if (!watermark.ok()) {
    (void)client_->RefreshProjection();
    return watermark.status();
  }
  TANGO_LOG(kInfo)
      << "health: repairing set " << set_index << " onto spare " << spare
      << " (warm copy of " << *watermark << " pages from node " << source
      << ")";
  TANGO_RETURN_IF_ERROR(
      CopyLocalRange(source, spare, current.epoch, 0, *watermark));

  // Seal at e+1 — freezing writers — and catch up the pages that landed
  // during the warm copy, then propose the repaired chain (spare at the
  // tail).  The sealed window is proportional to the copy *delta*, not the
  // chain size.
  Projection next = current;
  next.epoch = current.epoch + 1;
  next.replica_sets[set_index].push_back(spare);
  Result<SealedTails> tails = SealAll(transport_, next);
  if (!tails.ok()) {
    (void)client_->RefreshProjection();
    return tails.status();
  }
  // The source still heads the chain; the spare was appended at its tail.
  TANGO_RETURN_IF_ERROR(CopyLocalRange(source, spare, next.epoch, *watermark,
                                       tails->local[set_index][0]));

  Status proposed =
      ProposeProjection(transport_, client_->projection_store(), next);
  if (!proposed.ok()) {
    // Lost the CAS; the spare (and its copied pages) stays pending for this
    // set and the next round retries against the winner's projection.
    (void)client_->RefreshProjection();
    return proposed;
  }
  pending_spare_ = tango::kInvalidNodeId;
  reconfigurations_->Add(1);
  tango::obs::FlightRecorder::Default().Record(tango::obs::FlightKind::kReconfig,
                                        "set repaired with spare", next.epoch,
                                        spare);
  TANGO_LOG(kInfo)
      << "health: set " << set_index << " repaired with spare " << spare
      << " at epoch " << next.epoch;

  Status boot = SequencerBootstrap(transport_, next.sequencer, next.epoch,
                                   tails->global_tail, {});
  (void)client_->RefreshProjection();
  return boot;
}

}  // namespace corfu
