// HealthMonitor: failure detection and autonomous reconfiguration (§5,
// "Failure Handling").
//
// The paper's recovery protocol is client-driven: any client that suspects a
// failure may seal the current epoch and propose a new projection through the
// auxiliary's compare-and-swap.  This class packages that into a service: it
// heartbeats the sequencer, every storage node in the current projection, and
// the projection store, declares a node dead after `miss_threshold`
// consecutive missed probes, and then drives recovery on its own:
//
//   storage failure:  seal epoch e+1, propose the chain minus the dead node
//                     (degraded but fully serving — chain replication reads
//                     from the tail and writes through the survivors), then
//                     in the background copy the chain onto a spare and
//                     propose the repaired full chain at e+2.
//   sequencer failure: spawn a replacement and run the paper's sequencer
//                     reconfiguration (seal, rebuild backpointer state by
//                     backward scan, bootstrap, propose).
//
// Safety under concurrent monitors: every step goes through the existing
// CAS machinery.  Seals only succeed for a strictly newer epoch, so two
// monitors racing to seal e+1 produce one winner; ProposeProjection requires
// epoch == current+1, so only one proposal lands.  Losers refresh their
// projection and re-evaluate — a chain that is still short triggers repair
// again, so crashes and lost races converge on the next round rather than
// wedging.  Repair is *reconciliation*: it keys off "chain shorter than the
// expected replication factor", not off the monitor's own memory of having
// degraded it.

#ifndef SRC_CORFU_HEALTH_H_
#define SRC_CORFU_HEALTH_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "src/corfu/log_client.h"
#include "src/corfu/projection.h"
#include "src/corfu/types.h"
#include "src/net/transport.h"
#include "src/obs/metrics.h"
#include "src/util/status.h"

namespace corfu {

class HealthMonitor {
 public:
  struct Options {
    // Probe period for the background thread (Start()).
    uint32_t heartbeat_interval_ms = 10;
    // Consecutive missed probes before a node is declared dead.
    int miss_threshold = 3;
    // Backward-scan bound when rebuilding a replacement sequencer's state.
    uint64_t rebuild_scan_limit = 65536;
    // When false the monitor only degrades (and replaces sequencers); chains
    // stay short until an operator repairs them.
    bool auto_repair = true;
    // Network identity the monitor's own RPCs carry (for transports that
    // model per-link partitions, e.g. InProcTransport).  kInvalidNodeId
    // leaves the calling thread's identity untouched.
    tango::NodeId identity = tango::kInvalidNodeId;
  };

  // Spawns and registers an empty storage node, returning its id
  // (kInvalidNodeId when no spare is available).
  using SpareProvider = std::function<tango::NodeId()>;
  // Spawns and registers a fresh (epoch-0) sequencer, returning its id.
  using SequencerProvider = std::function<tango::NodeId()>;

  // The monitor owns a CorfuClient of its own on `transport`; the projection
  // store must be reachable at construction time.
  HealthMonitor(tango::Transport* transport, tango::NodeId projection_store,
                Options options);
  ~HealthMonitor();

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  void set_spare_provider(SpareProvider provider);
  void set_sequencer_provider(SequencerProvider provider);

  // Background probing every heartbeat_interval_ms.  Idempotent.
  void Start();
  // Stops and joins the background thread (also called by the destructor).
  void Stop();

  // One probe-and-react round: heartbeat everything, then take at most one
  // recovery action (sequencer failover, chain degrade, or chain repair).
  // Public so tests can drive detection and recovery deterministically
  // without the background thread.  Serialized against itself.
  tango::Status RunOnce();

  // Consecutive missed probes for `node` (0 when healthy or unknown).
  int ConsecutiveMisses(tango::NodeId node) const;
  // True between the first threshold crossing and the round where the
  // cluster is fully healed (all chains at full strength, every probe
  // answering).  The healing round records health.recovery_latency_us.
  bool InRecovery() const {
    return recovery_start_us_.load(std::memory_order_relaxed) != 0;
  }

  const Options& options() const { return options_; }
  CorfuClient* client() const { return client_.get(); }

 private:
  void Loop();
  void NoteRecoveryStart();

  // Recovery actions; each is one CAS-guarded epoch change.
  tango::Status HandleSequencerFailure();
  tango::Status DegradeChain(tango::NodeId dead);
  tango::Status RepairChain(size_t set_index);
  // Re-bootstraps a live sequencer that is sealed behind the current epoch
  // (e.g. its bootstrap was lost to a monitor crash mid-reconfiguration).
  tango::Status ResyncSequencer();

  tango::Status CopyLocalRange(tango::NodeId source, tango::NodeId dest,
                               Epoch epoch, LogOffset from, LogOffset to);

  tango::Transport* transport_;
  Options options_;
  std::unique_ptr<CorfuClient> client_;
  SpareProvider spare_provider_;
  SequencerProvider sequencer_provider_;
  // Full chain length the cluster was built with; any shorter chain is a
  // repair candidate.
  size_t expected_replication_ = 1;

  // Registry instruments (see DESIGN.md "Observability").
  tango::obs::Counter* heartbeats_;
  tango::obs::Counter* misses_;
  tango::obs::Counter* failovers_storage_;
  tango::obs::Counter* failovers_sequencer_;
  tango::obs::Gauge* reconfigurations_;
  tango::obs::Histogram* recovery_latency_;

  // Serializes RunOnce (background thread vs. manual calls) and guards the
  // miss ledger and pending-replacement state below.
  mutable std::mutex run_mu_;
  std::unordered_map<tango::NodeId, int> misses_by_node_;
  // A spare that was spawned but whose repair has not landed yet (copy
  // crashed or the propose lost its CAS).  Reused only for the same replica
  // set — a different set's pages would poison a partially copied spare.
  tango::NodeId pending_spare_ = tango::kInvalidNodeId;
  size_t pending_spare_set_ = 0;
  // Same idea for a spawned-but-not-yet-installed replacement sequencer.
  tango::NodeId pending_sequencer_ = tango::kInvalidNodeId;

  // Microsecond timestamp of the oldest unhealed failure (0 = healthy).
  std::atomic<uint64_t> recovery_start_us_{0};

  std::mutex thread_mu_;
  std::condition_variable thread_cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace corfu

#endif  // SRC_CORFU_HEALTH_H_
