// CorfuCluster: an in-process CORFU deployment for tests, benches and
// examples.
//
// Stands in for the paper's testbed (e.g. 18 storage nodes in a 9x2
// configuration plus a dedicated sequencer).  All services are registered on
// one Transport; clients created with MakeClient() speak the full protocol
// to them.

#ifndef SRC_CORFU_CLUSTER_H_
#define SRC_CORFU_CLUSTER_H_

#include <memory>
#include <mutex>
#include <vector>

#include "src/corfu/health.h"
#include "src/corfu/log_client.h"
#include "src/corfu/projection.h"
#include "src/corfu/sequencer.h"
#include "src/corfu/storage_node.h"
#include "src/net/transport.h"
#include "src/util/status.h"

namespace corfu {

class CorfuCluster {
 public:
  struct Options {
    // Total storage nodes and chain length; nodes/replication = replica sets.
    // The paper's default deployment is 18 nodes in a 9x2 configuration.
    int num_storage_nodes = 18;
    int replication_factor = 2;
    uint32_t page_size = 4096;
    uint32_t backpointer_count = kDefaultBackpointerCount;
    StorageNode::Options storage;
    // When non-empty, each storage node runs on the durable segment store
    // rooted at <data_dir>/node-<id>, so the whole log survives a full
    // cluster restart.  Tuning knobs (fsync_batch, segment_bytes, ...) come
    // from `storage`.
    std::string data_dir;
    // Node-id layout (storage nodes occupy [base, base+n)).
    tango::NodeId storage_base = 100;
    tango::NodeId sequencer_node = 10;
    tango::NodeId projection_store_node = 11;
    // Admission-control policy for the sequencer (and any replacement
    // spawned by failover).  Defaults to off.
    SequencerAdmission admission;
  };

  CorfuCluster(tango::Transport* transport, Options options);
  ~CorfuCluster();

  CorfuCluster(const CorfuCluster&) = delete;
  CorfuCluster& operator=(const CorfuCluster&) = delete;

  std::unique_ptr<CorfuClient> MakeClient(
      CorfuClient::Options options = CorfuClient::Options{}) const;

  // Simulates a sequencer crash (drops its RPC registration) and installs a
  // replacement at a fresh node id via reconfiguration, driven by `client`.
  tango::Status ReplaceSequencer(CorfuClient* client);

  // Spawns an empty storage node at a fresh id (storage_base + 10000 up) and
  // returns it — the cluster-side SpareProvider for HealthMonitor.
  tango::NodeId SpawnSpareStorageNode();

  // Spawns a fresh epoch-0 sequencer at a new id and returns it.  The old
  // Sequencer object stays alive (its registration may already be killed on
  // the transport); the replacement takes over once a reconfiguration
  // bootstraps it.
  tango::NodeId SpawnReplacementSequencer();

  // Creates, wires (spare + sequencer providers) and starts a HealthMonitor
  // for this cluster.  The monitor is owned by the cluster and stopped in
  // its destructor.  Returns the monitor for test introspection.
  HealthMonitor* StartHealthMonitor(
      HealthMonitor::Options options = HealthMonitor::Options{});
  HealthMonitor* health_monitor() const { return monitor_.get(); }

  tango::Transport* transport() const { return transport_; }
  tango::NodeId projection_store_node() const {
    return options_.projection_store_node;
  }
  Sequencer* sequencer() const { return sequencer_.get(); }
  const std::vector<std::unique_ptr<StorageNode>>& storage_nodes() const {
    return storage_nodes_;
  }
  const Options& options() const { return options_; }

 private:
  // Per-node storage options: shared tuning plus the node's segment-store
  // directory.
  StorageNode::Options NodeStorageOptions(tango::NodeId node) const;

  tango::Transport* transport_;
  Options options_;
  // Guards node spawns: the HealthMonitor's thread spawns spares and
  // replacement sequencers concurrently with test-driven spawns.
  std::mutex spawn_mu_;
  std::vector<std::unique_ptr<StorageNode>> storage_nodes_;
  std::unique_ptr<Sequencer> sequencer_;
  // Replacement sequencers spawned for failover; the superseded objects stay
  // alive so stale registrations never dangle.
  std::vector<std::unique_ptr<Sequencer>> replacement_sequencers_;
  std::unique_ptr<ProjectionStore> projection_store_;
  tango::NodeId next_sequencer_node_;
  tango::NodeId next_spare_node_;
  // Declared last so it is destroyed first: the monitor's thread probes the
  // services owned above.
  std::unique_ptr<HealthMonitor> monitor_;
};

}  // namespace corfu

#endif  // SRC_CORFU_CLUSTER_H_
