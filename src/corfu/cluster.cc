#include "src/corfu/cluster.h"

#include "src/util/logging.h"

namespace corfu {

using tango::NodeId;
using tango::Status;

CorfuCluster::CorfuCluster(tango::Transport* transport, Options options)
    : transport_(transport), options_(options) {
  TANGO_CHECK(options_.num_storage_nodes % options_.replication_factor == 0)
      << "storage nodes must divide evenly into replica sets";

  Projection initial;
  initial.epoch = 0;
  initial.page_size = options_.page_size;
  initial.backpointer_count = options_.backpointer_count;
  initial.sequencer = options_.sequencer_node;

  int num_sets = options_.num_storage_nodes / options_.replication_factor;
  for (int set = 0; set < num_sets; ++set) {
    std::vector<NodeId> chain;
    for (int r = 0; r < options_.replication_factor; ++r) {
      NodeId node = options_.storage_base +
                    static_cast<NodeId>(set * options_.replication_factor + r);
      storage_nodes_.push_back(std::make_unique<StorageNode>(
          transport_, node, NodeStorageOptions(node)));
      chain.push_back(node);
    }
    initial.replica_sets.push_back(std::move(chain));
  }

  sequencer_ = std::make_unique<Sequencer>(transport_, options_.sequencer_node,
                                           /*epoch=*/0,
                                           options_.backpointer_count,
                                           options_.admission);
  next_sequencer_node_ = options_.sequencer_node + 1000;
  next_spare_node_ =
      options_.storage_base + static_cast<NodeId>(options_.num_storage_nodes) +
      10000;

  projection_store_ = std::make_unique<ProjectionStore>(
      transport_, options_.projection_store_node, std::move(initial));
}

CorfuCluster::~CorfuCluster() {
  // Stop the monitor before any service it probes is torn down.
  monitor_.reset();
}

std::unique_ptr<CorfuClient> CorfuCluster::MakeClient(
    CorfuClient::Options options) const {
  return std::make_unique<CorfuClient>(transport_,
                                       options_.projection_store_node, options);
}

StorageNode::Options CorfuCluster::NodeStorageOptions(tango::NodeId node) const {
  StorageNode::Options storage_options = options_.storage;
  storage_options.page_size = options_.page_size;
  if (!options_.data_dir.empty()) {
    storage_options.data_dir =
        options_.data_dir + "/node-" + std::to_string(node);
  }
  return storage_options;
}

tango::NodeId CorfuCluster::SpawnSpareStorageNode() {
  std::lock_guard<std::mutex> lock(spawn_mu_);
  NodeId node = next_spare_node_++;
  storage_nodes_.push_back(std::make_unique<StorageNode>(
      transport_, node, NodeStorageOptions(node)));
  return node;
}

tango::NodeId CorfuCluster::SpawnReplacementSequencer() {
  std::lock_guard<std::mutex> lock(spawn_mu_);
  NodeId node = next_sequencer_node_++;
  replacement_sequencers_.push_back(std::make_unique<Sequencer>(
      transport_, node, /*epoch=*/0, options_.backpointer_count,
      options_.admission));
  return node;
}

HealthMonitor* CorfuCluster::StartHealthMonitor(HealthMonitor::Options options) {
  monitor_ = std::make_unique<HealthMonitor>(
      transport_, options_.projection_store_node, options);
  monitor_->set_spare_provider([this] { return SpawnSpareStorageNode(); });
  monitor_->set_sequencer_provider(
      [this] { return SpawnReplacementSequencer(); });
  monitor_->Start();
  return monitor_.get();
}

Status CorfuCluster::ReplaceSequencer(CorfuClient* client) {
  // Crash the old sequencer: its registration disappears, so in-flight
  // clients see kUnavailable and fall back to reconfigured state.
  sequencer_.reset();

  NodeId new_node = next_sequencer_node_++;
  // The replacement starts empty at epoch 0 and is bootstrapped by
  // Reconfigure with the sealed tail + rebuilt backpointer state.
  sequencer_ = std::make_unique<Sequencer>(transport_, new_node, /*epoch=*/0,
                                           options_.backpointer_count,
                                           options_.admission);
  return Reconfigure(client,
                     [new_node](Projection& p) { p.sequencer = new_node; });
}

}  // namespace corfu
