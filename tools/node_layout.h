// Shared node-id / port layout for the TCP deployment tools.
//
// tango_logd and tango_cli agree on a deterministic mapping from the cluster
// shape (storage node count, base port) to node ids and TCP ports, so the
// CLI can route to a daemon started with the same flags:
//
//   projection store : node 11,  base_port
//   sequencer        : node 10,  base_port + 1
//   storage node i   : node 100+i, base_port + 2 + i
//   (unused)         : base_port + 2 + num_storage_nodes
//   obs http server  : (plain HTTP), base_port + 3 + num_storage_nodes

#ifndef TOOLS_NODE_LAYOUT_H_
#define TOOLS_NODE_LAYOUT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/corfu/cluster.h"
#include "src/net/tcp_transport.h"

namespace tangotools {

struct NodeLayout {
  int num_storage_nodes;
  uint16_t base_port;

  uint16_t ProjectionStorePort() const { return base_port; }
  uint16_t SequencerPort() const { return static_cast<uint16_t>(base_port + 1); }
  uint16_t StoragePort(int i) const {
    return static_cast<uint16_t>(base_port + 2 + i);
  }
  // The daemon's embedded observability HTTP server (/metrics, /traces,
  // /vars, /slo, /flight, /healthz), two past the last storage port.
  uint16_t HttpPort() const {
    return static_cast<uint16_t>(base_port + 3 + num_storage_nodes);
  }

  corfu::CorfuCluster::Options ClusterOptions(int replication) const {
    corfu::CorfuCluster::Options options;
    options.num_storage_nodes = num_storage_nodes;
    options.replication_factor = replication;
    return options;
  }

  // Daemon side: pin every service to its well-known port.
  void AssignListenPorts(tango::TcpTransport& transport) const {
    corfu::CorfuCluster::Options defaults;
    transport.SetListenPort(defaults.projection_store_node,
                            ProjectionStorePort());
    transport.SetListenPort(defaults.sequencer_node, SequencerPort());
    for (int i = 0; i < num_storage_nodes; ++i) {
      transport.SetListenPort(defaults.storage_base + i, StoragePort(i));
    }
  }

  // Client side: route every service id to host's well-known port.
  void AddRoutes(tango::TcpTransport& transport,
                 const std::string& host) const {
    corfu::CorfuCluster::Options defaults;
    transport.AddRoute(defaults.projection_store_node, host,
                       ProjectionStorePort());
    transport.AddRoute(defaults.sequencer_node, host, SequencerPort());
    for (int i = 0; i < num_storage_nodes; ++i) {
      transport.AddRoute(defaults.storage_base + i, host, StoragePort(i));
    }
  }

  tango::NodeId projection_store_node() const {
    return corfu::CorfuCluster::Options{}.projection_store_node;
  }
};

// Minimal --flag=value parsing shared by the tools (positional args pass
// through into `positional`).
struct ToolArgs {
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> flags;

  ToolArgs(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) == 0) {
        size_t eq = arg.find('=');
        if (eq == std::string::npos) {
          flags.emplace_back(arg.substr(2), "true");
        } else {
          flags.emplace_back(arg.substr(2, eq - 2), arg.substr(eq + 1));
        }
      } else {
        positional.push_back(arg);
      }
    }
  }

  std::string Get(const std::string& name, const std::string& fallback) const {
    for (const auto& [k, v] : flags) {
      if (k == name) {
        return v;
      }
    }
    return fallback;
  }

  int64_t GetInt(const std::string& name, int64_t fallback) const {
    for (const auto& [k, v] : flags) {
      if (k == name) {
        return std::stoll(v);
      }
    }
    return fallback;
  }
};

}  // namespace tangotools

#endif  // TOOLS_NODE_LAYOUT_H_
