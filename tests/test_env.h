// Shared test fixtures: a small in-process CORFU cluster plus helpers.

#ifndef TESTS_TEST_ENV_H_
#define TESTS_TEST_ENV_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/corfu/cluster.h"
#include "src/net/inproc_transport.h"
#include "src/obs/metrics.h"
#include "src/util/random.h"

namespace tango_test {

// A cluster with `kNodes` storage nodes in chains of `kRepl`, fast holes.
class ClusterFixture : public ::testing::Test {
 protected:
  explicit ClusterFixture(int num_nodes = 6, int replication = 2) {
    corfu::CorfuCluster::Options options;
    options.num_storage_nodes = num_nodes;
    options.replication_factor = replication;
    cluster_ = std::make_unique<corfu::CorfuCluster>(&transport_, options);
  }

  std::unique_ptr<corfu::CorfuClient> MakeClient(uint32_t hole_timeout_ms = 5) {
    corfu::CorfuClient::Options options;
    options.hole_timeout_ms = hole_timeout_ms;
    return cluster_->MakeClient(options);
  }

  tango::InProcTransport transport_;
  std::unique_ptr<corfu::CorfuCluster> cluster_;
};

// A seeded fault decorator over another transport.  A rule delays the calls
// of one method, optionally only those to one node, each with a probability
// drawn from the seeded generator, so a schedule replays per seed.  Delay
// holds the request back; DelayReply lets the node handle it and holds back
// the reply.  Counts the calls of every method.
class FaultTransport : public tango::Transport {
 public:
  FaultTransport(tango::Transport* inner, uint64_t seed)
      : inner_(inner), rng_(seed) {}

  void Delay(uint16_t method, uint32_t delay_us,
             tango::NodeId node = tango::kInvalidNodeId,
             double probability = 1.0) {
    std::lock_guard<std::mutex> lock(mu_);
    rules_.push_back(Rule{method, node, delay_us, probability, false});
  }
  void DelayReply(uint16_t method, uint32_t delay_us,
                  tango::NodeId node = tango::kInvalidNodeId,
                  double probability = 1.0) {
    std::lock_guard<std::mutex> lock(mu_);
    rules_.push_back(Rule{method, node, delay_us, probability, true});
  }
  void ClearRules() {
    std::lock_guard<std::mutex> lock(mu_);
    rules_.clear();
  }
  uint64_t calls(uint16_t method) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = calls_.find(method);
    return it == calls_.end() ? 0 : it->second;
  }

  tango::Status Call(tango::NodeId dest, uint16_t method,
                     std::span<const uint8_t> request,
                     std::vector<uint8_t>* response) override {
    uint32_t request_delay_us = 0;
    uint32_t reply_delay_us = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++calls_[method];
      for (const Rule& r : rules_) {
        if (r.method == method &&
            (r.node == tango::kInvalidNodeId || r.node == dest) &&
            rng_.NextBool(r.probability)) {
          uint32_t& delay_us = r.reply ? reply_delay_us : request_delay_us;
          delay_us = std::max(delay_us, r.delay_us);
        }
      }
    }
    if (request_delay_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(request_delay_us));
    }
    tango::Status status = inner_->Call(dest, method, request, response);
    if (reply_delay_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(reply_delay_us));
    }
    return status;
  }
  void RegisterNode(tango::NodeId node, tango::RpcHandler handler) override {
    inner_->RegisterNode(node, std::move(handler));
  }
  void UnregisterNode(tango::NodeId node) override {
    inner_->UnregisterNode(node);
  }

 private:
  struct Rule {
    uint16_t method;
    tango::NodeId node;
    uint32_t delay_us;
    double probability;
    bool reply;
  };

  tango::Transport* inner_;
  mutable std::mutex mu_;
  tango::Rng rng_;
  std::vector<Rule> rules_;
  std::map<uint16_t, uint64_t> calls_;
};

// The current value of a process-wide registry counter.
inline uint64_t CounterValue(const char* name) {
  return tango::obs::MetricsRegistry::Default().GetCounter(name)->Value();
}

inline std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

inline std::string Str(const std::vector<uint8_t>& b) {
  return std::string(b.begin(), b.end());
}

// Seeds for randomized (chaos) tests.  TANGO_CHAOS_SEED overrides the
// default set with a single seed, so CI can sweep many seeds across separate
// invocations without rebuilding.
inline std::vector<uint64_t> ChaosSeeds() {
  const char* env = std::getenv("TANGO_CHAOS_SEED");
  if (env != nullptr && *env != '\0') {
    return {std::strtoull(env, nullptr, 10)};
  }
  return {1, 7, 1234};
}

}  // namespace tango_test

#endif  // TESTS_TEST_ENV_H_
