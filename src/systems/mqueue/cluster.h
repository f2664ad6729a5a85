// A wired mqueue deployment: brokers, the coordination-service registry,
// and clients.

#ifndef SYSTEMS_MQUEUE_CLUSTER_H_
#define SYSTEMS_MQUEUE_CLUSTER_H_

#include <memory>
#include <string>
#include <vector>

#include "check/history.h"
#include "neat/env.h"
#include "net/partition.h"
#include "systems/mqueue/broker.h"
#include "systems/mqueue/client.h"
#include "systems/zk/registry.h"

namespace mqueue {

class Cluster {
 public:
  struct Config {
    Options options;
    int num_clients = 2;
    uint64_t seed = 1;
    bool use_switch_backend = true;
  };

  explicit Cluster(const Config& config);

  sim::Simulator& simulator() { return env_.simulator(); }
  net::Partitioner& partitioner() { return env_.partitioner(); }
  check::History& history() { return env_.history(); }
  neat::TestEnv& env() { return env_; }
  const std::vector<net::NodeId>& broker_ids() const { return broker_ids_; }
  net::NodeId zk_id() const { return zk_id_; }
  Broker& broker(net::NodeId id);
  Client& client(int index) { return *clients_.at(static_cast<size_t>(index)); }
  zksvc::Registry& registry() { return *registry_; }

  void Settle(sim::Duration duration) { env_.Sleep(duration); }

  check::Operation Send(int client, const std::string& queue, const std::string& value);
  check::Operation Receive(int client, const std::string& queue, bool final_drain = false);

  // The broker currently holding mastership per the registry
  // (net::kInvalidNode when none).
  net::NodeId MasterPerRegistry() const;
  // Brokers currently *believing* they are master (2+ = split brain).
  std::vector<net::NodeId> SelfBelievedMasters() const;

  // --- snapshot / restore (NEAT fork executor) ---
  struct State {
    neat::TestEnv::State env;
    std::vector<Broker::State> brokers;
    zksvc::Registry::State registry;
    std::vector<Client::State> clients;
  };
  State CaptureState() const;
  void RestoreState(const State& state);

 private:
  neat::TestEnv env_;
  const std::vector<net::NodeId> broker_ids_;
  const net::NodeId zk_id_ = 50;
  std::vector<std::unique_ptr<Broker>> brokers_;
  std::unique_ptr<zksvc::Registry> registry_;
  std::vector<std::unique_ptr<Client>> clients_;
};

}  // namespace mqueue

#endif  // SYSTEMS_MQUEUE_CLUSTER_H_
