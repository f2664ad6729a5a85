#include "systems/mqueue/cluster.h"

#include <cassert>

namespace mqueue {

Cluster::Cluster(const Config& config)
    : env_(neat::TestEnv::Options{config.seed, config.use_switch_backend}),
      broker_ids_(net::NodeIds(config.options.num_brokers)) {
  if (config.options.causal_trace) {
    env_.simulator().Trace().set_causal(true);
  }
  zksvc::Registry::Options zk_options;
  zk_options.session_timeout = config.options.zk_session_timeout;
  registry_ = std::make_unique<zksvc::Registry>(&env_.simulator(), &env_.network(), zk_id_,
                                                zk_options);
  for (net::NodeId id : broker_ids_) {
    brokers_.push_back(std::make_unique<Broker>(&env_.simulator(), &env_.network(), id,
                                                config.options, broker_ids_, zk_id_));
  }
  for (int i = 0; i < config.num_clients; ++i) {
    const net::NodeId client_id = static_cast<net::NodeId>(100 + i + 1);
    clients_.push_back(std::make_unique<Client>(&env_.simulator(), &env_.network(),
                                                client_id, i + 1,
                                                broker_ids_, &env_.history()));
  }
  registry_->Boot();
  env_.RegisterProcess(registry_.get());
  for (auto& broker : brokers_) {
    broker->Boot();
    env_.RegisterProcess(broker.get());
  }
  for (auto& client : clients_) {
    client->Boot();
    env_.RegisterProcess(client.get());
  }
}

Broker& Cluster::broker(net::NodeId id) {
  for (auto& broker : brokers_) {
    if (broker->id() == id) {
      return *broker;
    }
  }
  assert(false && "unknown broker id");
  return *brokers_.front();
}

net::NodeId Cluster::MasterPerRegistry() const {
  const std::string data = registry_->Data("/mq/master");
  if (data.empty()) {
    return net::kInvalidNode;
  }
  return static_cast<net::NodeId>(std::stol(data));
}

std::vector<net::NodeId> Cluster::SelfBelievedMasters() const {
  std::vector<net::NodeId> out;
  for (const auto& broker : brokers_) {
    if (!broker->crashed() && broker->is_master()) {
      out.push_back(broker->id());
    }
  }
  return out;
}

check::Operation Cluster::Send(int client_index, const std::string& queue,
                               const std::string& value) {
  Client& c = client(client_index);
  c.BeginSend(queue, value);
  return env_.RunToCompletion(c);
}

check::Operation Cluster::Receive(int client_index, const std::string& queue,
                                  bool final_drain) {
  Client& c = client(client_index);
  c.BeginReceive(queue, final_drain);
  return env_.RunToCompletion(c);
}

Cluster::State Cluster::CaptureState() const {
  State state;
  state.env = env_.Snapshot();
  state.brokers.reserve(brokers_.size());
  for (const auto& broker : brokers_) {
    state.brokers.push_back(broker->CaptureState());
  }
  state.registry = registry_->CaptureState();
  state.clients.reserve(clients_.size());
  for (const auto& client : clients_) {
    state.clients.push_back(client->CaptureState());
  }
  return state;
}

void Cluster::RestoreState(const State& state) {
  env_.Restore(state.env);
  for (size_t i = 0; i < brokers_.size(); ++i) {
    brokers_[i]->RestoreState(state.brokers.at(i));
  }
  registry_->RestoreState(state.registry);
  for (size_t i = 0; i < clients_.size(); ++i) {
    clients_[i]->RestoreState(state.clients.at(i));
  }
}

}  // namespace mqueue
