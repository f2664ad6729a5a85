#include "systems/locksvc/cluster.h"

#include <cassert>

namespace locksvc {

Cluster::Cluster(const Config& config)
    : env_(neat::TestEnv::Options{config.seed, config.use_switch_backend}),
      server_ids_(net::NodeIds(config.options.num_replicas)) {
  if (config.options.causal_trace) {
    env_.simulator().Trace().set_causal(true);
  }
  for (net::NodeId id : server_ids_) {
    servers_.push_back(std::make_unique<Server>(&env_.simulator(), &env_.network(), id,
                                                config.options, server_ids_));
  }
  for (int i = 0; i < config.num_clients; ++i) {
    // Client numbering must match the coordinator's "node id - 100" rule.
    const net::NodeId client_id = static_cast<net::NodeId>(100 + i + 1);
    clients_.push_back(std::make_unique<Client>(&env_.simulator(), &env_.network(),
                                                client_id, i + 1,
                                                server_ids_, &env_.history(),
                                                config.options.heartbeat_interval));
  }
  for (auto& server : servers_) {
    server->Boot();
    env_.RegisterProcess(server.get());
  }
  for (auto& client : clients_) {
    client->Boot();
    env_.RegisterProcess(client.get());
  }
}

Server& Cluster::server(net::NodeId id) {
  for (auto& server : servers_) {
    if (server->id() == id) {
      return *server;
    }
  }
  assert(false && "unknown server id");
  return *servers_.front();
}

const Server& Cluster::server(net::NodeId id) const {
  for (const auto& server : servers_) {
    if (server->id() == id) {
      return *server;
    }
  }
  assert(false && "unknown server id");
  return *servers_.front();
}

check::Operation Cluster::Lock(int client_index, const std::string& resource) {
  Client& c = client(client_index);
  c.BeginLock(resource);
  return env_.RunToCompletion(c);
}

check::Operation Cluster::Unlock(int client_index, const std::string& resource) {
  Client& c = client(client_index);
  c.BeginUnlock(resource);
  return env_.RunToCompletion(c);
}

check::Operation Cluster::SemAcquire(int client_index, const std::string& semaphore,
                                     int permits) {
  Client& c = client(client_index);
  c.BeginSemAcquire(semaphore, permits);
  return env_.RunToCompletion(c);
}

check::Operation Cluster::SemRelease(int client_index, const std::string& semaphore) {
  Client& c = client(client_index);
  c.BeginSemRelease(semaphore);
  return env_.RunToCompletion(c);
}

check::Operation Cluster::Increment(int client_index, const std::string& counter) {
  Client& c = client(client_index);
  c.BeginIncrement(counter);
  return env_.RunToCompletion(c);
}

Cluster::State Cluster::CaptureState() const {
  State state;
  state.env = env_.Snapshot();
  state.servers.reserve(servers_.size());
  for (const auto& server : servers_) {
    state.servers.push_back(server->CaptureState());
  }
  state.clients.reserve(clients_.size());
  for (const auto& client : clients_) {
    state.clients.push_back(client->CaptureState());
  }
  return state;
}

void Cluster::RestoreState(const State& state) {
  env_.Restore(state.env);
  for (size_t i = 0; i < servers_.size(); ++i) {
    servers_[i]->RestoreState(state.servers.at(i));
  }
  for (size_t i = 0; i < clients_.size(); ++i) {
    clients_[i]->RestoreState(state.clients.at(i));
  }
}

}  // namespace locksvc
