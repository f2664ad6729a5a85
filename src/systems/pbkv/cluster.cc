#include "systems/pbkv/cluster.h"

#include <cassert>

namespace pbkv {

Cluster::Cluster(const Config& config)
    : env_(neat::TestEnv::Options{config.seed, config.use_switch_backend}),
      server_ids_(net::NodeIds(config.options.num_replicas)),
      arbiter_id_(config.options.has_arbiter
                      ? static_cast<net::NodeId>(config.options.num_replicas + 1)
                      : net::kInvalidNode) {
  if (config.options.causal_trace) {
    env_.simulator().Trace().set_causal(true);
  }
  for (net::NodeId id : server_ids_) {
    servers_.push_back(std::make_unique<Server>(&env_.simulator(), &env_.network(), id,
                                                config.options, server_ids_, arbiter_id_));
  }
  if (arbiter_id_ != net::kInvalidNode) {
    servers_.push_back(std::make_unique<Server>(&env_.simulator(), &env_.network(),
                                                arbiter_id_,
                                                config.options, server_ids_, arbiter_id_));
  }
  for (int i = 0; i < config.num_clients; ++i) {
    const net::NodeId client_id = static_cast<net::NodeId>(100 + i + 1);
    clients_.push_back(std::make_unique<Client>(&env_.simulator(), &env_.network(),
                                                client_id, i + 1,
                                                server_ids_, &env_.history()));
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

check::Operation Cluster::Put(int client_index, const std::string& key,
                              const std::string& value) {
  Client& c = client(client_index);
  c.BeginPut(key, value);
  return env_.RunToCompletion(c);
}

check::Operation Cluster::Get(int client_index, const std::string& key, bool final_read) {
  Client& c = client(client_index);
  c.BeginGet(key, final_read);
  return env_.RunToCompletion(c);
}

check::Operation Cluster::Delete(int client_index, const std::string& key) {
  Client& c = client(client_index);
  c.BeginDelete(key);
  return env_.RunToCompletion(c);
}

net::NodeId Cluster::FindPrimary() const {
  net::NodeId found = net::kInvalidNode;
  for (const auto& server : servers_) {
    if (!server->crashed() && server->is_primary()) {
      if (found != net::kInvalidNode) {
        return net::kInvalidNode;  // split brain: no unique primary
      }
      found = server->id();
    }
  }
  return found;
}

std::vector<net::NodeId> Cluster::Primaries() const {
  std::vector<net::NodeId> out;
  for (const auto& server : servers_) {
    if (!server->crashed() && server->is_primary()) {
      out.push_back(server->id());
    }
  }
  return out;
}

uint64_t Cluster::TotalElections() const {
  uint64_t total = 0;
  for (const auto& server : servers_) {
    total += server->elections_started();
  }
  return total;
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

}  // namespace pbkv
