#include "systems/raftkv/cluster.h"

#include <cassert>

namespace raftkv {
namespace {

constexpr sim::Duration kOpDeadline = sim::Seconds(10);

}  // namespace

Cluster::Cluster(const Config& config)
    : env_(neat::TestEnv::Options{config.seed, config.use_switch_backend}),
      server_ids_(net::NodeIds(config.num_servers)) {
  if (config.options.causal_trace) {
    env_.simulator().Trace().set_causal(true);
  }
  for (net::NodeId id : server_ids_) {
    servers_.push_back(std::make_unique<Server>(&env_.simulator(), &env_.network(), id,
                                                config.options, server_ids_));
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

std::vector<net::NodeId> Cluster::Leaders() const {
  std::vector<net::NodeId> out;
  for (const auto& server : servers_) {
    if (!server->crashed() && server->is_leader()) {
      out.push_back(server->id());
    }
  }
  return out;
}

net::NodeId Cluster::WaitForLeader(sim::Duration deadline) {
  env_.Await([this]() { return !Leaders().empty(); }, deadline);
  auto leaders = Leaders();
  return leaders.empty() ? net::kInvalidNode : leaders.front();
}

check::Operation Cluster::Put(int client_index, const std::string& key,
                              const std::string& value) {
  Client& c = client(client_index);
  c.BeginPut(key, value);
  return env_.RunToCompletion(c, kOpDeadline);
}

check::Operation Cluster::Get(int client_index, const std::string& key, bool final_read) {
  Client& c = client(client_index);
  c.BeginGet(key, final_read);
  return env_.RunToCompletion(c, kOpDeadline);
}

check::Operation Cluster::Delete(int client_index, const std::string& key) {
  Client& c = client(client_index);
  c.BeginDelete(key);
  return env_.RunToCompletion(c, kOpDeadline);
}

check::Operation Cluster::ChangeMembers(int client_index, std::vector<net::NodeId> members) {
  Client& c = client(client_index);
  c.BeginChangeMembers(std::move(members));
  return env_.RunToCompletion(c, kOpDeadline);
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

}  // namespace raftkv
