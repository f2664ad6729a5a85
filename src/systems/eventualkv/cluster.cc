#include "systems/eventualkv/cluster.h"

#include <cassert>

namespace eventualkv {

Client::Client(sim::Simulator* simulator, net::Network* network, net::NodeId id,
               int client_num, const std::vector<net::NodeId>& servers, check::History* history)
    : cluster::OpClient(simulator, network, id, "ekv.c" + std::to_string(client_num),
                        client_num, servers, history) {}

void Client::BeginPut(const std::string& key, const std::string& value) {
  Begin(check::OpType::kWrite, ClientKvRequest::Op::kPut, key, value, /*final_read=*/false);
}

void Client::BeginGet(const std::string& key, bool final_read) {
  Begin(check::OpType::kRead, ClientKvRequest::Op::kGet, key, "", final_read);
}

void Client::BeginDelete(const std::string& key) {
  Begin(check::OpType::kDelete, ClientKvRequest::Op::kDelete, key, "", /*final_read=*/false);
}

void Client::Begin(check::OpType type, ClientKvRequest::Op op, const std::string& key,
                   const std::string& value, bool final_read) {
  OpClient::Begin(type, key, value, final_read, [&]() {
    auto request = std::make_shared<ClientKvRequest>();
    request->request_id = current_request_id_;
    request->op = op;
    request->key = key;
    request->value = value;
    return request;
  });
}

void Client::OnMessage(const net::Envelope& envelope) {
  const auto* reply = envelope.msg->As<ClientKvReply>();
  if (reply == nullptr || !Awaiting(reply->request_id)) {
    return;
  }
  Complete(reply->ok ? check::OpStatus::kOk : check::OpStatus::kFail, reply->value);
}

Cluster::Cluster(const Config& config)
    : env_(neat::TestEnv::Options{config.seed, config.use_switch_backend}) {
  server_ids_ = net::NodeIds(config.options.num_replicas);
  for (net::NodeId id : server_ids_) {
    servers_.push_back(std::make_unique<Server>(&env_.simulator(), &env_.network(), id,
                                                config.options, server_ids_,
                                                config.hints_count_toward_quorum));
  }
  for (int i = 0; i < config.num_clients; ++i) {
    const net::NodeId client_id = static_cast<net::NodeId>(100 + i + 1);
    clients_.push_back(std::make_unique<Client>(&env_.simulator(), &env_.network(), client_id,
                                                i + 1, server_ids_, &env_.history()));
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

}  // namespace eventualkv
