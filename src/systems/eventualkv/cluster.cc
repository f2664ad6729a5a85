#include "systems/eventualkv/cluster.h"

#include <cassert>

namespace eventualkv {

Client::Client(sim::Simulator* simulator, net::Network* network, net::NodeId id,
               int client_num, std::vector<net::NodeId> servers, check::History* history)
    : cluster::Process(simulator, network, id, "ekv.c" + std::to_string(client_num)),
      client_num_(client_num),
      servers_(std::move(servers)),
      history_(history) {
  assert(!servers_.empty());
  contact_ = servers_.front();
}

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
  assert(!outstanding_ && "one operation at a time");
  outstanding_ = true;
  current_request_id_ = next_request_id_++;
  pending_op_ = check::Operation{};
  pending_op_.client = client_num_;
  pending_op_.type = type;
  pending_op_.key = key;
  pending_op_.value = value;
  pending_op_.invoked = Now();
  pending_op_.final_read = final_read;

  auto request = std::make_shared<ClientKvRequest>();
  request->request_id = current_request_id_;
  request->op = op;
  request->key = key;
  request->value = value;
  SendEnvelope(contact_, request);
  timeout_timer_ = After(op_timeout_, [this]() {
    if (outstanding_) {
      Complete(check::OpStatus::kTimeout, "");
    }
  });
}

void Client::Complete(check::OpStatus status, const std::string& value) {
  outstanding_ = false;
  simulator()->Cancel(timeout_timer_);
  pending_op_.completed = Now();
  pending_op_.status = status;
  if (pending_op_.type == check::OpType::kRead) {
    pending_op_.value = value;
  }
  last_op_ = pending_op_;
  if (history_ != nullptr) {
    last_op_.id = history_->Record(pending_op_);
  }
}

void Client::OnMessage(const net::Envelope& envelope) {
  const auto* reply = envelope.msg->As<ClientKvReply>();
  if (reply == nullptr || !outstanding_ || reply->request_id != current_request_id_) {
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

check::Operation Cluster::RunToCompletion(Client& c) {
  env_.simulator().RunUntilPredicate([&c]() { return c.idle(); },
                                     env_.simulator().Now() + sim::Seconds(5));
  return c.last_op();
}

check::Operation Cluster::Put(int client_index, const std::string& key,
                              const std::string& value) {
  Client& c = client(client_index);
  c.BeginPut(key, value);
  return RunToCompletion(c);
}

check::Operation Cluster::Get(int client_index, const std::string& key, bool final_read) {
  Client& c = client(client_index);
  c.BeginGet(key, final_read);
  return RunToCompletion(c);
}

check::Operation Cluster::Delete(int client_index, const std::string& key) {
  Client& c = client(client_index);
  c.BeginDelete(key);
  return RunToCompletion(c);
}

}  // namespace eventualkv
