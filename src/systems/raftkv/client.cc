#include "systems/raftkv/client.h"

#include <utility>

namespace raftkv {

Client::Client(sim::Simulator* simulator, net::Network* network, net::NodeId id,
               int client_num, const std::vector<net::NodeId>& servers, check::History* history)
    : cluster::OpClient(simulator, network, id, "raft.c" + std::to_string(client_num),
                        client_num, servers, history) {
  op_timeout_ = sim::Milliseconds(1500);
}

void Client::BeginPut(const std::string& key, const std::string& value) {
  Command command;
  command.kind = CommandKind::kPut;
  command.key = key;
  command.value = value;
  Begin(check::OpType::kWrite, std::move(command), /*final_read=*/false);
}

void Client::BeginGet(const std::string& key, bool final_read) {
  Command command;
  command.kind = CommandKind::kGet;
  command.key = key;
  Begin(check::OpType::kRead, std::move(command), final_read);
}

void Client::BeginDelete(const std::string& key) {
  Command command;
  command.kind = CommandKind::kDelete;
  command.key = key;
  Begin(check::OpType::kDelete, std::move(command), /*final_read=*/false);
}

void Client::BeginChangeMembers(std::vector<net::NodeId> members) {
  Command command;
  command.kind = CommandKind::kConfig;
  command.members = std::move(members);
  Begin(check::OpType::kOther, std::move(command), /*final_read=*/false);
}

void Client::Begin(check::OpType type, Command command, bool final_read) {
  current_command_ = std::move(command);
  redirects_left_ = 3;
  OpClient::Begin(type, current_command_.key, current_command_.value, final_read,
                  [this]() { return Request(); });
}

std::shared_ptr<ClientCommand> Client::Request() const {
  auto msg = std::make_shared<ClientCommand>();
  msg->request_id = current_request_id_;
  msg->command = current_command_;
  return msg;
}

void Client::OnMessage(const net::Envelope& envelope) {
  const auto* resp = envelope.msg->As<ClientResponse>();
  if (resp == nullptr || !Awaiting(resp->request_id)) {
    return;
  }
  if (resp->not_leader) {
    if (allow_redirect_ && redirects_left_ > 0 && resp->leader_hint != net::kInvalidNode &&
        resp->leader_hint != envelope.src) {
      --redirects_left_;
      SendEnvelope(resp->leader_hint, Request());
      return;
    }
    Complete(check::OpStatus::kFail, "");
    return;
  }
  Complete(resp->ok ? check::OpStatus::kOk : check::OpStatus::kFail, resp->value);
}

}  // namespace raftkv
