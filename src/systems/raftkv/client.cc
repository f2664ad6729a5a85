#include "systems/raftkv/client.h"

#include <cassert>
#include <utility>

namespace raftkv {

Client::Client(sim::Simulator* simulator, net::Network* network, net::NodeId id,
               int client_num, std::vector<net::NodeId> servers, check::History* history)
    : cluster::Process(simulator, network, id, "raft.c" + std::to_string(client_num)),
      client_num_(client_num),
      servers_(std::move(servers)),
      history_(history) {
  assert(!servers_.empty());
  contact_ = servers_.front();
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
  assert(!outstanding_ && "one operation at a time");
  outstanding_ = true;
  current_command_ = std::move(command);
  current_request_id_ = next_request_id_++;
  redirects_left_ = 3;
  pending_op_ = check::Operation{};
  pending_op_.client = client_num_;
  pending_op_.type = type;
  pending_op_.key = current_command_.key;
  pending_op_.value = current_command_.value;
  pending_op_.invoked = Now();
  pending_op_.final_read = final_read;

  auto msg = std::make_shared<ClientCommand>();
  msg->request_id = current_request_id_;
  msg->command = current_command_;
  SendEnvelope(contact_, msg);
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
  const auto* resp = envelope.msg->As<ClientResponse>();
  if (resp == nullptr || !outstanding_ || resp->request_id != current_request_id_) {
    return;
  }
  if (resp->not_leader) {
    if (allow_redirect_ && redirects_left_ > 0 && resp->leader_hint != net::kInvalidNode &&
        resp->leader_hint != envelope.src) {
      --redirects_left_;
      auto msg = std::make_shared<ClientCommand>();
      msg->request_id = current_request_id_;
      msg->command = current_command_;
      SendEnvelope(resp->leader_hint, msg);
      return;
    }
    Complete(check::OpStatus::kFail, "");
    return;
  }
  Complete(resp->ok ? check::OpStatus::kOk : check::OpStatus::kFail, resp->value);
}

}  // namespace raftkv
