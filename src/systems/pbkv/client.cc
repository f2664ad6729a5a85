#include "systems/pbkv/client.h"

#include <cassert>
#include <utility>

namespace pbkv {

Client::Client(sim::Simulator* simulator, net::Network* network, net::NodeId id, int client_num,
               std::vector<net::NodeId> servers, check::History* history)
    : cluster::Process(simulator, network, id, "pbkv.c" + std::to_string(client_num)),
      client_num_(client_num),
      servers_(std::move(servers)),
      history_(history) {
  assert(!servers_.empty());
  contact_ = servers_.front();
}

void Client::BeginPut(const std::string& key, const std::string& value) {
  Begin(check::OpType::kWrite, OpKind::kPut, /*is_read=*/false, key, value,
        /*final_read=*/false);
}

void Client::BeginGet(const std::string& key, bool final_read) {
  Begin(check::OpType::kRead, OpKind::kPut, /*is_read=*/true, key, "", final_read);
}

void Client::BeginDelete(const std::string& key) {
  Begin(check::OpType::kDelete, OpKind::kDelete, /*is_read=*/false, key, "",
        /*final_read=*/false);
}

void Client::Begin(check::OpType type, OpKind kind, bool is_read, const std::string& key,
                   const std::string& value, bool final_read) {
  assert(!outstanding_ && "one operation at a time");
  outstanding_ = true;
  current_request_id_ = next_request_id_++;
  redirects_left_ = 3;
  pending_op_ = check::Operation{};
  pending_op_.client = client_num_;
  pending_op_.type = type;
  pending_op_.key = key;
  pending_op_.value = value;
  pending_op_.invoked = Now();
  pending_op_.final_read = final_read;
  // Stash the wire fields in the request we resend on redirect.
  request_kind_ = kind;
  request_is_read_ = is_read;
  SendRequest(contact_);
  timeout_timer_ = After(op_timeout_, [this]() {
    if (outstanding_) {
      Complete(check::OpStatus::kTimeout, "");
    }
  });
}

void Client::SendRequest(net::NodeId target) {
  auto request = std::make_shared<ClientRequest>();
  request->request_id = current_request_id_;
  request->kind = request_kind_;
  request->is_read = request_is_read_;
  request->key = pending_op_.key;
  request->value = pending_op_.value;
  SendEnvelope(target, request);
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
    const uint64_t op_id = history_->Record(pending_op_);
    last_op_.id = op_id;
  }
}

void Client::OnMessage(const net::Envelope& envelope) {
  const auto* reply = envelope.msg->As<ClientReply>();
  if (reply == nullptr || !outstanding_ || reply->request_id != current_request_id_) {
    return;
  }
  if (reply->not_leader) {
    if (allow_redirect_ && redirects_left_ > 0 && reply->leader_hint != net::kInvalidNode &&
        reply->leader_hint != envelope.src) {
      --redirects_left_;
      SendRequest(reply->leader_hint);
      return;
    }
    Complete(check::OpStatus::kFail, "");
    return;
  }
  Complete(reply->ok ? check::OpStatus::kOk : check::OpStatus::kFail, reply->value);
}

}  // namespace pbkv
