#include "systems/pbkv/client.h"

namespace pbkv {

Client::Client(sim::Simulator* simulator, net::Network* network, net::NodeId id, int client_num,
               const std::vector<net::NodeId>& servers, check::History* history)
    : cluster::OpClient(simulator, network, id, "pbkv.c" + std::to_string(client_num),
                        client_num, servers, history) {}

void Client::BeginPut(const std::string& key, const std::string& value) {
  Begin(check::OpType::kWrite, key, value, /*final_read=*/false);
}

void Client::BeginGet(const std::string& key, bool final_read) {
  Begin(check::OpType::kRead, key, "", final_read);
}

void Client::BeginDelete(const std::string& key) {
  Begin(check::OpType::kDelete, key, "", /*final_read=*/false);
}

void Client::Begin(check::OpType type, const std::string& key, const std::string& value,
                   bool final_read) {
  redirects_left_ = 3;
  OpClient::Begin(type, key, value, final_read, [this]() { return Request(); });
}

std::shared_ptr<ClientRequest> Client::Request() const {
  auto request = std::make_shared<ClientRequest>();
  request->request_id = current_request_id_;
  request->kind = pending_op_.type == check::OpType::kDelete ? OpKind::kDelete : OpKind::kPut;
  request->is_read = pending_op_.type == check::OpType::kRead;
  request->key = pending_op_.key;
  request->value = pending_op_.value;
  return request;
}

void Client::OnMessage(const net::Envelope& envelope) {
  const auto* reply = envelope.msg->As<ClientReply>();
  if (reply == nullptr || !Awaiting(reply->request_id)) {
    return;
  }
  if (reply->not_leader) {
    if (allow_redirect_ && redirects_left_ > 0 && reply->leader_hint != net::kInvalidNode &&
        reply->leader_hint != envelope.src) {
      --redirects_left_;
      SendEnvelope(reply->leader_hint, Request());
      return;
    }
    Complete(check::OpStatus::kFail, "");
    return;
  }
  Complete(reply->ok ? check::OpStatus::kOk : check::OpStatus::kFail, reply->value);
}

}  // namespace pbkv
