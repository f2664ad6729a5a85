#include "systems/mqueue/client.h"

#include <memory>

namespace mqueue {

Client::Client(sim::Simulator* simulator, net::Network* network, net::NodeId id,
               int client_num, const std::vector<net::NodeId>& brokers, check::History* history)
    : cluster::OpClient(simulator, network, id, "mq.c" + std::to_string(client_num), client_num,
                        brokers, history) {}

void Client::BeginSend(const std::string& queue, const std::string& value) {
  Begin(check::OpType::kEnqueue, QueueOp::kEnqueue, queue, value, /*final_drain=*/false);
}

void Client::BeginReceive(const std::string& queue, bool final_drain) {
  Begin(check::OpType::kDequeue, QueueOp::kDequeue, queue, "", final_drain);
}

void Client::Begin(check::OpType type, QueueOp op, const std::string& queue,
                   const std::string& value, bool final_drain) {
  OpClient::Begin(type, queue, value, final_drain, [&]() {
    auto request = std::make_shared<ClientQueueRequest>();
    request->request_id = current_request_id_;
    request->op = op;
    request->queue = queue;
    request->value = value;
    return request;
  });
}

void Client::OnMessage(const net::Envelope& envelope) {
  const auto* reply = envelope.msg->As<ClientQueueReply>();
  if (reply == nullptr || !Awaiting(reply->request_id)) {
    return;
  }
  if (reply->not_master) {
    Complete(check::OpStatus::kFail, "");
    return;
  }
  Complete(reply->ok ? check::OpStatus::kOk : check::OpStatus::kFail, reply->value);
}

}  // namespace mqueue
