#include "systems/mqueue/client.h"

#include <cassert>
#include <utility>

namespace mqueue {

Client::Client(sim::Simulator* simulator, net::Network* network, net::NodeId id,
               int client_num, std::vector<net::NodeId> brokers, check::History* history)
    : cluster::Process(simulator, network, id, "mq.c" + std::to_string(client_num)),
      client_num_(client_num),
      brokers_(std::move(brokers)),
      history_(history) {
  assert(!brokers_.empty());
  contact_ = brokers_.front();
}

void Client::BeginSend(const std::string& queue, const std::string& value) {
  Begin(check::OpType::kEnqueue, QueueOp::kEnqueue, queue, value, /*final_drain=*/false);
}

void Client::BeginReceive(const std::string& queue, bool final_drain) {
  Begin(check::OpType::kDequeue, QueueOp::kDequeue, queue, "", final_drain);
}

void Client::Begin(check::OpType type, QueueOp op, const std::string& queue,
                   const std::string& value, bool final_drain) {
  assert(!outstanding_ && "one operation at a time");
  outstanding_ = true;
  current_request_id_ = next_request_id_++;
  pending_op_ = check::Operation{};
  pending_op_.client = client_num_;
  pending_op_.type = type;
  pending_op_.key = queue;
  pending_op_.value = value;
  pending_op_.invoked = Now();
  pending_op_.final_read = final_drain;

  auto request = std::make_shared<ClientQueueRequest>();
  request->request_id = current_request_id_;
  request->op = op;
  request->queue = queue;
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
  if (pending_op_.type == check::OpType::kDequeue) {
    pending_op_.value = value;
  }
  last_op_ = pending_op_;
  if (history_ != nullptr) {
    last_op_.id = history_->Record(pending_op_);
  }
}

void Client::OnMessage(const net::Envelope& envelope) {
  const auto* reply = envelope.msg->As<ClientQueueReply>();
  if (reply == nullptr || !outstanding_ || reply->request_id != current_request_id_) {
    return;
  }
  if (reply->not_master) {
    Complete(check::OpStatus::kFail, "");
    return;
  }
  Complete(reply->ok ? check::OpStatus::kOk : check::OpStatus::kFail, reply->value);
}

}  // namespace mqueue
