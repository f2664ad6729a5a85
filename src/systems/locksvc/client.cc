#include "systems/locksvc/client.h"

#include <memory>

namespace locksvc {

Client::Client(sim::Simulator* simulator, net::Network* network, net::NodeId id,
               int client_num, const std::vector<net::NodeId>& servers, check::History* history,
               sim::Duration keepalive_interval)
    : cluster::OpClient(simulator, network, id, "locksvc.c" + std::to_string(client_num),
                        client_num, servers, history),
      keepalive_interval_(keepalive_interval) {}

void Client::OnStart() {
  Every(keepalive_interval_, [this]() {
    if (held_resources_ > 0) {
      auto msg = std::make_shared<KeepAlive>();
      msg->client = client_num_;
      SendEnvelope(contact_, msg);
    }
  });
}

void Client::BeginLock(const std::string& resource) {
  Begin(check::OpType::kLock, ResourceKind::kLock, ClientOp::kAcquire, resource, 1);
}

void Client::BeginUnlock(const std::string& resource) {
  Begin(check::OpType::kUnlock, ResourceKind::kLock, ClientOp::kRelease, resource, 1);
}

void Client::BeginSemAcquire(const std::string& semaphore, int permits) {
  Begin(check::OpType::kSemAcquire, ResourceKind::kSemaphore, ClientOp::kAcquire, semaphore,
        permits);
}

void Client::BeginSemRelease(const std::string& semaphore) {
  Begin(check::OpType::kSemRelease, ResourceKind::kSemaphore, ClientOp::kRelease, semaphore, 1);
}

void Client::BeginIncrement(const std::string& counter) {
  Begin(check::OpType::kOther, ResourceKind::kCounter, ClientOp::kIncrement, counter, 1);
}

void Client::Begin(check::OpType type, ResourceKind kind, ClientOp op,
                   const std::string& resource, int permits) {
  OpClient::Begin(type, resource, "", /*final_read=*/false, [&]() {
    auto request = std::make_shared<ClientLockRequest>();
    request->request_id = current_request_id_;
    request->kind = kind;
    request->op = op;
    request->resource = resource;
    request->permits = permits;
    return request;
  });
}

void Client::OnMessage(const net::Envelope& envelope) {
  const auto* reply = envelope.msg->As<ClientLockReply>();
  if (reply == nullptr || !Awaiting(reply->request_id)) {
    return;
  }
  if (reply->ok) {
    const check::OpType type = pending_op_.type;
    if (type == check::OpType::kLock || type == check::OpType::kSemAcquire) {
      ++held_resources_;
    } else if ((type == check::OpType::kUnlock || type == check::OpType::kSemRelease) &&
               held_resources_ > 0) {
      --held_resources_;
    } else if (type == check::OpType::kOther) {
      last_counter_value_ = reply->counter_value;
      pending_op_.value = std::to_string(reply->counter_value);
    }
  }
  Complete(reply->ok ? check::OpStatus::kOk : check::OpStatus::kFail, "");
}

}  // namespace locksvc
