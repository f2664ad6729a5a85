#include "systems/locksvc/client.h"

#include <cassert>
#include <utility>

namespace locksvc {

Client::Client(sim::Simulator* simulator, net::Network* network, net::NodeId id,
               int client_num, std::vector<net::NodeId> servers, check::History* history,
               sim::Duration keepalive_interval)
    : cluster::Process(simulator, network, id, "locksvc.c" + std::to_string(client_num)),
      client_num_(client_num),
      servers_(std::move(servers)),
      history_(history),
      keepalive_interval_(keepalive_interval) {
  assert(!servers_.empty());
  contact_ = servers_.front();
}

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
  assert(!outstanding_ && "one operation at a time");
  outstanding_ = true;
  current_request_id_ = next_request_id_++;
  pending_op_ = check::Operation{};
  pending_op_.client = client_num_;
  pending_op_.type = type;
  pending_op_.key = resource;
  pending_op_.invoked = Now();

  auto request = std::make_shared<ClientLockRequest>();
  request->request_id = current_request_id_;
  request->kind = kind;
  request->op = op;
  request->resource = resource;
  request->permits = permits;
  SendEnvelope(contact_, request);
  timeout_timer_ = After(op_timeout_, [this]() {
    if (outstanding_) {
      Complete(check::OpStatus::kTimeout, 0);
    }
  });
}

void Client::Complete(check::OpStatus status, int64_t counter_value) {
  outstanding_ = false;
  simulator()->Cancel(timeout_timer_);
  pending_op_.completed = Now();
  pending_op_.status = status;
  if (status == check::OpStatus::kOk) {
    if (pending_op_.type == check::OpType::kLock ||
        pending_op_.type == check::OpType::kSemAcquire) {
      ++held_resources_;
    } else if ((pending_op_.type == check::OpType::kUnlock ||
                pending_op_.type == check::OpType::kSemRelease) &&
               held_resources_ > 0) {
      --held_resources_;
    }
    if (pending_op_.type == check::OpType::kOther) {
      last_counter_value_ = counter_value;
      pending_op_.value = std::to_string(counter_value);
    }
  }
  last_op_ = pending_op_;
  if (history_ != nullptr) {
    last_op_.id = history_->Record(pending_op_);
  }
}

void Client::OnMessage(const net::Envelope& envelope) {
  const auto* reply = envelope.msg->As<ClientLockReply>();
  if (reply == nullptr || !outstanding_ || reply->request_id != current_request_id_) {
    return;
  }
  Complete(reply->ok ? check::OpStatus::kOk : check::OpStatus::kFail, reply->counter_value);
}

}  // namespace locksvc
