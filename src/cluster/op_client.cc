#include "cluster/op_client.h"

#include <cassert>
#include <utility>

namespace cluster {

OpClient::OpClient(sim::Simulator* simulator, net::Network* network, net::NodeId id,
                   std::string name, int client_num, const std::vector<net::NodeId>& servers,
                   check::History* history)
    : Process(simulator, network, id, std::move(name)),
      client_num_(client_num),
      history_(history) {
  assert(!servers.empty());
  contact_ = servers.front();
}

void OpClient::Open(check::OpType type, const std::string& key, const std::string& value,
                    bool final_read) {
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
}

void OpClient::ArmTimeout() {
  timeout_timer_ = After(op_timeout_, [this]() {
    if (outstanding_) {
      Complete(check::OpStatus::kTimeout, "");
    }
  });
}

void OpClient::Complete(check::OpStatus status, const std::string& value) {
  outstanding_ = false;
  simulator()->Cancel(timeout_timer_);
  pending_op_.completed = Now();
  pending_op_.status = status;
  if (pending_op_.type == check::OpType::kRead || pending_op_.type == check::OpType::kDequeue) {
    pending_op_.value = value;
  }
  last_op_ = pending_op_;
  if (history_ != nullptr) {
    last_op_.id = history_->Record(pending_op_);
  }
}

}  // namespace cluster
