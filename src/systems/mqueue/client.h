// A queue client (producer/consumer).

#ifndef SYSTEMS_MQUEUE_CLIENT_H_
#define SYSTEMS_MQUEUE_CLIENT_H_

#include <string>
#include <vector>

#include "check/history.h"
#include "cluster/process.h"
#include "systems/mqueue/messages.h"

namespace mqueue {

// Every field of a Client that changes after construction, as one value
// (see BrokerState).
struct ClientState {
  net::NodeId contact_ = net::kInvalidNode;
  sim::Duration op_timeout_ = sim::Milliseconds(800);

  bool outstanding_ = false;
  uint64_t next_request_id_ = 1;
  uint64_t current_request_id_ = 0;
  check::Operation pending_op_;
  check::Operation last_op_;
  sim::EventId timeout_timer_ = sim::kInvalidEventId;

  bool operator==(const ClientState&) const = default;
};

class Client : public cluster::Process, private ClientState {
 public:
  Client(sim::Simulator* simulator, net::Network* network, net::NodeId id, int client_num,
         std::vector<net::NodeId> brokers, check::History* history);

  void set_contact(net::NodeId contact) { contact_ = contact; }
  void set_op_timeout(sim::Duration timeout) { op_timeout_ = timeout; }

  void BeginSend(const std::string& queue, const std::string& value);
  void BeginReceive(const std::string& queue, bool final_drain = false);

  bool idle() const { return !outstanding_; }
  const check::Operation& last_op() const { return last_op_; }
  int client_num() const { return client_num_; }

  // --- snapshot / restore (NEAT fork executor) ---
  using State = ClientState;
  State CaptureState() const { return *this; }
  void RestoreState(const State& state) { static_cast<State&>(*this) = state; }

 protected:
  void OnMessage(const net::Envelope& envelope) override;

 private:
  void Begin(check::OpType type, QueueOp op, const std::string& queue,
             const std::string& value, bool final_drain);
  void Complete(check::OpStatus status, const std::string& value);

  const int client_num_;
  const std::vector<net::NodeId> brokers_;
  check::History* const history_;
};

}  // namespace mqueue

#endif  // SYSTEMS_MQUEUE_CLIENT_H_
