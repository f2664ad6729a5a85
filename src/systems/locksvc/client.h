// A locksvc client: locks, semaphores, and atomic counters.
//
// While the client holds any resource it renews its lease with periodic
// keep-alives to its coordinator; the reclaim flaw needs this traffic to
// stop (a partition between client and service) to trigger.

#ifndef SYSTEMS_LOCKSVC_CLIENT_H_
#define SYSTEMS_LOCKSVC_CLIENT_H_

#include <string>
#include <vector>

#include "check/history.h"
#include "cluster/process.h"
#include "systems/locksvc/messages.h"
#include "systems/locksvc/types.h"

namespace locksvc {

// Every field of a Client that changes after construction, as one value
// (see ServerState).
struct ClientState {
  net::NodeId contact_ = net::kInvalidNode;
  sim::Duration op_timeout_ = sim::Milliseconds(800);

  bool outstanding_ = false;
  uint64_t next_request_id_ = 1;
  uint64_t current_request_id_ = 0;
  int held_resources_ = 0;
  check::Operation pending_op_;
  check::Operation last_op_;
  int64_t last_counter_value_ = 0;
  sim::EventId timeout_timer_ = sim::kInvalidEventId;

  bool operator==(const ClientState&) const = default;
};

class Client : public cluster::Process, private ClientState {
 public:
  Client(sim::Simulator* simulator, net::Network* network, net::NodeId id, int client_num,
         std::vector<net::NodeId> servers, check::History* history,
         sim::Duration keepalive_interval);

  void set_contact(net::NodeId contact) { contact_ = contact; }
  void set_op_timeout(sim::Duration timeout) { op_timeout_ = timeout; }

  void BeginLock(const std::string& resource);
  void BeginUnlock(const std::string& resource);
  void BeginSemAcquire(const std::string& semaphore, int permits);
  void BeginSemRelease(const std::string& semaphore);
  void BeginIncrement(const std::string& counter);

  bool idle() const { return !outstanding_; }
  const check::Operation& last_op() const { return last_op_; }
  // The value returned by the last successful increment.
  int64_t last_counter_value() const { return last_counter_value_; }
  int client_num() const { return client_num_; }

  // --- snapshot / restore (NEAT fork executor) ---
  using State = ClientState;
  State CaptureState() const { return *this; }
  void RestoreState(const State& state) { static_cast<State&>(*this) = state; }

 protected:
  void OnStart() override;
  void OnMessage(const net::Envelope& envelope) override;

 private:
  void Begin(check::OpType type, ResourceKind kind, ClientOp op, const std::string& resource,
             int permits);
  void Complete(check::OpStatus status, int64_t counter_value);

  const int client_num_;
  const std::vector<net::NodeId> servers_;
  check::History* const history_;
  const sim::Duration keepalive_interval_;
};

}  // namespace locksvc

#endif  // SYSTEMS_LOCKSVC_CLIENT_H_
