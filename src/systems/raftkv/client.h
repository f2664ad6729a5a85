// A raftkv client (including the admin operations).

#ifndef SYSTEMS_RAFTKV_CLIENT_H_
#define SYSTEMS_RAFTKV_CLIENT_H_

#include <string>
#include <vector>

#include "check/history.h"
#include "cluster/process.h"
#include "systems/raftkv/messages.h"

namespace raftkv {

// Every field of a Client that changes after construction, as one value
// (see ServerState).
struct ClientState {
  net::NodeId contact_ = net::kInvalidNode;
  bool allow_redirect_ = true;
  sim::Duration op_timeout_ = sim::Milliseconds(1500);

  bool outstanding_ = false;
  Command current_command_;
  uint64_t next_request_id_ = 1;
  uint64_t current_request_id_ = 0;
  int redirects_left_ = 0;
  check::Operation pending_op_;
  check::Operation last_op_;
  sim::EventId timeout_timer_ = sim::kInvalidEventId;

  bool operator==(const ClientState&) const = default;
};

class Client : public cluster::Process, private ClientState {
 public:
  Client(sim::Simulator* simulator, net::Network* network, net::NodeId id, int client_num,
         std::vector<net::NodeId> servers, check::History* history);

  void set_contact(net::NodeId contact) { contact_ = contact; }
  void set_allow_redirect(bool allow) { allow_redirect_ = allow; }
  void set_op_timeout(sim::Duration timeout) { op_timeout_ = timeout; }

  void BeginPut(const std::string& key, const std::string& value);
  void BeginGet(const std::string& key, bool final_read = false);
  void BeginDelete(const std::string& key);
  // Admin: replace the cluster membership (modelled on RethinkDB's
  // "change the replication factor").
  void BeginChangeMembers(std::vector<net::NodeId> members);

  bool idle() const { return !outstanding_; }
  const check::Operation& last_op() const { return last_op_; }

  // --- snapshot / restore (NEAT fork executor) ---
  using State = ClientState;
  State CaptureState() const { return *this; }
  void RestoreState(const State& state) { static_cast<State&>(*this) = state; }

 protected:
  void OnMessage(const net::Envelope& envelope) override;

 private:
  void Begin(check::OpType type, Command command, bool final_read);
  void Complete(check::OpStatus status, const std::string& value);

  const int client_num_;
  const std::vector<net::NodeId> servers_;
  check::History* const history_;
};

}  // namespace raftkv

#endif  // SYSTEMS_RAFTKV_CLIENT_H_
