// A pbkv client process.
//
// One operation is outstanding at a time (the NEAT test engine imposes a
// global order on client operations). Completed operations — including
// timeouts — are recorded in a check::History for the safety checkers.

#ifndef SYSTEMS_PBKV_CLIENT_H_
#define SYSTEMS_PBKV_CLIENT_H_

#include <string>
#include <vector>

#include "check/history.h"
#include "cluster/process.h"
#include "systems/pbkv/messages.h"

namespace pbkv {

// Every field of a Client that changes after construction, as one value
// (see ServerState).
struct ClientState {
  net::NodeId contact_ = net::kInvalidNode;
  bool allow_redirect_ = true;
  sim::Duration op_timeout_ = sim::Milliseconds(800);

  bool outstanding_ = false;
  OpKind request_kind_ = OpKind::kPut;
  bool request_is_read_ = false;
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

  // The server this client talks to first; NEAT tests pin clients to one
  // side of a partition by setting the contact.
  void set_contact(net::NodeId contact) { contact_ = contact; }
  net::NodeId contact() const { return contact_; }

  // Whether a "not leader" reply is followed to the hinted leader.
  void set_allow_redirect(bool allow) { allow_redirect_ = allow; }
  void set_op_timeout(sim::Duration timeout) { op_timeout_ = timeout; }

  // Begins an operation; completion is observable through idle(). The test
  // engine runs the simulator until the client is idle again.
  void BeginPut(const std::string& key, const std::string& value);
  void BeginGet(const std::string& key, bool final_read = false);
  void BeginDelete(const std::string& key);

  bool idle() const { return !outstanding_; }
  // The most recently completed operation (valid once idle after a Begin*).
  const check::Operation& last_op() const { return last_op_; }
  int client_num() const { return client_num_; }

  // --- snapshot / restore (NEAT fork executor) ---
  using State = ClientState;
  State CaptureState() const { return *this; }
  void RestoreState(const State& state) { static_cast<State&>(*this) = state; }

 protected:
  void OnMessage(const net::Envelope& envelope) override;

 private:
  void Begin(check::OpType type, OpKind kind, bool is_read, const std::string& key,
             const std::string& value, bool final_read);
  void SendRequest(net::NodeId target);
  void Complete(check::OpStatus status, const std::string& value);

  const int client_num_;
  const std::vector<net::NodeId> servers_;
  check::History* const history_;
};

}  // namespace pbkv

#endif  // SYSTEMS_PBKV_CLIENT_H_
