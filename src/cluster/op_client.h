// The client skeleton every model system's client derives from.
//
// One operation is outstanding at a time: the NEAT test engine imposes a
// global order on client operations and runs each to completion
// (neat::TestEnv::RunToCompletion). An operation ends exactly once, either
// by a reply the subclass maps to a status or by the op timeout, and is
// then recorded in a check::History for the safety checkers. A reply that
// carries another request id (a late reply to a timed-out operation) is
// ignored.
//
// A subclass keeps only what differs: its request message (the `make`
// callback of Begin), its reply mapping (OnMessage, which calls Complete),
// its redirect rule and any traffic of its own. The skeleton declares no
// capture/restore pair: a forkable client declares one over a composite
// state that holds OpClientState and its own fields (see pbkv::Client).

#ifndef CLUSTER_OP_CLIENT_H_
#define CLUSTER_OP_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "check/history.h"
#include "cluster/process.h"

namespace cluster {

// Every field of the skeleton that changes after construction, as one value.
struct OpClientState {
  net::NodeId contact_ = net::kInvalidNode;
  sim::Duration op_timeout_ = sim::Milliseconds(800);

  bool outstanding_ = false;
  uint64_t next_request_id_ = 1;
  uint64_t current_request_id_ = 0;
  check::Operation pending_op_;
  check::Operation last_op_;
  sim::EventId timeout_timer_ = sim::kInvalidEventId;

  bool operator==(const OpClientState&) const = default;
};

class OpClient : public Process, protected OpClientState {
 public:
  // The server this client talks to first; NEAT tests pin clients to one
  // side of a partition by setting the contact.
  void set_contact(net::NodeId contact) { contact_ = contact; }
  void set_op_timeout(sim::Duration timeout) { op_timeout_ = timeout; }

  // Completion of a Begin* is observable through idle().
  bool idle() const { return !outstanding_; }
  // The most recently completed operation (valid once idle after a Begin*).
  const check::Operation& last_op() const { return last_op_; }

 protected:
  // The contact starts as servers.front().
  OpClient(sim::Simulator* simulator, net::Network* network, net::NodeId id, std::string name,
           int client_num, const std::vector<net::NodeId>& servers, check::History* history);

  // Opens an operation, sends `make()` to the contact, then arms the op
  // timeout. `make` builds the request and reads current_request_id_.
  template <class Make>
  void Begin(check::OpType type, const std::string& key, const std::string& value,
             bool final_read, const Make& make) {
    Open(type, key, value, final_read);
    SendEnvelope(contact_, make());
    ArmTimeout();
  }

  // True when a reply carrying `request_id` answers the outstanding op.
  bool Awaiting(uint64_t request_id) const {
    return outstanding_ && request_id == current_request_id_;
  }

  // Ends the outstanding op with `status` and records it. Reads and
  // dequeues record `value`, the value the system returned; other ops keep
  // the value they were opened with.
  void Complete(check::OpStatus status, const std::string& value);

  const int client_num_;

 private:
  void Open(check::OpType type, const std::string& key, const std::string& value,
            bool final_read);
  void ArmTimeout();

  check::History* const history_;
};

}  // namespace cluster

#endif  // CLUSTER_OP_CLIENT_H_
