// A raftkv client (including the admin operations): the cluster::OpClient
// skeleton plus raftkv's command request, its reply mapping and its
// "not leader" redirect rule.

#ifndef SYSTEMS_RAFTKV_CLIENT_H_
#define SYSTEMS_RAFTKV_CLIENT_H_

#include <memory>
#include <string>
#include <vector>

#include "cluster/op_client.h"
#include "systems/raftkv/messages.h"

namespace raftkv {

// The fields a Client adds to the skeleton's, as one value (see
// ServerState).
struct ClientState {
  bool allow_redirect_ = true;
  Command current_command_;
  int redirects_left_ = 0;

  bool operator==(const ClientState&) const = default;
};

class Client : public cluster::OpClient, private ClientState {
 public:
  Client(sim::Simulator* simulator, net::Network* network, net::NodeId id, int client_num,
         const std::vector<net::NodeId>& servers, check::History* history);

  void set_allow_redirect(bool allow) { allow_redirect_ = allow; }

  void BeginPut(const std::string& key, const std::string& value);
  void BeginGet(const std::string& key, bool final_read = false);
  void BeginDelete(const std::string& key);
  // Admin: replace the cluster membership (modelled on RethinkDB's
  // "change the replication factor").
  void BeginChangeMembers(std::vector<net::NodeId> members);

  // --- snapshot / restore (NEAT fork executor) ---
  struct State : cluster::OpClientState, ClientState {
    bool operator==(const State&) const = default;
  };
  State CaptureState() const { return {*this, *this}; }
  void RestoreState(const State& state) {
    static_cast<cluster::OpClientState&>(*this) = state;
    static_cast<ClientState&>(*this) = state;
  }

 protected:
  void OnMessage(const net::Envelope& envelope) override;

 private:
  void Begin(check::OpType type, Command command, bool final_read);
  // The outstanding op's request, rebuilt from current_command_ on redirect.
  std::shared_ptr<ClientCommand> Request() const;
};

}  // namespace raftkv

#endif  // SYSTEMS_RAFTKV_CLIENT_H_
