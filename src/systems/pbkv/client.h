// A pbkv client process: the cluster::OpClient skeleton plus pbkv's
// request, its reply mapping and its "not leader" redirect rule.

#ifndef SYSTEMS_PBKV_CLIENT_H_
#define SYSTEMS_PBKV_CLIENT_H_

#include <memory>
#include <string>
#include <vector>

#include "cluster/op_client.h"
#include "systems/pbkv/messages.h"

namespace pbkv {

// The fields a Client adds to the skeleton's, as one value (see
// ServerState).
struct ClientState {
  bool allow_redirect_ = true;
  int redirects_left_ = 0;

  bool operator==(const ClientState&) const = default;
};

class Client : public cluster::OpClient, private ClientState {
 public:
  Client(sim::Simulator* simulator, net::Network* network, net::NodeId id, int client_num,
         const std::vector<net::NodeId>& servers, check::History* history);

  // Whether a "not leader" reply is followed to the hinted leader.
  void set_allow_redirect(bool allow) { allow_redirect_ = allow; }

  // Begins an operation; completion is observable through idle(). The test
  // engine runs the simulator until the client is idle again.
  void BeginPut(const std::string& key, const std::string& value);
  void BeginGet(const std::string& key, bool final_read = false);
  void BeginDelete(const std::string& key);

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
  void Begin(check::OpType type, const std::string& key, const std::string& value,
             bool final_read);
  // The outstanding op's request, rebuilt from the pending op on redirect.
  std::shared_ptr<ClientRequest> Request() const;
};

}  // namespace pbkv

#endif  // SYSTEMS_PBKV_CLIENT_H_
