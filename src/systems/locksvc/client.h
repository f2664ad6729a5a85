// A locksvc client: locks, semaphores, and atomic counters, on the
// cluster::OpClient skeleton.
//
// While the client holds any resource it renews its lease with periodic
// keep-alives to its coordinator; the reclaim flaw needs this traffic to
// stop (a partition between client and service) to trigger.

#ifndef SYSTEMS_LOCKSVC_CLIENT_H_
#define SYSTEMS_LOCKSVC_CLIENT_H_

#include <string>
#include <vector>

#include "cluster/op_client.h"
#include "systems/locksvc/messages.h"
#include "systems/locksvc/types.h"

namespace locksvc {

// The fields a Client adds to the skeleton's, as one value (see
// ServerState).
struct ClientState {
  int held_resources_ = 0;
  int64_t last_counter_value_ = 0;

  bool operator==(const ClientState&) const = default;
};

class Client : public cluster::OpClient, private ClientState {
 public:
  Client(sim::Simulator* simulator, net::Network* network, net::NodeId id, int client_num,
         const std::vector<net::NodeId>& servers, check::History* history,
         sim::Duration keepalive_interval);

  void BeginLock(const std::string& resource);
  void BeginUnlock(const std::string& resource);
  void BeginSemAcquire(const std::string& semaphore, int permits);
  void BeginSemRelease(const std::string& semaphore);
  void BeginIncrement(const std::string& counter);

  // The value returned by the last successful increment.
  int64_t last_counter_value() const { return last_counter_value_; }

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
  void OnStart() override;
  void OnMessage(const net::Envelope& envelope) override;

 private:
  void Begin(check::OpType type, ResourceKind kind, ClientOp op, const std::string& resource,
             int permits);

  const sim::Duration keepalive_interval_;
};

}  // namespace locksvc

#endif  // SYSTEMS_LOCKSVC_CLIENT_H_
