// A queue client (producer/consumer) on the cluster::OpClient skeleton.

#ifndef SYSTEMS_MQUEUE_CLIENT_H_
#define SYSTEMS_MQUEUE_CLIENT_H_

#include <string>
#include <vector>

#include "cluster/op_client.h"
#include "systems/mqueue/messages.h"

namespace mqueue {

class Client : public cluster::OpClient {
 public:
  Client(sim::Simulator* simulator, net::Network* network, net::NodeId id, int client_num,
         const std::vector<net::NodeId>& brokers, check::History* history);

  void BeginSend(const std::string& queue, const std::string& value);
  void BeginReceive(const std::string& queue, bool final_drain = false);

  // --- snapshot / restore (NEAT fork executor) ---
  // A Client adds no fields to the skeleton's.
  using State = cluster::OpClientState;
  State CaptureState() const { return *this; }
  void RestoreState(const State& state) { static_cast<State&>(*this) = state; }

 protected:
  void OnMessage(const net::Envelope& envelope) override;

 private:
  void Begin(check::OpType type, QueueOp op, const std::string& queue,
             const std::string& value, bool final_drain);
};

}  // namespace mqueue

#endif  // SYSTEMS_MQUEUE_CLIENT_H_
