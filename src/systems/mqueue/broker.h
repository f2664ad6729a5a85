// A queue broker. Mastership is an ephemeral entry in the coordination
// service; slaves watch it and race to re-create it when it disappears.

#ifndef SYSTEMS_MQUEUE_BROKER_H_
#define SYSTEMS_MQUEUE_BROKER_H_

#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "cluster/failure_detector.h"
#include "cluster/process.h"
#include "systems/mqueue/messages.h"
#include "systems/mqueue/types.h"
#include "systems/zk/messages.h"

namespace mqueue {

// Every field of a Broker that changes after construction, as one value:
// a snapshot copies it and a restore assigns it (Broker::CaptureState).
// Broker inherits it privately, so its handlers name the fields directly.
struct BrokerState {
  struct PendingOp {
    net::NodeId client = net::kInvalidNode;
    uint64_t request_id = 0;
    QueueOp op = QueueOp::kEnqueue;
    std::string queue;
    std::string value;
    std::set<net::NodeId> acks;
    size_t needed = 0;
    sim::EventId timer = sim::kInvalidEventId;
    bool operator==(const PendingOp&) const = default;
  };

  bool is_master_ = false;
  bool create_pending_ = false;
  sim::Time last_zk_pong_ = sim::kTimeZero;
  uint64_t next_zk_request_ = 1;
  uint64_t next_seq_ = 1;
  std::map<std::string, std::deque<std::string>> queues_;
  std::map<uint64_t, PendingOp> pending_;
  cluster::FailureDetector detector_;

  bool operator==(const BrokerState&) const = default;
};

class Broker : public cluster::Process, private BrokerState {
 public:
  Broker(sim::Simulator* simulator, net::Network* network, net::NodeId id,
         const Options& options, std::vector<net::NodeId> brokers, net::NodeId zk);

  bool is_master() const { return is_master_; }
  size_t QueueSize(const std::string& queue) const;
  bool QueueContains(const std::string& queue, const std::string& value) const;

  // --- snapshot / restore (NEAT fork executor) ---
  using State = BrokerState;
  State CaptureState() const { return *this; }
  void RestoreState(const State& state) { static_cast<State&>(*this) = state; }

 protected:
  void OnStart() override;
  void OnMessage(const net::Envelope& envelope) override;

 private:
  void Tick();
  void TryBecomeMaster();
  void ResignMastership(const std::string& reason);
  void HandleClientRequest(const net::Envelope& envelope, const ClientQueueRequest& request);
  void HandleReplOp(const net::Envelope& envelope, const ReplOp& msg);
  void HandleReplAck(const net::Envelope& envelope, const ReplAck& msg);
  void FinishOp(uint64_t seq, bool ok);
  void Reply(net::NodeId client, uint64_t request_id, bool ok, const std::string& value,
             bool not_master = false);
  bool LeaseValid() const;
  size_t Majority() const { return brokers_.size() / 2 + 1; }

  // Applies an op to the local queues. For dequeue, removes `value`.
  void ApplyLocal(QueueOp op, const std::string& queue, const std::string& value);

  const Options options_;
  const std::vector<net::NodeId> brokers_;
  const net::NodeId zk_;  // the registry
};

}  // namespace mqueue

#endif  // SYSTEMS_MQUEUE_BROKER_H_
