// A replica of the lock/semaphore/atomics service.
//
// Every replica holds a full copy of the lock tables. A client operation is
// coordinated by the replica the client contacts: the coordinator applies
// the operation locally, pushes it to the peers in its current view, and
// acknowledges per the configured quorum. The flawed configuration removes
// unreachable peers from the view (and then "all in view" is satisfied by
// one partition side alone), and reclaims leases of unreachable clients —
// the two Ignite behaviours behind Figure 5 and the semaphore corruption.

#ifndef SYSTEMS_LOCKSVC_SERVER_H_
#define SYSTEMS_LOCKSVC_SERVER_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "cluster/failure_detector.h"
#include "cluster/process.h"
#include "systems/locksvc/messages.h"
#include "systems/locksvc/types.h"

namespace locksvc {

// Every field of a Server that changes after construction, as one value:
// a snapshot copies it and a restore assigns it (Server::CaptureState).
// Server inherits it privately, so its handlers name the fields directly.
struct ServerState {
  struct Semaphore {
    int permits = 1;
    std::multiset<int> holders;
    bool broken = false;
    bool operator==(const Semaphore&) const = default;
  };
  struct PendingTxn {
    net::NodeId client_node = net::kInvalidNode;
    int client = 0;
    uint64_t request_id = 0;
    ResourceKind kind = ResourceKind::kLock;
    ClientOp op = ClientOp::kAcquire;
    std::string resource;
    int permits = 1;
    int64_t counter_value = 0;
    std::set<net::NodeId> acks;
    std::set<net::NodeId> applied_on;  // peers to roll back on abort
    size_t needed = 0;
    sim::EventId timer = sim::kInvalidEventId;
    bool operator==(const PendingTxn&) const = default;
  };
  struct ClientLease {
    net::NodeId node = net::kInvalidNode;
    sim::Time last_heard = sim::kTimeZero;
    std::vector<std::pair<ResourceKind, std::string>> holdings;
    bool operator==(const ClientLease&) const = default;
  };

  std::set<net::NodeId> view_;

  std::map<std::string, int> locks_;  // resource -> holding client (0 free)
  std::map<std::string, Semaphore> semaphores_;
  std::map<std::string, int64_t> counters_;

  std::map<uint64_t, PendingTxn> pending_;
  uint64_t next_txn_id_ = 1;

  std::map<int, ClientLease> leases_;  // by client number; coordinator-side

  cluster::FailureDetector detector_;

  bool operator==(const ServerState&) const = default;
};

class Server : public cluster::Process, private ServerState {
 public:
  Server(sim::Simulator* simulator, net::Network* network, net::NodeId id,
         const Options& options, std::vector<net::NodeId> replicas);

  // --- introspection ---
  // Client number currently holding `lock` on this replica (0 = free).
  int LockHolder(const std::string& lock) const;
  // Clients currently holding permits of `semaphore` on this replica.
  std::vector<int> SemaphoreHolders(const std::string& semaphore) const;
  bool SemaphoreBroken(const std::string& semaphore) const;
  int64_t CounterValue(const std::string& counter) const;
  const std::set<net::NodeId>& view() const { return view_; }

  // --- snapshot / restore (NEAT fork executor) ---
  using State = ServerState;
  State CaptureState() const { return *this; }
  void RestoreState(const State& state) { static_cast<State&>(*this) = state; }

 protected:
  void OnStart() override;
  void OnMessage(const net::Envelope& envelope) override;

 private:
  void Tick();
  void HandleClientRequest(const net::Envelope& envelope, const ClientLockRequest& request);
  void HandlePeerApply(const net::Envelope& envelope, const PeerApply& msg);
  void HandlePeerAck(const net::Envelope& envelope, const PeerAck& msg);
  void HandlePeerAbort(const PeerAbort& msg);
  void HandleKeepAlive(const net::Envelope& envelope, const KeepAlive& msg);

  // Applies an operation to the local tables. Returns false if it cannot be
  // granted (lock held by someone else, no permits left, ...).
  bool ApplyLocal(ResourceKind kind, ClientOp op, const std::string& resource, int client,
                  int permits, int64_t* counter_value_out);
  void RollbackLocal(ResourceKind kind, const std::string& resource, int client);
  void AbortTxn(uint64_t txn_id);
  void FinishTxn(uint64_t txn_id, bool ok);
  void ReclaimClient(int client);
  size_t QuorumNeeded() const;
  void TrackHolding(int client, net::NodeId client_node, ResourceKind kind,
                    const std::string& resource, bool add);

  const Options options_;
  const std::vector<net::NodeId> replicas_;
};

}  // namespace locksvc

#endif  // SYSTEMS_LOCKSVC_SERVER_H_
