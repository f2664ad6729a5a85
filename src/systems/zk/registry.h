// A minimal coordination service (ZooKeeper analog).
//
// Provides exactly what the queue system needs for master election: a
// key space with ephemeral entries bound to heartbeat sessions, one-shot
// watches, and first-writer-wins creation. Modelled as a single process —
// the systems in the study treat ZooKeeper as a central service, and the
// interesting failures (Figure 6) come from *which sides of a partition can
// reach it*, not from its internal replication.

#ifndef SYSTEMS_ZK_REGISTRY_H_
#define SYSTEMS_ZK_REGISTRY_H_

#include <map>
#include <set>
#include <string>

#include "cluster/process.h"
#include "systems/zk/messages.h"

namespace zksvc {

// Every field of the Registry that changes after construction, as one
// value: a snapshot copies it and a restore assigns it.
struct RegistryState {
  struct Entry {
    std::string data;
    bool ephemeral = true;
    net::NodeId owner = net::kInvalidNode;
    bool operator==(const Entry&) const = default;
  };

  std::map<std::string, Entry> entries_;
  std::map<net::NodeId, sim::Time> sessions_;
  std::map<std::string, std::set<net::NodeId>> watches_;

  bool operator==(const RegistryState&) const = default;
};

class Registry : public cluster::Process, private RegistryState {
 public:
  struct Options {
    sim::Duration session_check_interval = sim::Milliseconds(50);
    sim::Duration session_timeout = sim::Milliseconds(300);
  };

  Registry(sim::Simulator* simulator, net::Network* network, net::NodeId id, Options options);

  // --- introspection ---
  bool Exists(const std::string& path) const { return entries_.count(path) != 0; }
  std::string Data(const std::string& path) const;
  size_t live_sessions() const { return sessions_.size(); }

  // --- snapshot / restore (NEAT fork executor) ---
  using State = RegistryState;
  State CaptureState() const { return *this; }
  void RestoreState(const State& state) { static_cast<State&>(*this) = state; }

 protected:
  void OnStart() override;
  void OnMessage(const net::Envelope& envelope) override;

 private:
  void Tick();
  void Touch(net::NodeId session);
  void ExpireSession(net::NodeId session);
  void FireWatches(const std::string& path, bool deleted);

  const Options options_;
};

}  // namespace zksvc

#endif  // SYSTEMS_ZK_REGISTRY_H_
