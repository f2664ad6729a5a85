// A wired locksvc deployment for tests, benches, and the NEAT adapter.

#ifndef SYSTEMS_LOCKSVC_CLUSTER_H_
#define SYSTEMS_LOCKSVC_CLUSTER_H_

#include <memory>
#include <string>
#include <vector>

#include "check/history.h"
#include "neat/env.h"
#include "net/partition.h"
#include "systems/locksvc/client.h"
#include "systems/locksvc/server.h"

namespace locksvc {

class Cluster {
 public:
  struct Config {
    Options options;
    int num_clients = 2;
    uint64_t seed = 1;
    bool use_switch_backend = true;
  };

  explicit Cluster(const Config& config);

  sim::Simulator& simulator() { return env_.simulator(); }
  net::Network& network() { return env_.network(); }
  net::Partitioner& partitioner() { return env_.partitioner(); }
  check::History& history() { return env_.history(); }
  neat::TestEnv& env() { return env_; }
  const std::vector<net::NodeId>& server_ids() const { return server_ids_; }
  Server& server(net::NodeId id);
  // Read-only lookup for const probes (e.g. LocksvcSystem::StateDigest).
  const Server& server(net::NodeId id) const;
  Client& client(int index) { return *clients_.at(static_cast<size_t>(index)); }

  void Settle(sim::Duration duration) { env_.Sleep(duration); }

  check::Operation Lock(int client, const std::string& resource);
  check::Operation Unlock(int client, const std::string& resource);
  check::Operation SemAcquire(int client, const std::string& semaphore, int permits);
  check::Operation SemRelease(int client, const std::string& semaphore);
  check::Operation Increment(int client, const std::string& counter);

  // --- snapshot / restore (NEAT fork executor) ---
  struct State {
    neat::TestEnv::State env;
    std::vector<Server::State> servers;
    std::vector<Client::State> clients;
  };
  State CaptureState() const;
  void RestoreState(const State& state);

 private:
  neat::TestEnv env_;
  const std::vector<net::NodeId> server_ids_;
  std::vector<std::unique_ptr<Server>> servers_;
  std::vector<std::unique_ptr<Client>> clients_;
};

}  // namespace locksvc

#endif  // SYSTEMS_LOCKSVC_CLUSTER_H_
