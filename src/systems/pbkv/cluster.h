// A fully wired pbkv deployment: simulator, network, partitioner, servers,
// optional arbiter, and clients. This is the harness that tests, benches,
// and the NEAT adapter build on.

#ifndef SYSTEMS_PBKV_CLUSTER_H_
#define SYSTEMS_PBKV_CLUSTER_H_

#include <memory>
#include <string>
#include <vector>

#include "check/history.h"
#include "neat/env.h"
#include "net/partition.h"
#include "systems/pbkv/client.h"
#include "systems/pbkv/server.h"

namespace pbkv {

class Cluster {
 public:
  struct Config {
    Options options;
    int num_clients = 2;
    uint64_t seed = 1;
    // False selects the iptables-style FirewallPartitioner backend.
    bool use_switch_backend = true;
  };

  explicit Cluster(const Config& config);

  sim::Simulator& simulator() { return env_.simulator(); }
  net::Network& network() { return env_.network(); }
  net::Partitioner& partitioner() { return env_.partitioner(); }
  check::History& history() { return env_.history(); }
  neat::TestEnv& env() { return env_; }

  const std::vector<net::NodeId>& server_ids() const { return server_ids_; }
  net::NodeId arbiter_id() const { return arbiter_id_; }
  Server& server(net::NodeId id);
  Client& client(int index) { return *clients_.at(static_cast<size_t>(index)); }
  int num_clients() const { return static_cast<int>(clients_.size()); }

  // Runs the simulation for a span of virtual time.
  void Settle(sim::Duration duration) { env_.Sleep(duration); }

  // Runs one client operation to completion (ok/fail/timeout) and returns
  // the recorded operation.
  check::Operation Put(int client, const std::string& key, const std::string& value);
  check::Operation Get(int client, const std::string& key, bool final_read = false);
  check::Operation Delete(int client, const std::string& key);

  // The current primary if exactly one server claims the role.
  net::NodeId FindPrimary() const;
  // Primaries currently claiming leadership (2+ means split brain).
  std::vector<net::NodeId> Primaries() const;
  // Total elections started across all servers (thrash metric).
  uint64_t TotalElections() const;

  // --- snapshot / restore (NEAT fork executor) ---
  // The whole deployment as a value: env (sim/net/rules/history/kernels)
  // plus every server's and client's protocol state. Restorable only onto
  // this same cluster instance, at a quiescent point.
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
  const net::NodeId arbiter_id_;
  std::vector<std::unique_ptr<Server>> servers_;
  std::vector<std::unique_ptr<Client>> clients_;
};

}  // namespace pbkv

#endif  // SYSTEMS_PBKV_CLUSTER_H_
