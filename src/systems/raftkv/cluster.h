// A wired raftkv deployment.

#ifndef SYSTEMS_RAFTKV_CLUSTER_H_
#define SYSTEMS_RAFTKV_CLUSTER_H_

#include <memory>
#include <string>
#include <vector>

#include "check/history.h"
#include "neat/env.h"
#include "net/partition.h"
#include "systems/raftkv/client.h"
#include "systems/raftkv/server.h"

namespace raftkv {

class Cluster {
 public:
  struct Config {
    Options options;
    int num_servers = 5;
    int num_clients = 2;
    uint64_t seed = 1;
    bool use_switch_backend = true;
  };

  explicit Cluster(const Config& config);

  sim::Simulator& simulator() { return env_.simulator(); }
  net::Partitioner& partitioner() { return env_.partitioner(); }
  check::History& history() { return env_.history(); }
  neat::TestEnv& env() { return env_; }
  const std::vector<net::NodeId>& server_ids() const { return server_ids_; }
  Server& server(net::NodeId id);
  Client& client(int index) { return *clients_.at(static_cast<size_t>(index)); }

  void Settle(sim::Duration duration) { env_.Sleep(duration); }
  // Runs until some server is leader (or the deadline passes); returns it.
  net::NodeId WaitForLeader(sim::Duration deadline = sim::Seconds(5));
  std::vector<net::NodeId> Leaders() const;

  check::Operation Put(int client, const std::string& key, const std::string& value);
  check::Operation Get(int client, const std::string& key, bool final_read = false);
  check::Operation Delete(int client, const std::string& key);
  check::Operation ChangeMembers(int client, std::vector<net::NodeId> members);

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

}  // namespace raftkv

#endif  // SYSTEMS_RAFTKV_CLUSTER_H_
