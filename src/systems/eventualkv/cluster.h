// A wired eventualkv deployment and its client.

#ifndef SYSTEMS_EVENTUALKV_CLUSTER_H_
#define SYSTEMS_EVENTUALKV_CLUSTER_H_

#include <memory>
#include <string>
#include <vector>

#include "check/history.h"
#include "cluster/op_client.h"
#include "neat/env.h"
#include "net/partition.h"
#include "systems/eventualkv/server.h"

namespace eventualkv {

// The cluster::OpClient skeleton plus eventualkv's request and reply
// mapping.
class Client : public cluster::OpClient {
 public:
  Client(sim::Simulator* simulator, net::Network* network, net::NodeId id, int client_num,
         const std::vector<net::NodeId>& servers, check::History* history);

  void BeginPut(const std::string& key, const std::string& value);
  void BeginGet(const std::string& key, bool final_read = false);
  void BeginDelete(const std::string& key);

 protected:
  void OnMessage(const net::Envelope& envelope) override;

 private:
  void Begin(check::OpType type, ClientKvRequest::Op op, const std::string& key,
             const std::string& value, bool final_read);
};

class Cluster {
 public:
  struct Config {
    Options options;
    bool hints_count_toward_quorum = false;
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
  Client& client(int index) { return *clients_.at(static_cast<size_t>(index)); }

  void Settle(sim::Duration duration) { env_.Sleep(duration); }
  check::Operation Put(int client, const std::string& key, const std::string& value);
  check::Operation Get(int client, const std::string& key, bool final_read = false);
  check::Operation Delete(int client, const std::string& key);

 private:
  neat::TestEnv env_;
  std::vector<net::NodeId> server_ids_;
  std::vector<std::unique_ptr<Server>> servers_;
  std::vector<std::unique_ptr<Client>> clients_;
};

}  // namespace eventualkv

#endif  // SYSTEMS_EVENTUALKV_CLUSTER_H_
