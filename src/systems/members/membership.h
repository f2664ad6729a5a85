// Gossip-based cluster membership (RabbitMQ auto-clustering analog).
//
// Nodes discover the cluster by contacting their seed list. The flaw of
// rabbitmq-server#1455: "a network partition during peer discovery in auto
// clustering causes two clusters to form" — a booting node that cannot
// reach any peer concludes it is the first node and bootstraps a fresh
// cluster. The two clusters never merge, even after the partition heals:
// permanent damage (Finding 3). The corrected node keeps retrying discovery
// until a peer answers (only the designated bootstrap node may form a
// cluster).

#ifndef SYSTEMS_MEMBERS_MEMBERSHIP_H_
#define SYSTEMS_MEMBERS_MEMBERSHIP_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/process.h"
#include "neat/env.h"

namespace members {

struct Options {
  // The #1455 flaw: a node whose discovery attempts all time out forms its
  // own single-node cluster instead of retrying.
  bool form_own_cluster_when_alone = false;

  sim::Duration gossip_interval = sim::Milliseconds(50);
  sim::Duration discovery_timeout = sim::Milliseconds(300);
};

inline Options CorrectOptions() { return Options{}; }

inline Options RabbitMqOptions() {
  Options options;
  options.form_own_cluster_when_alone = true;
  return options;
}

struct JoinRequest final : net::MessageOf<JoinRequest> {
  static constexpr net::MessageType kType{"members.JoinRequest"};
};

struct JoinAccept final : net::MessageOf<JoinAccept> {
  static constexpr net::MessageType kType{"members.JoinAccept"};
  std::string cluster_id;
  std::vector<net::NodeId> members;
};

struct MemberGossip final : net::MessageOf<MemberGossip> {
  static constexpr net::MessageType kType{"members.Gossip"};
  std::string cluster_id;
  std::vector<net::NodeId> members;
};

class Node : public cluster::Process {
 public:
  // `seeds.front()` is the designated bootstrap node.
  Node(sim::Simulator* simulator, net::Network* network, net::NodeId id,
       const Options& options, std::vector<net::NodeId> seeds);

  const std::string& cluster_id() const { return cluster_id_; }
  bool joined() const { return !cluster_id_.empty(); }
  std::vector<net::NodeId> members() const { return {members_.begin(), members_.end()}; }

 protected:
  void OnStart() override;
  void OnMessage(const net::Envelope& envelope) override;

 private:
  void TryDiscover();

  Options options_;
  std::vector<net::NodeId> seeds_;
  std::string cluster_id_;
  std::set<net::NodeId> members_;
};

// A wired deployment of membership nodes, with staggered boot support.
class Deployment {
 public:
  struct Config {
    Options options;
    int num_nodes = 3;
    uint64_t seed = 1;
  };

  explicit Deployment(const Config& config);

  neat::TestEnv& env() { return env_; }
  net::Partitioner& partitioner() { return env_.partitioner(); }
  void Settle(sim::Duration duration) { env_.Sleep(duration); }
  Node& node(net::NodeId id) { return *nodes_.at(static_cast<size_t>(id - 1)); }
  const std::vector<net::NodeId>& node_ids() const { return node_ids_; }

  // Distinct cluster ids currently claimed by joined nodes.
  std::set<std::string> DistinctClusters() const;

 private:
  neat::TestEnv env_;
  std::vector<net::NodeId> node_ids_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace members

#endif  // SYSTEMS_MEMBERS_MEMBERSHIP_H_
