#include "systems/members/membership.h"

#include <algorithm>

namespace members {

Node::Node(sim::Simulator* simulator, net::Network* network, net::NodeId id,
           const Options& options, std::vector<net::NodeId> seeds)
    : cluster::Process(simulator, network, id, "members.n" + std::to_string(id)),
      options_(options),
      seeds_(std::move(seeds)) {}

void Node::OnStart() {
  if (id() == seeds_.front()) {
    // The designated bootstrap node forms the cluster.
    cluster_id_ = "cluster-" + std::to_string(id());
    members_ = {id()};
    TraceEvent("bootstrap", cluster_id_);
  } else {
    TryDiscover();
  }
  Every(options_.gossip_interval, [this]() {
    if (!joined()) {
      return;
    }
    for (net::NodeId peer : members_) {
      if (peer == id()) {
        continue;
      }
      auto gossip = std::make_shared<MemberGossip>();
      gossip->cluster_id = cluster_id_;
      gossip->members = {members_.begin(), members_.end()};
      SendEnvelope(peer, gossip);
    }
  });
}

void Node::TryDiscover() {
  if (joined()) {
    return;
  }
  for (net::NodeId seed : seeds_) {
    if (seed != id()) {
      Send<JoinRequest>(seed);
    }
  }
  After(options_.discovery_timeout, [this]() {
    if (joined()) {
      return;
    }
    if (options_.form_own_cluster_when_alone) {
      // rabbitmq-server#1455: nobody answered, so "the rest of the cluster
      // must be down" — bootstrap a brand-new cluster.
      cluster_id_ = "cluster-" + std::to_string(id());
      members_ = {id()};
      TraceEvent("self-bootstrap", cluster_id_ + " (independent cluster!)");
    } else {
      TryDiscover();  // keep knocking until a peer answers
    }
  });
}

void Node::OnMessage(const net::Envelope& envelope) {
  const net::Message& msg = *envelope.msg;
  if (msg.As<JoinRequest>() != nullptr) {
    if (!joined()) {
      return;  // cannot admit anyone into a cluster we are not part of
    }
    members_.insert(envelope.src);
    auto accept = std::make_shared<JoinAccept>();
    accept->cluster_id = cluster_id_;
    accept->members = {members_.begin(), members_.end()};
    SendEnvelope(envelope.src, accept);
    return;
  }
  if (auto* accept = msg.As<JoinAccept>()) {
    if (!joined()) {
      cluster_id_ = accept->cluster_id;
      members_.insert(accept->members.begin(), accept->members.end());
      members_.insert(id());
      TraceEvent("joined", cluster_id_);
    }
    return;
  }
  if (auto* gossip = msg.As<MemberGossip>()) {
    if (!joined() || gossip->cluster_id != cluster_id_) {
      // A different cluster id is not mergeable: this is exactly the
      // permanent split of #1455 — nodes of different clusters ignore each
      // other forever.
      return;
    }
    members_.insert(gossip->members.begin(), gossip->members.end());
    return;
  }
}

Deployment::Deployment(const Config& config)
    : env_(neat::TestEnv::Options{config.seed, true}) {
  node_ids_ = net::NodeIds(config.num_nodes);
  for (net::NodeId id : node_ids_) {
    nodes_.push_back(
        std::make_unique<Node>(&env_.simulator(), &env_.network(), id, config.options,
                               node_ids_));
  }
  for (auto& node : nodes_) {
    node->Boot();
    env_.RegisterProcess(node.get());
  }
}

std::set<std::string> Deployment::DistinctClusters() const {
  std::set<std::string> out;
  for (const auto& node : nodes_) {
    if (node->joined()) {
      out.insert(node->cluster_id());
    }
  }
  return out;
}

}  // namespace members
