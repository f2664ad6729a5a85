#include "cluster/failure_detector.h"

namespace cluster {

FailureDetector::FailureDetector(net::NodeId self, const std::vector<net::NodeId>& peers,
                                 Options options)
    : self_(self), options_(options) {
  for (net::NodeId peer : peers) {
    if (peer != self_) {
      last_heard_.emplace(peer, sim::kTimeZero);
    }
  }
}

void FailureDetector::Reset(sim::Time now) {
  for (auto& [peer, heard] : last_heard_) {
    heard = now;
  }
}

void FailureDetector::RecordHeartbeat(net::NodeId peer, sim::Time now) {
  auto it = last_heard_.find(peer);
  if (it != last_heard_.end()) {
    it->second = now;
  }
}

bool FailureDetector::IsAlive(net::NodeId peer, sim::Time now) const {
  return IsAliveWithin(peer, now, DeathTimeout());
}

bool FailureDetector::IsAliveWithin(net::NodeId peer, sim::Time now,
                                    sim::Duration timeout) const {
  auto it = last_heard_.find(peer);
  if (it == last_heard_.end()) {
    return false;
  }
  return now - it->second <= timeout;
}

sim::Time FailureDetector::LastHeard(net::NodeId peer) const {
  auto it = last_heard_.find(peer);
  return it == last_heard_.end() ? sim::kTimeZero : it->second;
}

std::vector<net::NodeId> FailureDetector::AlivePeers(sim::Time now) const {
  std::vector<net::NodeId> out;
  for (const auto& [peer, heard] : last_heard_) {
    if (now - heard <= DeathTimeout()) {
      out.push_back(peer);
    }
  }
  return out;
}

std::vector<net::NodeId> FailureDetector::DeadPeers(sim::Time now) const {
  std::vector<net::NodeId> out;
  for (const auto& [peer, heard] : last_heard_) {
    if (now - heard > DeathTimeout()) {
      out.push_back(peer);
    }
  }
  return out;
}

}  // namespace cluster
