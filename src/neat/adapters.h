// ISystem adapters for the model systems, plus the case runners that drive
// generated test cases (neat/testgen.h) against them. Together these are
// the "seven systems tested with NEAT" layer of the paper, scaled to the
// systems this repository implements. Runner factories plug into the
// fork executor (neat/fork.h) directly and into the campaign runner
// (neat/campaign.h) through ReplayExecutor, so a sweep can target any
// model system; the system registry (neat/registry.h) names them.

#ifndef NEAT_ADAPTERS_H_
#define NEAT_ADAPTERS_H_

#include <memory>
#include <string>

#include "neat/fork.h"
#include "neat/registry.h"
#include "neat/system.h"
#include "systems/locksvc/cluster.h"
#include "systems/mqueue/cluster.h"
#include "systems/pbkv/cluster.h"
#include "systems/raftkv/cluster.h"

namespace neat {

// The parts every cluster-backed adapter shares: the owned cluster, its
// environment and crash-all shutdown. Name() reads the key of the registry
// row whose runners drive this adapter type. The cluster is reachable as a
// value: its runner snapshots cluster().CaptureState() (environment plus
// every process) and restores it with cluster().RestoreState().
template <class Cluster>
class ClusterSystem : public ISystem {
 public:
  explicit ClusterSystem(const typename Cluster::Config& config) : cluster_(config) {}
  std::string Name() const override { return SystemName(*this); }
  TestEnv& Env() override { return cluster_.env(); }
  void Shutdown() override { cluster_.env().Crash(Servers()); }
  Cluster& cluster() { return cluster_; }
  const Cluster& cluster() const { return cluster_; }

 protected:
  Cluster cluster_;
};

class PbkvSystem final : public ClusterSystem<pbkv::Cluster> {
 public:
  using ClusterSystem::ClusterSystem;
  net::Group Servers() const override { return cluster_.server_ids(); }
  bool GetStatus() override { return cluster_.FindPrimary() != net::kInvalidNode; }
  uint64_t StateDigest() const override;  // who is primary
};

class RaftKvSystem final : public ClusterSystem<raftkv::Cluster> {
 public:
  using ClusterSystem::ClusterSystem;
  net::Group Servers() const override { return cluster_.server_ids(); }
  bool GetStatus() override { return !cluster_.Leaders().empty(); }
  uint64_t StateDigest() const override;  // the set of self-believed leaders
};

class LocksvcSystem final : public ClusterSystem<locksvc::Cluster> {
 public:
  using ClusterSystem::ClusterSystem;
  net::Group Servers() const override { return cluster_.server_ids(); }
  // Healthy when a lock round-trip works end to end. Probe lock names are
  // numbered by the history length, so a restored instance reuses the
  // same sequence.
  bool GetStatus() override;
  // Per-server membership views. GetStatus() probes with a real lock
  // round-trip and would perturb the run, so the digest reads the views
  // directly instead.
  uint64_t StateDigest() const override;
};

class MqueueSystem final : public ClusterSystem<mqueue::Cluster> {
 public:
  using ClusterSystem::ClusterSystem;
  net::Group Servers() const override { return cluster_.broker_ids(); }
  bool GetStatus() override { return cluster_.MasterPerRegistry() != net::kInvalidNode; }
  uint64_t StateDigest() const override;  // registry master + self-believed masters
};

// --- runner factories ---
//
// Each factory builds the system's case runner under the given options:
// boot and settle in the constructor, one test event per ApplyEvent, and
// heal / settle / final operations / checkers in Finish. The fork executor
// drives it with snapshots between events; ReplayExecutor (neat/fork.h)
// drives a fresh one straight through each case, byte-identically. The
// drivers in adapters.cc document each system's event mapping.
//
// pbkv: KV events through a minority client pinned to the isolated node
// and a majority client on the survivors; judged for dirty reads, data
// loss, reappearance and stale reads.
RunnerFactory PbkvRunnerFactory(const pbkv::Options& options);
// locksvc: lock/unlock events; judged for broken locks.
RunnerFactory LocksvcRunnerFactory(const locksvc::Options& options);
// raftkv (RethinkDB analog): KV events on 5 servers; a partial partition
// reproduces the #5289 membership cut. Adds the linearizability checker.
RunnerFactory RaftKvRunnerFactory(const raftkv::Options& options);
// mqueue (ActiveMQ analog): send/receive events after one pre-fault
// message; judged for double dequeues and lost messages after a drain.
RunnerFactory MqueueRunnerFactory(const mqueue::Options& options);

}  // namespace neat

#endif  // NEAT_ADAPTERS_H_
