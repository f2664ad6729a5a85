// The NEAT test environment (paper Section 6.3, Figure 4).
//
// One TestEnv is the "test engine" node of a NEAT deployment: it owns the
// simulated network and its partition backend, imposes a global order on
// client operations (each operation runs to completion before the next
// starts), records every operation in a history for the checkers, and
// provides the paper's fault-injection API:
//
//   Partition complete(groupA, groupB)
//   Partition partial(groupA, groupB)
//   Partition simplex(groupSrc, groupDst)
//   void heal(Partition)
//   rest(group)                       — all other nodes
//   crash(nodes) / restart(nodes)     — the crash API
//   sleep(duration)                   — advance virtual time
//
// The OpenFlow-style and iptables-style partitioners are selected by
// Options::use_switch_backend, mirroring NEAT's two implementations.

#ifndef NEAT_ENV_H_
#define NEAT_ENV_H_

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "check/history.h"
#include "cluster/op_client.h"
#include "cluster/process.h"
#include "net/network.h"
#include "net/partition.h"
#include "sim/simulator.h"

namespace neat {

class TestEnv {
 public:
  struct Options {
    uint64_t seed = 1;
    // True: central-switch rules (OpenFlow analog). False: per-host
    // firewall chains (iptables analog).
    bool use_switch_backend = true;
  };

  explicit TestEnv(const Options& options);

  TestEnv(const TestEnv&) = delete;
  TestEnv& operator=(const TestEnv&) = delete;

  sim::Simulator& simulator() { return simulator_; }
  net::Network& network() { return *network_; }
  net::Partitioner& partitioner() { return *partitioner_; }
  net::PartitionBackend& backend() { return *backend_; }
  check::History& history() { return history_; }

  // --- the paper's partition API ---
  net::Partition Complete(const net::Group& group_a, const net::Group& group_b);
  net::Partition Partial(const net::Group& group_a, const net::Group& group_b);
  net::Partition Simplex(const net::Group& group_src, const net::Group& group_dst);
  void Heal(net::Partition& partition);
  // All registered nodes not in `group`.
  net::Group Rest(const net::Group& group) const;

  // --- the crash API ---
  // Processes register so they can be addressed by node id.
  void RegisterProcess(cluster::Process* process);
  cluster::Process* FindProcess(net::NodeId node) const;
  void Crash(const net::Group& nodes);
  void Restart(const net::Group& nodes);

  // --- global operation order ---
  // Advances virtual time (the paper's sleep()).
  void Sleep(sim::Duration duration);
  // Runs the simulation until `done` holds or `deadline_from_now` passes.
  bool Await(const std::function<bool()>& done,
             sim::Duration deadline_from_now = sim::Seconds(5));
  // The engine's way of running one client operation to completion: awaits
  // `client`'s outstanding operation (ok, fail or timeout) and returns the
  // operation it recorded.
  check::Operation RunToCompletion(const cluster::OpClient& client,
                                   sim::Duration deadline_from_now = sim::Seconds(5));

  // --- snapshot / restore (NEAT fork executor) ---
  //
  // Everything the environment owns: the simulator checkpoint, the
  // network's value state, the partition backend's rule table, the
  // partition-handle counter, the operation history, and each registered
  // process's kernel incarnation. Captured at quiescent points (between
  // script steps, never mid-event) and restorable only onto this same env —
  // the checkpoint's copies of the pending event closures point at the
  // processes registered here. The registered process set itself must be
  // identical at capture and restore time, which is what lets `kernels`
  // be a flat vector in registration-map (node id) order. Each process's
  // own state value is composed by its cluster (Cluster::CaptureState,
  // beside this State), not by the env.
  struct State {
    sim::Simulator::Checkpoint simulator;
    net::Network::State network;
    std::unique_ptr<net::PartitionBackend::RulesSnapshot> rules;
    uint64_t next_partition_id = 1;
    check::History::State history;
    std::vector<cluster::Process::KernelState> kernels;  // processes_ order
  };
  State Snapshot() const;
  void Restore(const State& state);

 private:
  sim::Simulator simulator_;
  std::unique_ptr<net::PartitionBackend> backend_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<net::Partitioner> partitioner_;
  check::History history_;
  // detlint: allow(snapshot-field): not captured: Snapshot and Restore walk it alongside State::kernels; the registration set is identical at capture and restore by contract (see State doc above)
  std::map<net::NodeId, cluster::Process*> processes_;
};

}  // namespace neat

#endif  // NEAT_ENV_H_
