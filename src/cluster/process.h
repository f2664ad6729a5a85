// Base class for simulated processes (servers and clients).
//
// A Process owns a NodeId on the network, receives messages through
// OnMessage, and schedules work with epoch-guarded timers: crashing a
// process bumps its epoch so every pending timer from the previous
// incarnation silently expires, and restarting begins a fresh incarnation.
// This models the paper's crash API (NEAT "provides an API for crashing any
// group of nodes") and lets tests distinguish crashed nodes from partitioned
// ones — the distinction at the heart of the studied failures.
//
// Snapshot shape: a subclass keeps every field that changes after
// construction in one state struct it inherits privately (see
// pbkv::ServerState), with a defaulted operator==; CaptureState returns
// that value and RestoreState assigns it. Fields fixed at construction are
// const. Process does the same with its kernel state (ProcessKernel). A
// crash keeps every field: Restart re-runs OnStart on the state as the
// crash left it.

#ifndef CLUSTER_PROCESS_H_
#define CLUSTER_PROCESS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "net/network.h"
#include "sim/simulator.h"

namespace cluster {

// The kernel-level incarnation state Process owns. Subclasses keep their
// own fields in their own state value; this covers what Process itself
// owns. Restoring the epoch exactly matters: the pending timers a
// simulator checkpoint copies guard on `epoch_ == epoch`, so a rewound
// process must present the epoch its timers were scheduled under.
struct ProcessKernel {
  uint64_t epoch_ = 0;
  bool crashed_ = true;  // not booted yet
  bool booted_once_ = false;
  bool operator==(const ProcessKernel&) const = default;
};

class Process : private ProcessKernel {
 public:
  Process(sim::Simulator* simulator, net::Network* network, net::NodeId id, std::string name);
  virtual ~Process();

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  // Registers with the network and runs OnStart. Must be called once before
  // the simulation runs; Restart() re-boots after a crash.
  void Boot();

  // Halts the process: detaches from the network and invalidates all pending
  // timers. Messages in flight to this node are dropped on delivery.
  void Crash();

  // Re-boots a crashed process as a new incarnation (fresh epoch, OnRestart
  // then OnStart). Volatile state handling is up to the subclass.
  void Restart();

  net::NodeId id() const { return id_; }
  const std::string& name() const { return name_; }
  bool crashed() const { return crashed_; }
  uint64_t incarnation() const { return epoch_; }

  // --- snapshot / restore (NEAT fork executor) ---
  using KernelState = ProcessKernel;
  KernelState CaptureKernel() const { return *this; }
  // Reinstates the kernel state, re-registering with (or detaching from)
  // the network when the crashed-ness differs from the current one. Does
  // not run the OnStart/OnRestart/OnCrash hooks — the subclass restores its
  // own state to match.
  void RestoreKernel(const KernelState& state);

 protected:
  // Subclass hooks.
  virtual void OnStart() {}
  virtual void OnRestart() {}
  virtual void OnCrash() {}
  virtual void OnMessage(const net::Envelope& envelope) = 0;

  // Runs `fn` after `delay`, unless the process crashes first.
  sim::EventId After(sim::Duration delay, std::function<void()> fn);

  // Runs `fn` every `period`, starting one period from now, until crash.
  void Every(sim::Duration period, std::function<void()> fn);

  // Sends a message to a peer (or to self, which still traverses the
  // network and its partition rules — self-links are never partitioned).
  template <typename M, typename... Args>
  void Send(net::NodeId dst, Args&&... args) {
    network_->SendNew<M>(id_, dst, std::forward<Args>(args)...);
  }

  void SendEnvelope(net::NodeId dst, std::shared_ptr<const net::Message> msg) {
    network_->Send(id_, dst, std::move(msg));
  }

  // Appends a record to the simulation trace under this process's name.
  void TraceEvent(const std::string& event, const std::string& detail = "") const;

  sim::Simulator* simulator() const { return simulator_; }
  net::Network* network() const { return network_; }
  sim::Time Now() const { return simulator_->Now(); }

 private:
  void RegisterHandler();
  void ScheduleTick(uint64_t epoch, sim::Duration period, std::function<void()> fn);

  sim::Simulator* const simulator_;
  net::Network* const network_;
  const net::NodeId id_;
  const std::string name_;
};

}  // namespace cluster

#endif  // CLUSTER_PROCESS_H_
