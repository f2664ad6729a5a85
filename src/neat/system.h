// The NEAT system-under-test interface (paper Section 6.1).
//
// "To test a system, the developer should implement three classes. First is
// the ISystem interface, which provides methods to install, start, obtain
// the status of, and shut down the target system." In this repository,
// installation and start happen in the adapter's constructor (it builds the
// simulated cluster already booted); GetStatus and Shutdown match the paper.
// The second class — the Client wrappers — are each system's Client
// process; the third — workload and verification — are the tests, benches,
// and the generated test cases in neat/testgen.h.
//
// ISystem has no snapshot API: a case runner (neat/fork.h) snapshots the
// concrete cluster's state value through its adapter (neat/adapters.h).

#ifndef NEAT_SYSTEM_H_
#define NEAT_SYSTEM_H_

#include <cstdint>
#include <string>

#include "neat/env.h"
#include "net/message.h"

namespace neat {

class ISystem {
 public:
  virtual ~ISystem() = default;

  virtual std::string Name() const = 0;

  // The environment this system runs in (network, partitioner, history).
  virtual TestEnv& Env() = 0;

  // The server-side nodes (partition targets).
  virtual net::Group Servers() const = 0;

  // True while the system is able to make progress (e.g. has a leader able
  // to serve requests).
  virtual bool GetStatus() = 0;

  // A digest of the system's externally observable control state right
  // now. Executors sample it between test events; guided campaigns treat
  // digest *transitions* as behavioural coverage (neat/coverage.h).
  // Adapters compute it from read-only state (leader identity, membership
  // views). Const, so a digest probe cannot perturb the system: a probe
  // that sent real operations would change what the run under test does.
  virtual uint64_t StateDigest() const = 0;

  // Crashes every server node.
  virtual void Shutdown() = 0;
};

}  // namespace neat

#endif  // NEAT_SYSTEM_H_
