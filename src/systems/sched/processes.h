// The scheduler system's processes: ResourceManager, Worker (which can host
// an AppMaster), OutputStore, and Client.

#ifndef SYSTEMS_SCHED_PROCESSES_H_
#define SYSTEMS_SCHED_PROCESSES_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "check/checkers.h"
#include "check/history.h"
#include "cluster/op_client.h"
#include "cluster/process.h"
#include "systems/sched/messages.h"
#include "systems/sched/types.h"

namespace sched {

// The shared durable store (HDFS analog): registers current attempts,
// records executions, and accepts or fences result commits.
class OutputStore : public cluster::Process {
 public:
  OutputStore(sim::Simulator* simulator, net::Network* network, net::NodeId id,
              const Options& options);

  // Committed results, in order (two entries with the same task id =
  // double execution of a user-visible result).
  const std::vector<check::TaskExecution>& commits() const { return commits_; }
  // Every container run (for the wasted-work metric).
  const std::vector<check::TaskExecution>& container_runs() const { return container_runs_; }

 protected:
  void OnMessage(const net::Envelope& envelope) override;

 private:
  Options options_;
  std::map<std::string, int> current_attempt_;
  std::vector<check::TaskExecution> commits_;
  std::vector<check::TaskExecution> container_runs_;
};

// A worker runs containers, and hosts an AppMaster when the RM says so.
class Worker : public cluster::Process {
 public:
  Worker(sim::Simulator* simulator, net::Network* network, net::NodeId id,
         const Options& options, std::vector<net::NodeId> workers, net::NodeId rm,
         net::NodeId store);

  bool HostsAppMasterFor(const std::string& task_id) const;

 protected:
  void OnMessage(const net::Envelope& envelope) override;

 private:
  struct AppMaster {
    int attempt = 0;
    net::NodeId client = net::kInvalidNode;
    std::set<int> pending_parts;
    std::map<int, int> dispatch_tries;  // part -> attempts, for re-dispatch
    bool committed = false;
  };

  void DispatchContainer(const std::string& task_id, AppMaster& am, int part);

  void StartAm(const StartAppMaster& msg);
  void OnContainerDone(const ContainerDone& msg);
  void OnCommitAck(const CommitAck& msg);

  Options options_;
  std::vector<net::NodeId> workers_;
  net::NodeId rm_;
  net::NodeId store_;
  std::map<std::string, AppMaster> app_masters_;  // tasks this node is AM for
};

class ResourceManager : public cluster::Process {
 public:
  ResourceManager(sim::Simulator* simulator, net::Network* network, net::NodeId id,
                  const Options& options, std::vector<net::NodeId> workers,
                  net::NodeId store);

  int AttemptOf(const std::string& task_id) const;

 protected:
  void OnStart() override;
  void OnMessage(const net::Envelope& envelope) override;

 private:
  struct Task {
    int attempt = 0;
    net::NodeId am_node = net::kInvalidNode;
    net::NodeId client = net::kInvalidNode;
    sim::Time last_am_heartbeat = sim::kTimeZero;
    bool done = false;
  };

  void Tick();
  void LaunchAttempt(const std::string& task_id, Task& task);

  Options options_;
  std::vector<net::NodeId> workers_;
  net::NodeId store_;
  std::map<std::string, Task> tasks_;
  size_t next_worker_ = 0;  // round-robin AM placement
};

// The cluster::OpClient skeleton with the ResourceManager as its contact.
class Client : public cluster::OpClient {
 public:
  Client(sim::Simulator* simulator, net::Network* network, net::NodeId id, int client_num,
         net::NodeId rm, check::History* history);

  void BeginSubmit(const std::string& task_id);
  // Result notifications received, possibly more than one per task.
  const std::vector<std::pair<std::string, int>>& results() const { return results_; }
  int ResultCount(const std::string& task_id) const;

 protected:
  void OnMessage(const net::Envelope& envelope) override;

 private:
  std::vector<std::pair<std::string, int>> results_;
};

}  // namespace sched

#endif  // SYSTEMS_SCHED_PROCESSES_H_
