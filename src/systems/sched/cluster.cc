#include "systems/sched/cluster.h"

#include <cassert>

namespace sched {

Cluster::Cluster(const Config& config)
    : env_(neat::TestEnv::Options{config.seed, config.use_switch_backend}) {
  worker_ids_ = net::NodeIds(config.options.num_workers);
  rm_ = std::make_unique<ResourceManager>(&env_.simulator(), &env_.network(), rm_id_,
                                          config.options,
                                          worker_ids_, store_id_);
  store_ = std::make_unique<OutputStore>(&env_.simulator(), &env_.network(), store_id_,
                                         config.options);
  for (net::NodeId id : worker_ids_) {
    workers_.push_back(std::make_unique<Worker>(&env_.simulator(), &env_.network(), id,
                                                config.options, worker_ids_, rm_id_,
                                                store_id_));
  }
  for (int i = 0; i < config.num_clients; ++i) {
    const net::NodeId client_id = static_cast<net::NodeId>(100 + i + 1);
    clients_.push_back(std::make_unique<Client>(&env_.simulator(), &env_.network(),
                                                client_id, i + 1,
                                                rm_id_, &env_.history()));
  }
  rm_->Boot();
  env_.RegisterProcess(rm_.get());
  store_->Boot();
  env_.RegisterProcess(store_.get());
  for (auto& worker : workers_) {
    worker->Boot();
    env_.RegisterProcess(worker.get());
  }
  for (auto& client : clients_) {
    client->Boot();
    env_.RegisterProcess(client.get());
  }
}

Worker& Cluster::worker(net::NodeId id) {
  for (auto& worker : workers_) {
    if (worker->id() == id) {
      return *worker;
    }
  }
  assert(false && "unknown worker id");
  return *workers_.front();
}

check::Operation Cluster::Submit(int client_index, const std::string& task_id) {
  Client& c = client(client_index);
  c.BeginSubmit(task_id);
  return env_.RunToCompletion(c);
}

}  // namespace sched
