#include "neat/env.h"

#include <cassert>

namespace neat {

TestEnv::TestEnv(const Options& options) : simulator_(options.seed) {
  if (options.use_switch_backend) {
    backend_ = std::make_unique<net::SwitchPartitioner>();
  } else {
    backend_ = std::make_unique<net::FirewallPartitioner>();
  }
  network_ = std::make_unique<net::Network>(&simulator_, backend_.get());
  partitioner_ = std::make_unique<net::Partitioner>(backend_.get());
}

net::Partition TestEnv::Complete(const net::Group& group_a, const net::Group& group_b) {
  return partitioner_->Complete(group_a, group_b);
}

net::Partition TestEnv::Partial(const net::Group& group_a, const net::Group& group_b) {
  return partitioner_->Partial(group_a, group_b);
}

net::Partition TestEnv::Simplex(const net::Group& group_src, const net::Group& group_dst) {
  return partitioner_->Simplex(group_src, group_dst);
}

void TestEnv::Heal(net::Partition& partition) { partitioner_->Heal(partition); }

net::Group TestEnv::Rest(const net::Group& group) const {
  return net::Partitioner::Rest(network_->Universe(), group);
}

void TestEnv::RegisterProcess(cluster::Process* process) {
  processes_[process->id()] = process;
}

cluster::Process* TestEnv::FindProcess(net::NodeId node) const {
  auto it = processes_.find(node);
  return it == processes_.end() ? nullptr : it->second;
}

void TestEnv::Crash(const net::Group& nodes) {
  for (net::NodeId node : nodes) {
    if (cluster::Process* process = FindProcess(node)) {
      process->Crash();
    }
  }
}

void TestEnv::Restart(const net::Group& nodes) {
  for (net::NodeId node : nodes) {
    cluster::Process* process = FindProcess(node);
    if (process != nullptr && process->crashed()) {
      process->Restart();
    }
  }
}

void TestEnv::Sleep(sim::Duration duration) { simulator_.RunFor(duration); }

TestEnv::State TestEnv::Snapshot() const {
  State state;
  state.simulator = simulator_.Snapshot();
  state.network = network_->CaptureState();
  state.rules = backend_->CaptureRules();
  state.next_partition_id = partitioner_->next_partition_id();
  state.history = history_.CaptureState();
  state.kernels.reserve(processes_.size());
  for (const auto& [node, process] : processes_) {
    state.kernels.push_back(process->CaptureKernel());
  }
  return state;
}

void TestEnv::Restore(const State& state) {
  // Rules before kernels: RestoreKernel re-registers network handlers, and
  // registration must see the restored topology, not the abandoned one.
  backend_->RestoreRules(*state.rules);
  partitioner_->set_next_partition_id(state.next_partition_id);
  network_->RestoreState(state.network);
  assert(state.kernels.size() == processes_.size() &&
         "the registered process set must match the snapshot's");
  auto kernel = state.kernels.begin();
  for (const auto& [node, process] : processes_) {
    process->RestoreKernel(*kernel++);
  }
  history_.RestoreState(state.history);
  // The simulator last: its checkpoint rewinds the clock and restores the
  // pending events that the restored processes' timers live in.
  simulator_.Restore(state.simulator);
}

bool TestEnv::Await(const std::function<bool()>& done, sim::Duration deadline_from_now) {
  return simulator_.RunUntilPredicate(done, simulator_.Now() + deadline_from_now);
}

check::Operation TestEnv::RunToCompletion(const cluster::OpClient& client,
                                          sim::Duration deadline_from_now) {
  Await([&client]() { return client.idle(); }, deadline_from_now);
  return client.last_op();
}

}  // namespace neat
