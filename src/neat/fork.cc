#include "neat/fork.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace neat {

ForkingExecutor::ForkingExecutor(RunnerFactory factory, ForkOptions options)
    : factory_(std::move(factory)), options_(options) {
  if (options_.snapshot_cache == 0) {
    options_.snapshot_cache = 1;
  }
  if (options_.runner_cache == 0) {
    options_.runner_cache = 1;
  }
}

ForkingExecutor::Branch& ForkingExecutor::BranchFor(uint64_t seed) {
  auto it = std::find_if(branches_.begin(), branches_.end(),
                         [seed](const Branch& branch) { return branch.seed == seed; });
  if (it != branches_.end()) {
    std::rotate(it, it + 1, branches_.end());
    return branches_.back();
  }
  if (branches_.size() >= options_.runner_cache) {
    stats_.snapshots_evicted += branches_.front().snapshots.size();
    branches_.erase(branches_.begin());
  }
  Branch& branch = branches_.emplace_back();
  branch.seed = seed;
  branch.runner = factory_(seed);
  ++stats_.fresh_runners;
  std::unique_ptr<SystemState> root = branch.runner->Snapshot();
  assert(root != nullptr && "CaseRunner::Snapshot never returns null");
  ++stats_.snapshots_taken;
  branch.snapshots.push_back({0, std::move(root)});
  return branch;
}

ExecutionResult ForkingExecutor::Run(const TestCase& test_case, uint64_t seed) {
  Branch& branch = BranchFor(seed);
  ++stats_.cases_run;

  // Every cached snapshot is a prefix of the last case, so the deepest one
  // within the common prefix is this case's longest cached prefix. The
  // deeper ones index history this case is about to rewrite: drop them.
  const size_t common = static_cast<size_t>(
      std::mismatch(branch.last.begin(), branch.last.end(), test_case.begin(), test_case.end())
          .first -
      branch.last.begin());
  while (branch.snapshots.back().length > common) {
    branch.snapshots.pop_back();
    ++stats_.snapshots_invalidated;
  }
  branch.last = test_case;
  const size_t base = branch.snapshots.back().length;
  // Always restore — even for a full-length hit — because the previous
  // case's Finish (heal, settle, final reads) perturbed the live state.
  branch.runner->Restore(*branch.snapshots.back().state);
  stats_.events_forked_over += base;
  if (base > 0) {
    ++stats_.forked_runs;
  }

  for (size_t i = base; i < test_case.size(); ++i) {
    branch.runner->ApplyEvent(test_case[i]);
    ++stats_.events_applied;
    // The branch point (never reached when common == base): the last case
    // continued differently from here, so a sibling may resume here too.
    if (i + 1 == common) {
      ++stats_.snapshots_taken;
      branch.snapshots.push_back({common, branch.runner->Snapshot()});
      if (branch.snapshots.size() > options_.snapshot_cache + 1) {
        branch.snapshots.erase(branch.snapshots.begin() + 1);
        ++stats_.snapshots_evicted;
      }
    }
  }
  return branch.runner->Finish(test_case);
}

CaseExecutor ReplayExecutor(RunnerFactory factory) {
  return [factory = std::move(factory)](const TestCase& test_case, uint64_t seed) {
    std::unique_ptr<CaseRunner> runner = factory(seed);
    for (const TestEvent& event : test_case) {
      runner->ApplyEvent(event);
    }
    return runner->Finish(test_case);
  };
}

CaseExecutor ForkingCaseExecutor(RunnerFactory factory, ForkOptions options,
                                 std::shared_ptr<ForkStats> stats) {
  auto executor = std::make_shared<ForkingExecutor>(std::move(factory), options);
  return [executor, stats](const TestCase& test_case, uint64_t seed) {
    ExecutionResult result = executor->Run(test_case, seed);
    if (stats != nullptr) {
      *stats = executor->stats();
    }
    return result;
  };
}

SessionFactory ForkingSessions(RunnerFactory factory, ForkOptions options) {
  return [factory = std::move(factory), options]() {
    return ForkingCaseExecutor(factory, options);
  };
}

}  // namespace neat
