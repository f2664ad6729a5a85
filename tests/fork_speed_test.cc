// The fork executor's speed gate: prefix reuse must beat full replay by at
// least 5x on a deep pbkv case — 24 blocks of [partition, majority write,
// heal] (each write paying a 600 ms election settle) and a 12-event tail —
// plus every one- and two-event extension of it (the mutation engine's
// append op), which shares the parent's whole prefix. Host wall time is
// the measurement, so the test is labeled slow, not tier1; each side takes
// the best of three sweeps. Results are byte-identical on both sides
// (Fork.* in neat_test.cc); only time differs.

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "neat/adapters.h"
#include "neat/fork.h"

namespace neat {
namespace {

// The parent, then every one- and two-event extension of it.
std::vector<TestCase> AppendFamily(int blocks, int tail) {
  const TestEvent majority_write{.kind = EventKind::kWrite};
  TestCase parent;
  for (int block = 0; block < blocks; ++block) {
    parent.push_back({.kind = EventKind::kPartition, .target = IsolationTarget::kLeader});
    parent.push_back(majority_write);
    parent.push_back({.kind = EventKind::kHeal});
  }
  for (int i = 0; i < tail; ++i) {
    parent.push_back({.kind = i % 2 == 0 ? EventKind::kWrite : EventKind::kRead});
  }
  const std::vector<TestEvent> alternatives = {
      majority_write,
      {.kind = EventKind::kWrite, .side = Side::kMinority},
      {.kind = EventKind::kRead},
      {.kind = EventKind::kRead, .side = Side::kMinority},
      {.kind = EventKind::kDelete},
  };
  std::vector<TestCase> suite = {parent};
  for (const TestEvent& first : alternatives) {
    TestCase extended = parent;
    extended.push_back(first);
    suite.push_back(extended);
    for (const TestEvent& second : alternatives) {
      TestCase pair = extended;
      pair.push_back(second);
      suite.push_back(pair);
    }
  }
  return suite;
}

// The fastest of three sweeps, each through a fresh executor.
template <class MakeExecutor>
double BestSweepSeconds(const MakeExecutor& make_executor, const std::vector<TestCase>& suite) {
  double best = 0;
  for (int sweep = 0; sweep < 3; ++sweep) {
    const CaseExecutor executor = make_executor();
    const auto start = std::chrono::steady_clock::now();
    for (const TestCase& test_case : suite) {
      (void)executor(test_case, 1);
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    best = sweep == 0 ? seconds : std::min(best, seconds);
  }
  return best;
}

TEST(ForkSpeed, AppendFamilyForksAtLeastFiveTimesFasterThanReplay) {
  const std::vector<TestCase> suite = AppendFamily(/*blocks=*/24, /*tail=*/12);
  const double replay = BestSweepSeconds(
      [] { return ReplayExecutor(PbkvRunnerFactory(pbkv::VoltDbOptions())); }, suite);
  const double forked = BestSweepSeconds(
      [] { return ForkingCaseExecutor(PbkvRunnerFactory(pbkv::VoltDbOptions())); }, suite);
  const double speedup = replay / forked;
  RecordProperty("speedup", std::to_string(speedup));
  EXPECT_GE(speedup, 5.0) << "replay " << replay << " s, forked " << forked << " s";
}

}  // namespace
}  // namespace neat
