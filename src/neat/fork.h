// Snapshot/fork execution of test cases (prefix reuse).
//
// Campaign suites are massively redundant: a pruned enumeration walks the
// space in DFS order, guided rounds mutate corpus entries near their tails,
// and ddmin probes differ from each other by one dropped chunk — so
// consecutive cases usually share a long event prefix. The classic executor
// re-builds a fresh cluster and re-executes that shared prefix for every
// case. The fork executor instead keeps one live runner per seed and a
// stack of whole-system snapshots taken at nested prefixes of the last case
// run on that seed; a new case restores the deepest snapshot within its
// common prefix with that last case and executes only the suffix. Because
// snapshots capture the complete deterministic state (simulator
// clock/sequence/RNG/pending events, network, partition rules, history,
// and every process's state value — see SystemState below), the forked run
// is byte-identical to a full replay: same verdict, same trace, same
// coverage.
//
// A case takes at most one snapshot: at its common prefix with the last
// case, and only when that prefix is deeper than the snapshot it restored.
// That is where the run tree branches — two cases have now continued
// differently from it — and so where the next sibling is likely to resume.
// A state only one case has passed through is not captured: a later case
// that branches above the deepest snapshot replays from the one below it.
//
// Snapshots are only taken at quiescent points — between test events, with
// the simulator stopped — and only restored into the runner instance that
// produced them: the simulator checkpoint inside a snapshot holds copies of
// the pending event closures, which capture `this` of that instance's
// processes.

#ifndef NEAT_FORK_H_
#define NEAT_FORK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "neat/execution.h"
#include "neat/system.h"
#include "neat/testgen.h"

namespace neat {

// Opaque value snapshot of a runner's complete state — the cluster value
// (environment plus every server/client process) and the runner's own
// step state — taken at a quiescent point (no handler mid-flight; in
// practice: between test events, while the simulator is not running).
// Each runner derives its own state type. A snapshot is a value, but not a
// free-standing one: its simulator checkpoint copies the pending event
// closures, and those point at the processes of the runner that produced
// it (sim::Simulator::Checkpoint). Restored into any other runner, they
// would run against that runner's processes, so holders only ever pass a
// snapshot back to Restore on the runner that took it.
struct SystemState {
  virtual ~SystemState() = default;
};

// A live system executing one test case event by event. Splitting a case
// execution into construct / ApplyEvent / Finish is what gives the fork
// executor a place to capture state between events: the constructor
// performs setup (build the cluster, settle, configure clients),
// ApplyEvent applies exactly one test event, and Finish runs the
// post-sequence phase (heal, settle, final verification reads, checkers)
// and produces the verdict. Finish perturbs the system — callers must
// Restore before applying further events.
class CaseRunner {
 public:
  virtual ~CaseRunner() = default;

  // The environment the system under test runs in: its simulator, network
  // and history.
  virtual TestEnv& Env() = 0;

  // The live system under test, for post-Finish status probes (the
  // scenario DSL's status-converges expectation). Null when the runner
  // does not expose one.
  virtual ISystem* System() { return nullptr; }

  // Applies one test event to the live system.
  virtual void ApplyEvent(const TestEvent& event) = 0;

  // Post-sequence phase: heal, settle, final verification, checkers. The
  // full original case is passed for the result's trace field.
  virtual ExecutionResult Finish(const TestCase& test_case) = 0;

  // Whole-run state at a quiescent point: the cluster's state value plus
  // the runner's own step state (installed partition, election-sleep
  // flags, value counters, the coverage observer). Never null: every
  // runner can fork. Const, so capturing cannot perturb the run. The
  // snapshot holds copies of closures bound to this runner's processes, so
  // it restores only into this runner.
  virtual std::unique_ptr<SystemState> Snapshot() const = 0;

  // Rewinds to a state previously captured by Snapshot() on this runner.
  virtual void Restore(const SystemState& state) = 0;
};

// Builds a fresh runner (fully booted and settled) for one seed. Factories
// capture only immutable configuration; the fork executor calls them once
// per (seed, eviction) rather than once per case.
using RunnerFactory = std::function<std::unique_ptr<CaseRunner>(uint64_t seed)>;

struct ForkOptions {
  // Per-seed bound on the snapshot stack; beyond it the oldest non-root
  // entry is dropped (the post-setup root snapshot is pinned and does not
  // count against the bound).
  size_t snapshot_cache = 64;
  // Live runners kept across seeds (LRU). Campaigns usually sweep one seed
  // at a time, so a small bound suffices.
  size_t runner_cache = 4;
};

struct ForkStats {
  uint64_t cases_run = 0;
  uint64_t fresh_runners = 0;     // full cluster constructions
  uint64_t forked_runs = 0;       // runs resumed from a non-empty prefix
  uint64_t events_applied = 0;    // suffix events actually executed
  uint64_t events_forked_over = 0;  // prefix events reused from a snapshot
  uint64_t snapshots_taken = 0;
  uint64_t snapshots_evicted = 0;      // stack-bound and runner-eviction drops
  uint64_t snapshots_invalidated = 0;  // dropped as descendants of a restore
};

// A stateful executor: Run has the same observable contract as the classic
// CaseExecutor (same (case, seed) -> same result), but reuses snapshot
// prefixes across calls. NOT thread-safe — give each campaign worker its
// own instance (SessionFactory in neat/execution.h).
class ForkingExecutor {
 public:
  explicit ForkingExecutor(RunnerFactory factory, ForkOptions options = ForkOptions{});

  ExecutionResult Run(const TestCase& test_case, uint64_t seed);

  const ForkStats& stats() const { return stats_; }

 private:
  struct CachedSnapshot {
    size_t length = 0;  // events of the branch's last case it has applied
    std::unique_ptr<SystemState> state;
  };
  // One seed's live runner and its snapshots. Snapshots reference positions
  // in the runner's simulator history (trace sizes, event sequence
  // numbers), so they stay coherent only as a chain of ancestors of the
  // live state: restoring one drops every snapshot taken after it, whose
  // history the new continuation rewrites. Every cached snapshot is
  // therefore a prefix of `last`, and the chain is a stack ordered by
  // length with the post-setup root at the bottom.
  struct Branch {
    uint64_t seed = 0;
    std::unique_ptr<CaseRunner> runner;
    std::vector<CachedSnapshot> snapshots;
    TestCase last;  // the case most recently run on this seed
  };

  Branch& BranchFor(uint64_t seed);

  RunnerFactory factory_;
  ForkOptions options_;
  std::vector<Branch> branches_;  // least recently used first
  ForkStats stats_;
};

// Drives a fresh runner from `factory` straight through each case: the
// classic full-replay execution, and the reference a forked run must match
// byte for byte. Stateless between calls, so campaign workers may share it.
CaseExecutor ReplayExecutor(RunnerFactory factory);

// Wraps a fork executor as a plain CaseExecutor (single-threaded use: the
// returned callable owns one ForkingExecutor). `stats`, when non-null,
// receives a copy of the executor's counters after every run.
CaseExecutor ForkingCaseExecutor(RunnerFactory factory, ForkOptions options = ForkOptions{},
                                 std::shared_ptr<ForkStats> stats = nullptr);

// A session factory for campaigns: every worker thread gets its own
// ForkingExecutor, so prefix reuse happens per worker with no shared
// mutable state (see CampaignOptions::sessions).
SessionFactory ForkingSessions(RunnerFactory factory, ForkOptions options = ForkOptions{});

}  // namespace neat

#endif  // NEAT_FORK_H_
