// The benchmark's three workloads, built from the public NEAT API.
//
// A workload is a list of units; one round runs every unit once. Each unit
// is one campaign over one system:
//
//   sweep   the four corpus campaign scenarios, flawed and correct
//           variants, exhaustively through neat::RunCampaign on
//           scenario::ScenarioCaseExecutor (fresh runner per case), under
//           the file's seed count from W.
//   guided  the four flawed presets through CampaignOptions::guided with
//           neat::ForkingSessions over scenario::ScenarioRunnerFactory, one
//           campaign per guided seed W..W+kSeedsPerRound-1 (W = workload
//           seed).
//   deep    one long fork family per system (DeepFamily) and simulation
//           seed W..W+kSeedsPerRound-1, each run serially on its own
//           neat::ForkingCaseExecutor; the families of a round run side by
//           side, one per worker.
//
// A guided or deep round spans kSeedsPerRound seeds, because the cost of
// those campaigns depends on the seed (guided corpora and deep histories
// do), so that one run's figures do not hinge on a single seed's luck.
//
// BuildPlan is the workload's set-up: parse, generator build and pre-count,
// and executor/factory construction. With PlanOptions::tracer set, every
// runner factory is decorated (tracing.h); the cases run are the same.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "neat/campaign.h"
#include "neat/fork.h"
#include "neat/testgen.h"
#include "tracing.h"

namespace perfbench {

enum class Workload { kSweep, kGuided, kDeep };

bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload workload);

// The corpus scenarios every workload draws its systems from, in kSystems
// order.
inline constexpr std::array<const char*, kNumSystems> kCorpusFiles = {
    "pbkv_paper_suite.scn", "raftkv_membership_5289.scn", "locksvc_double_locking.scn",
    "mqueue_double_dequeue.scn"};

// One campaign of a workload round.
struct Unit {
  std::string label;  // "<system>/<variant>", "#<i>" for a round's i-th seed
  int system = 0;     // index into kSystems
  // A violation in any run of this unit is a failed run (sweep's correct
  // variants).
  bool must_be_clean = false;
  // Some failure signature must contain this (flawed variants); empty for
  // none.
  std::string needle;
  uint64_t expected_runs = 0;  // 0 = decided by the campaign (guided)
  std::function<neat::CampaignResult(int workers)> run;
};

struct PlanOptions {
  std::string corpus_dir;  // holds kCorpusFiles
  uint64_t seed = 1;       // the workload seed
  const Tracer* tracer = nullptr;
};

struct Plan {
  std::vector<Unit> units;
  // Units run side by side on the round's workers, each campaign on one
  // (deep); otherwise units run one after another, each campaign on all.
  bool concurrent_units = false;
  double parse_us = 0;  // scenario::ParseFile, all files
  double count_us = 0;  // TestCaseGenerator::CountUpTo, all generators
  // Exceptions that escaped an executor; each such run is a failed run.
  std::shared_ptr<std::atomic<uint64_t>> exceptions;
};

// Throws std::runtime_error when a corpus file is missing or malformed.
Plan BuildPlan(Workload workload, const PlanOptions& options);

// deep's long-horizon case family over a key-value (write/read/delete) or a
// lock (lock/unlock) alphabet: a parent of `blocks` repeats of
// [partition(complete, leader), majority op, heal] plus a `tail` of
// majority ops; then every single-event replacement in the tail; then
// every one- and two-event append.
neat::TestCase DeepParent(bool locks, int blocks, int tail);
std::vector<neat::TestCase> DeepFamily(bool locks, int blocks, int tail);
inline constexpr int kDeepBlocks = 24;
inline constexpr int kDeepTail = 36;

// Seeds per guided and deep round (see above).
inline constexpr int kSeedsPerRound = 8;

// A case executor driving a fresh runner from `factory` straight through
// each case: scenario::ScenarioCaseExecutor's loop over any factory.
neat::CaseExecutor StraightThrough(neat::RunnerFactory factory);

struct Round {
  std::vector<neat::CampaignResult> results;  // one per unit, in plan order
  double wall_s = 0;
  int workers = 1;
};

// raftkv crashes (SIGSEGV in raftkv::Server::SendAppendEntries, reached
// from raftkv::Cluster::ChangeMembers) on guided mutants that stack partial
// partitions, each of which makes the runner change the member set (see
// NOTES.md). guided's raftkv sessions report such a case as a skipped run
// instead of executing it; skipped runs are neither attempted nor timed.
bool StacksPartialPartitions(const neat::TestCase& test_case);
bool Skipped(const neat::CaseResult& run);

// One round: every unit once.
Round RunRound(const Plan& plan, int workers);

struct Digests {
  std::string verdict;
  std::string coverage;
  std::string corpus;  // "-" outside guided mode

  bool operator==(const Digests& other) const = default;
};
Digests DigestsOf(const neat::CampaignResult& result);

// Golden digests by "<workload> <unit label>".
using Goldens = std::map<std::string, Digests>;
bool ReadGoldens(const std::string& path, Goldens* out);
std::string GoldenLine(Workload workload, const Unit& unit, const Digests& digests);

// The correctness gate over rounds of one plan.
struct Gate {
  uint64_t attempted = 0;
  uint64_t failed = 0;  // runs the benchmark could not judge
  std::vector<std::string> problems;

  bool passed() const { return failed == 0 && problems.empty(); }
  // Judges one round: run counts, needles, clean variants, and digests
  // equal to `reference` when it is non-empty. Escaped exceptions are
  // counted separately (CountExceptions).
  void Judge(const Plan& plan, const std::vector<neat::CampaignResult>& round,
             const std::vector<Digests>& reference, const std::string& what);
  void CountExceptions(const Plan& plan);
  void CheckGoldens(Workload workload, const Plan& plan, const std::vector<Digests>& reference,
                    const Goldens& goldens);
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
