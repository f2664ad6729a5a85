// The scenario DSL's intermediate representation.
//
// A scenario is a data file (".scn") describing one reproduction: which
// model system to build, a fault/workload program — either an explicit
// step sequence or a generated campaign — and an expectation block per
// variant (flawed / correct) stating what the checkers must report. The
// parser (scenario/parser.h) produces this IR; the executor
// (scenario/executor.h) compiles it onto the existing CaseRunner /
// CaseExecutor / RunCampaign machinery, so a new reproduction is a data
// file instead of hand-written C++ glue (after Netrix, PAPERS.md: "A
// Domain Specific Language for Testing Consensus Implementations").

#ifndef SCENARIO_SCENARIO_H_
#define SCENARIO_SCENARIO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "neat/registry.h"
#include "neat/testgen.h"
#include "net/network.h"

namespace scenario {

// Which configuration of the system under test a run uses (the system
// registry's variant): kFlawed maps to the scenario's preset, or the
// system's default reproduction preset; kCorrect to the system's
// all-safety-knobs-on options.
using Variant = neat::Variant;

const char* VariantName(Variant variant);

// One step of an explicit run program. Phases are flattened into
// begin/end markers; fault rules injected inside a phase are removed when
// the phase ends (releasing any held reorder message).
struct Step {
  enum class Kind {
    kEvent,       // a partition/heal/client op, applied through CaseRunner
    kCrash,       // crash the named nodes
    kRestart,     // restart the named nodes
    kSleep,       // advance virtual time
    kInject,      // install a message-level fault rule
    kClearFaults, // remove every installed fault rule
    kPhaseBegin,
    kPhaseEnd,
  };
  Kind kind = Kind::kEvent;
  neat::TestEvent event;       // kEvent
  net::Group nodes;            // kCrash / kRestart
  sim::Duration duration = 0;  // kSleep
  net::FaultRule fault;        // kInject
  std::string phase;           // kPhaseBegin / kPhaseEnd label
};

// A generated suite swept through the campaign runner: the test-case
// alphabet, enumeration depth, pruning mode, and campaign dimensions.
// Defaults match neat::TestCaseGenerator::Alphabet.
struct CampaignSpec {
  bool present = false;
  std::vector<neat::EventKind> events{neat::EventKind::kWrite, neat::EventKind::kRead};
  std::vector<neat::PartitionKind> partitions{neat::PartitionKind::kComplete,
                                              neat::PartitionKind::kPartial};
  std::vector<neat::IsolationTarget> targets{neat::IsolationTarget::kLeader,
                                             neat::IsolationTarget::kAnyReplica};
  std::vector<neat::Side> sides{neat::Side::kMinority, neat::Side::kMajority};
  int max_length = 3;
  bool paper_pruning = true;
  int seeds = 1;
  int threads = 1;
};

// What a variant's run must satisfy. Needle matching is substring over the
// violation impacts (campaign mode: over the failure signatures).
struct Expectation {
  enum class Kind {
    kClean,            // no violations at all
    kViolation,        // some violation impact contains `needle`
    kLinearizable,     // no "non-linearizable" violation
    kNoLostOps,        // no "data loss" violation
    kNoCascade,        // no "cascading failure" violation (requires `causal`)
    kStatusConverges,  // ISystem::GetStatus() true after the run (run mode)
  };
  Kind kind = Kind::kClean;
  std::string needle;  // kViolation
  int line = 0;        // source position, for failure reports
  int column = 0;
};

struct ExpectBlock {
  Variant variant = Variant::kFlawed;
  std::vector<Expectation> expectations;
};

struct Scenario {
  std::string name;
  std::string system;  // pbkv | raftkv | locksvc | mqueue
  // Flawed-variant options preset; empty selects the system's default
  // reproduction (pbkv: voltdb, raftkv: rethinkdb, locksvc: ignite,
  // mqueue: activemq). See scenario/executor.h for the preset tables.
  std::string preset;
  uint64_t seed = 1;
  // Collect causal traces (sim::TraceLog::set_causal) so the cascade
  // checker runs and `no-cascade` expectations are meaningful.
  bool causal = false;
  CampaignSpec campaign;
  bool has_run = false;
  std::vector<Step> steps;  // the run program; empty in campaign mode
  // Fault rules installed right after system setup, before any step or
  // generated case — the ambient fault model of every run (campaign mode's
  // only way to use message-level faults).
  std::vector<net::FaultRule> ambient_faults;
  std::vector<ExpectBlock> expects;  // at most one block per variant
};

}  // namespace scenario

#endif  // SCENARIO_SCENARIO_H_
