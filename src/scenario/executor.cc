#include "scenario/executor.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "neat/execution.h"
#include "neat/fnv.h"

namespace scenario {
namespace {

// The run digests' framing over FNV-1a: each string ends in a 0 byte so
// that adjacent fields cannot alias ("ab"+"c" vs "a"+"bc"), and the hex is
// zero-padded to 16 digits.
void MixTerminated(neat::Fnv1a& fnv, const std::string& text) {
  fnv.Mix(text);
  fnv.MixByte(0);
}

std::string PaddedHex(const neat::Fnv1a& fnv) {
  const std::string hex = fnv.Hex();
  return std::string(16 - hex.size(), '0') + hex;
}

std::string JoinImpacts(const std::vector<std::string>& impacts) {
  if (impacts.empty()) {
    return "none";
  }
  std::string joined;
  for (const std::string& impact : impacts) {
    if (!joined.empty()) {
      joined += ", ";
    }
    joined += impact;
  }
  return joined;
}

bool AnyContains(const std::vector<std::string>& impacts, const std::string& needle) {
  for (const std::string& impact : impacts) {
    if (impact.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

// Judges one expectation against the run's violation impacts (run mode) or
// failure signatures (campaign mode). `status` carries the
// status-converges probe: unknown when the mode has no single end state.
enum class Status { kUnknown, kHealthy, kUnhealthy };

ExpectationOutcome Evaluate(const Expectation& expectation,
                            const std::vector<std::string>& impacts, Status status) {
  ExpectationOutcome outcome;
  outcome.expectation = expectation;
  switch (expectation.kind) {
    case Expectation::Kind::kClean:
      outcome.passed = impacts.empty();
      if (!outcome.passed) {
        outcome.detail = "expected a clean run; saw: " + JoinImpacts(impacts);
      }
      break;
    case Expectation::Kind::kViolation:
      outcome.passed = AnyContains(impacts, expectation.needle);
      if (!outcome.passed) {
        outcome.detail = "expected a violation containing \"" + expectation.needle +
                         "\"; saw: " + JoinImpacts(impacts);
      }
      break;
    case Expectation::Kind::kLinearizable:
      outcome.passed = !AnyContains(impacts, "non-linearizable");
      if (!outcome.passed) {
        outcome.detail = "expected a linearizable run; saw: " + JoinImpacts(impacts);
      }
      break;
    case Expectation::Kind::kNoLostOps:
      outcome.passed = !AnyContains(impacts, "data loss");
      if (!outcome.passed) {
        outcome.detail = "expected no lost operations; saw: " + JoinImpacts(impacts);
      }
      break;
    case Expectation::Kind::kNoCascade:
      outcome.passed = !AnyContains(impacts, "cascading failure");
      if (!outcome.passed) {
        outcome.detail = "expected no cascading failure; saw: " + JoinImpacts(impacts);
      }
      break;
    case Expectation::Kind::kStatusConverges:
      outcome.passed = status == Status::kHealthy;
      if (status == Status::kUnknown) {
        outcome.detail = "the runner exposes no system to probe";
      } else if (!outcome.passed) {
        outcome.detail = "system status did not converge after the run";
      }
      break;
  }
  return outcome;
}

const ExpectBlock* BlockFor(const Scenario& scenario, Variant variant) {
  for (const ExpectBlock& block : scenario.expects) {
    if (block.variant == variant) {
      return &block;
    }
  }
  return nullptr;
}

RunOutcome RunStepScenario(const Scenario& scenario, Variant variant) {
  RunOutcome outcome;
  outcome.variant = variant;

  const neat::RunnerFactory factory = ScenarioRunnerFactory(scenario, variant);
  std::unique_ptr<neat::CaseRunner> runner = factory(scenario.seed);
  neat::TestEnv& env = runner->Env();
  net::Network& network = env.network();
  sim::Simulator& simulator = env.simulator();

  // Fault rules injected inside a phase are scoped to it: the phase-end
  // marker removes them (releasing any held reorder message). Top-level
  // injects (no open phase) persist to the end of the run.
  std::vector<std::vector<net::FaultRuleId>> phase_faults;
  neat::TestCase applied;
  for (const Step& step : scenario.steps) {
    switch (step.kind) {
      case Step::Kind::kEvent:
        runner->ApplyEvent(step.event);
        applied.push_back(step.event);
        break;
      case Step::Kind::kCrash:
        env.Crash(step.nodes);
        break;
      case Step::Kind::kRestart:
        env.Restart(step.nodes);
        break;
      case Step::Kind::kSleep:
        env.Sleep(step.duration);
        break;
      case Step::Kind::kInject: {
        const net::FaultRuleId id = network.AddFaultRule(step.fault);
        if (!phase_faults.empty()) {
          phase_faults.back().push_back(id);
        }
        break;
      }
      case Step::Kind::kClearFaults:
        network.ClearFaultRules();
        break;
      case Step::Kind::kPhaseBegin:
        phase_faults.emplace_back();
        simulator.Trace().Append(simulator.Now(), "scenario", "phase", step.phase);
        break;
      case Step::Kind::kPhaseEnd:
        for (const net::FaultRuleId id : phase_faults.back()) {
          network.RemoveFaultRule(id);  // ignores ids a clear-faults already removed
        }
        phase_faults.pop_back();
        simulator.Trace().Append(simulator.Now(), "scenario", "phase-end", step.phase);
        break;
    }
  }
  const neat::ExecutionResult result = runner->Finish(applied);

  Status status = Status::kUnknown;
  const ExpectBlock* block = BlockFor(scenario, variant);
  bool wants_status = false;
  if (block != nullptr) {
    for (const Expectation& expectation : block->expectations) {
      wants_status |= expectation.kind == Expectation::Kind::kStatusConverges;
    }
  }
  if (wants_status) {
    neat::ISystem* system = runner->System();
    if (system != nullptr) {
      status = system->GetStatus() ? Status::kHealthy : Status::kUnhealthy;
    }
  }

  std::vector<std::string> impacts;
  impacts.reserve(result.violations.size());
  for (const check::Violation& violation : result.violations) {
    impacts.push_back(violation.impact);
  }

  outcome.passed = true;
  if (block != nullptr) {
    for (const Expectation& expectation : block->expectations) {
      ExpectationOutcome judged = Evaluate(expectation, impacts, status);
      outcome.passed = outcome.passed && judged.passed;
      outcome.expectations.push_back(std::move(judged));
    }
  }
  outcome.digest = ResultDigest(result);
  outcome.signature = neat::FailureSignature(result);
  outcome.failures = result.violations.size();
  return outcome;
}

RunOutcome RunCampaignScenario(const Scenario& scenario, Variant variant) {
  RunOutcome outcome;
  outcome.variant = variant;

  const neat::TestCaseGenerator generator = ScenarioGenerator(scenario);
  neat::CampaignOptions options;
  options.threads = scenario.campaign.threads;
  options.seeds = scenario.campaign.seeds;
  const neat::CampaignResult result =
      neat::RunCampaign(generator, scenario.campaign.max_length, ScenarioPruning(scenario),
                        ScenarioCaseExecutor(scenario, variant), options);

  // Failure signatures are '+'-joined impact sets, so the substring match
  // the expectations use works on them directly.
  std::vector<std::string> impacts;
  impacts.reserve(result.signature_counts.size());
  for (const auto& [signature, count] : result.signature_counts) {
    impacts.push_back(signature);
  }

  outcome.passed = true;
  const ExpectBlock* block = BlockFor(scenario, variant);
  if (block != nullptr) {
    for (const Expectation& expectation : block->expectations) {
      ExpectationOutcome judged = Evaluate(expectation, impacts, Status::kUnknown);
      outcome.passed = outcome.passed && judged.passed;
      outcome.expectations.push_back(std::move(judged));
    }
  }
  outcome.digest = CampaignDigest(result);
  outcome.signature = JoinImpacts(impacts);
  if (impacts.empty()) {
    outcome.signature.clear();
  }
  outcome.failures = result.failures;
  outcome.cases_run = result.cases_run;
  return outcome;
}

}  // namespace

const char* VariantName(Variant variant) {
  return variant == Variant::kFlawed ? "flawed" : "correct";
}

bool KnownSystem(const std::string& system) { return neat::FindSystem(system) != nullptr; }

bool KnownPreset(const std::string& system, const std::string& preset) {
  const neat::SystemEntry* row = neat::FindSystem(system);
  if (row == nullptr) {
    return false;
  }
  return preset.empty() ||
         std::find(row->presets.begin(), row->presets.end(), preset) != row->presets.end();
}

neat::RunnerFactory ScenarioRunnerFactory(const Scenario& scenario, Variant variant) {
  const neat::SystemEntry* row = neat::FindSystem(scenario.system);
  if (row == nullptr) {
    return nullptr;  // the parser rejects unknown systems; only a hand-built IR gets here
  }
  neat::RunnerFactory base = row->factory(variant, scenario.preset, scenario.causal);
  if (scenario.ambient_faults.empty()) {
    return base;  // the registry's typed factory, closure and all
  }
  // Ambient faults are part of the environment, not the system config, so
  // both variants get them. Installed before the fork executor takes its
  // root snapshot, so forked runs inherit the rules and their match state.
  const std::vector<net::FaultRule> faults = scenario.ambient_faults;
  return [base = std::move(base), faults](uint64_t seed) -> std::unique_ptr<neat::CaseRunner> {
    std::unique_ptr<neat::CaseRunner> runner = base(seed);
    for (const net::FaultRule& rule : faults) {
      runner->Env().network().AddFaultRule(rule);
    }
    return runner;
  };
}

neat::CaseExecutor ScenarioCaseExecutor(const Scenario& scenario, Variant variant) {
  return neat::ReplayExecutor(ScenarioRunnerFactory(scenario, variant));
}

neat::TestCaseGenerator ScenarioGenerator(const Scenario& scenario) {
  neat::TestCaseGenerator::Alphabet alphabet;
  alphabet.client_events = scenario.campaign.events;
  alphabet.partitions = scenario.campaign.partitions;
  alphabet.targets = scenario.campaign.targets;
  alphabet.sides = scenario.campaign.sides;
  return neat::TestCaseGenerator(std::move(alphabet));
}

neat::PruningRules ScenarioPruning(const Scenario& scenario) {
  return scenario.campaign.paper_pruning ? neat::PaperPruning() : neat::NoPruning();
}

RunOutcome RunScenarioVariant(const Scenario& scenario, Variant variant) {
  if (scenario.campaign.present) {
    return RunCampaignScenario(scenario, variant);
  }
  return RunStepScenario(scenario, variant);
}

std::vector<RunOutcome> RunScenario(const Scenario& scenario) {
  std::vector<RunOutcome> outcomes;
  outcomes.reserve(scenario.expects.size());
  for (const ExpectBlock& block : scenario.expects) {
    outcomes.push_back(RunScenarioVariant(scenario, block.variant));
  }
  return outcomes;
}

std::string ResultDigest(const neat::ExecutionResult& result) {
  neat::Fnv1a fnv;
  fnv.MixWord(result.found_failure ? 1 : 0);
  fnv.MixWord(result.violations.size());
  for (const check::Violation& violation : result.violations) {
    MixTerminated(fnv, violation.impact);
    MixTerminated(fnv, violation.description);
    for (const uint64_t op_id : violation.op_ids) {
      fnv.MixWord(op_id);
    }
  }
  MixTerminated(fnv, result.trace);
  for (const std::string& feature : result.coverage) {
    MixTerminated(fnv, feature);
  }
  const neat::TraceReport& report = result.trace_report;
  fnv.MixWord(report.total_records);
  for (const auto& [event, count] : report.event_counts) {
    MixTerminated(fnv, event);
    fnv.MixWord(count);
  }
  for (const auto& [link, count] : report.drops_per_link) {
    MixTerminated(fnv, link);
    fnv.MixWord(count);
  }
  for (const sim::TraceRecord& record : report.leadership_events) {
    fnv.MixWord(static_cast<uint64_t>(record.when));
    MixTerminated(fnv, record.component);
    MixTerminated(fnv, record.event);
    MixTerminated(fnv, record.detail);
  }
  return PaddedHex(fnv);
}

std::string CampaignDigest(const neat::CampaignResult& result) {
  neat::Fnv1a fnv;
  fnv.MixWord(result.cases_run);
  fnv.MixWord(result.failures);
  for (const neat::CaseResult& run : result.cases) {
    fnv.MixWord(run.case_index);
    fnv.MixWord(run.seed);
    fnv.MixWord(run.found_failure ? 1 : 0);
    MixTerminated(fnv, run.signature);
    MixTerminated(fnv, run.trace);
    for (const std::string& feature : run.coverage) {
      MixTerminated(fnv, feature);
    }
  }
  return PaddedHex(fnv);
}

}  // namespace scenario
