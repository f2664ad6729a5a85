#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "scenario/executor.h"
#include "scenario/parser.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start).count();
}

// Catches what escapes `inner` (counted as a failed run, and reported as a
// violation so every digest moves) and shifts the simulation seed, so a
// campaign's seeds 1..k run as offset+1..offset+k.
neat::CaseExecutor Guard(neat::CaseExecutor inner, uint64_t seed_offset,
                         std::shared_ptr<std::atomic<uint64_t>> exceptions) {
  return [inner = std::move(inner), seed_offset, exceptions = std::move(exceptions)](
             const neat::TestCase& test_case, uint64_t seed) {
    std::string what;
    try {
      return inner(test_case, seed + seed_offset);
    } catch (const std::exception& error) {
      what = error.what();
    } catch (...) {
      what = "unknown exception";
    }
    exceptions->fetch_add(1);
    neat::ExecutionResult result;
    result.found_failure = true;
    result.trace = neat::FormatTestCase(test_case);
    result.violations.push_back(check::Violation{"benchmark: executor threw", what, {}});
    return result;
  };
}

constexpr const char* kSkippedTrace = "skipped: ";

neat::SessionFactory SkipStackedPartialPartitions(neat::SessionFactory sessions) {
  return [sessions = std::move(sessions)] {
    return [session = sessions()](const neat::TestCase& test_case, uint64_t seed) {
      if (!StacksPartialPartitions(test_case)) {
        return session(test_case, seed);
      }
      neat::ExecutionResult skipped;
      skipped.trace = kSkippedTrace + neat::FormatTestCase(test_case);
      return skipped;
    };
  };
}

neat::SessionFactory GuardSessions(neat::SessionFactory sessions,
                                   std::shared_ptr<std::atomic<uint64_t>> exceptions) {
  return [sessions = std::move(sessions), exceptions = std::move(exceptions)] {
    return Guard(sessions(), 0, exceptions);
  };
}

struct Parsed {
  std::shared_ptr<const scenario::Scenario> scenario;
  int system = 0;
  std::string needle;  // the flawed expect block's violation needle
};

Parsed ParseCorpusFile(const std::string& path, int system, Plan* plan) {
  const Clock::time_point start = Clock::now();
  scenario::ParseResult parsed = scenario::ParseFile(path);
  plan->parse_us += MicrosSince(start);
  if (!parsed.ok) {
    throw std::runtime_error(scenario::FormatDiagnostics(parsed, path));
  }
  if (!parsed.scenario.campaign.present || parsed.scenario.system != kSystems[static_cast<size_t>(system)]) {
    throw std::runtime_error(path + ": expected a " + kSystems[static_cast<size_t>(system)] +
                             " campaign scenario");
  }
  Parsed out;
  out.system = system;
  for (const scenario::ExpectBlock& block : parsed.scenario.expects) {
    for (const scenario::Expectation& expectation : block.expectations) {
      if (block.variant == scenario::Variant::kFlawed &&
          expectation.kind == scenario::Expectation::Kind::kViolation) {
        out.needle = expectation.needle;
      }
    }
  }
  if (out.needle.empty()) {
    throw std::runtime_error(path + ": the flawed variant expects no violation");
  }
  out.scenario = std::make_shared<const scenario::Scenario>(std::move(parsed.scenario));
  return out;
}

// "<system>/<variant>", plus "#<i>" for the i-th seed of a multi-seed unit
// set.
std::string Label(int system, scenario::Variant variant, int seed_index = -1) {
  std::string label =
      std::string(kSystems[static_cast<size_t>(system)]) + "/" + scenario::VariantName(variant);
  return seed_index < 0 ? label : label + "#" + std::to_string(seed_index);
}

struct Space {
  std::shared_ptr<const neat::TestCaseGenerator> generator;
  neat::PruningRules rules;
  int max_length = 0;
  uint64_t count = 0;
};

Space CountSpace(const scenario::Scenario& scn, Plan* plan) {
  Space space;
  space.generator = std::make_shared<const neat::TestCaseGenerator>(scenario::ScenarioGenerator(scn));
  space.rules = scenario::ScenarioPruning(scn);
  space.max_length = scn.campaign.max_length;
  const Clock::time_point start = Clock::now();
  space.count = space.generator->CountUpTo(space.max_length, space.rules);
  plan->count_us += MicrosSince(start);
  if (space.count == 0) {
    throw std::runtime_error(scn.name + ": the pruned space is empty");
  }
  return space;
}

void AddSweepUnits(const Parsed& parsed, const PlanOptions& options, Plan* plan) {
  const scenario::Scenario& scn = *parsed.scenario;
  const Space space = CountSpace(scn, plan);
  const int seeds = std::max(1, scn.campaign.seeds);
  for (const scenario::Variant variant : {scenario::Variant::kFlawed, scenario::Variant::kCorrect}) {
    neat::CaseExecutor executor =
        options.tracer == nullptr
            ? scenario::ScenarioCaseExecutor(scn, variant)
            : options.tracer->WrapCase(
                  StraightThrough(options.tracer->Decorate(
                      scenario::ScenarioRunnerFactory(scn, variant), parsed.system)),
                  parsed.system);
    executor = Guard(std::move(executor), options.seed - 1, plan->exceptions);
    Unit unit;
    unit.label = Label(parsed.system, variant);
    unit.system = parsed.system;
    unit.must_be_clean = variant == scenario::Variant::kCorrect;
    unit.needle = variant == scenario::Variant::kFlawed ? parsed.needle : "";
    unit.expected_runs = space.count * static_cast<uint64_t>(seeds);
    unit.run = [space, executor = std::move(executor), seeds](int workers) {
      neat::CampaignOptions campaign;
      campaign.threads = workers;
      campaign.seeds = seeds;
      return neat::RunCampaign(*space.generator, space.max_length, space.rules, executor,
                               campaign);
    };
    plan->units.push_back(std::move(unit));
  }
}

void AddGuidedUnits(const Parsed& parsed, const PlanOptions& options, Plan* plan) {
  const scenario::Scenario& scn = *parsed.scenario;
  const Space space = CountSpace(scn, plan);
  const scenario::Variant variant = scenario::Variant::kFlawed;
  const neat::RunnerFactory factory = scenario::ScenarioRunnerFactory(scn, variant);
  neat::SessionFactory sessions = options.tracer == nullptr
                                      ? neat::ForkingSessions(factory)
                                      : options.tracer->ForkingSessions(factory, parsed.system);
  sessions = GuardSessions(std::move(sessions), plan->exceptions);
  if (kSystems[static_cast<size_t>(parsed.system)] == std::string("raftkv")) {
    sessions = SkipStackedPartialPartitions(std::move(sessions));
  }
  // Only consulted when a campaign runs without sessions; guided never does.
  const neat::CaseExecutor fallback =
      Guard(scenario::ScenarioCaseExecutor(scn, variant), 0, plan->exceptions);
  const int seeds = std::max(1, scn.campaign.seeds);
  for (int i = 0; i < kSeedsPerRound; ++i) {
    Unit unit;
    unit.label = Label(parsed.system, variant, i);
    unit.system = parsed.system;
    unit.needle = parsed.needle;
    const uint64_t guided_seed = options.seed + static_cast<uint64_t>(i);
    unit.run = [space, sessions, fallback, seeds, guided_seed](int workers) {
      neat::CampaignOptions campaign;
      campaign.threads = workers;
      campaign.seeds = seeds;
      campaign.guided = true;
      campaign.guided_seed = guided_seed;
      campaign.sessions = sessions;
      return neat::RunCampaign(*space.generator, space.max_length, space.rules, fallback,
                               campaign);
    };
    plan->units.push_back(std::move(unit));
  }
}

void AddDeepUnits(const Parsed& parsed, const PlanOptions& options, Plan* plan) {
  const scenario::Scenario& scn = *parsed.scenario;
  const bool locks = std::find(scn.campaign.events.begin(), scn.campaign.events.end(),
                               neat::EventKind::kLock) != scn.campaign.events.end();
  auto family = std::make_shared<const std::vector<neat::TestCase>>(
      DeepFamily(locks, kDeepBlocks, kDeepTail));
  const scenario::Variant variant = scenario::Variant::kFlawed;
  const neat::RunnerFactory factory = scenario::ScenarioRunnerFactory(scn, variant);
  const Tracer* tracer = options.tracer;
  const int system = parsed.system;
  std::shared_ptr<std::atomic<uint64_t>> exceptions = plan->exceptions;
  for (int i = 0; i < kSeedsPerRound; ++i) {
    Unit unit;
    unit.label = Label(parsed.system, variant, i);
    unit.system = parsed.system;
    unit.expected_runs = family->size();
    // The campaign's seed 1 runs as simulation seed (workload seed + i).
    const uint64_t seed_offset = options.seed - 1 + static_cast<uint64_t>(i);
    // A fresh fork executor per round: every round pays the same boots and
    // snapshot-chain builds, as a new campaign would.
    unit.run = [family, factory, tracer, system, seed_offset, exceptions](int /*workers*/) {
      neat::CaseExecutor executor = tracer == nullptr ? neat::ForkingCaseExecutor(factory)
                                                      : tracer->ForkingExecutor(factory, system);
      neat::CampaignOptions campaign;
      campaign.threads = 1;
      return neat::RunCampaign(*family, Guard(std::move(executor), seed_offset, exceptions),
                               campaign);
    };
    plan->units.push_back(std::move(unit));
  }
}

neat::TestEvent Event(neat::EventKind kind, neat::Side side = neat::Side::kMajority) {
  neat::TestEvent event;
  event.kind = kind;
  event.side = side;
  if (kind == neat::EventKind::kPartition) {
    event.partition = neat::PartitionKind::kComplete;
    event.target = neat::IsolationTarget::kLeader;
  }
  return event;
}

std::vector<neat::TestEvent> Alternatives(bool locks) {
  using neat::EventKind;
  using neat::Side;
  if (locks) {
    return {Event(EventKind::kLock), Event(EventKind::kLock, Side::kMinority),
            Event(EventKind::kUnlock), Event(EventKind::kUnlock, Side::kMinority)};
  }
  return {Event(EventKind::kWrite), Event(EventKind::kWrite, Side::kMinority),
          Event(EventKind::kRead), Event(EventKind::kRead, Side::kMinority),
          Event(EventKind::kDelete)};
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  for (const Workload workload : {Workload::kSweep, Workload::kGuided, Workload::kDeep}) {
    if (name == WorkloadName(workload)) {
      *out = workload;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kSweep:
      return "sweep";
    case Workload::kGuided:
      return "guided";
    case Workload::kDeep:
      return "deep";
  }
  return "?";
}

neat::TestCase DeepParent(bool locks, int blocks, int tail) {
  const neat::EventKind first = locks ? neat::EventKind::kLock : neat::EventKind::kWrite;
  const neat::EventKind second = locks ? neat::EventKind::kUnlock : neat::EventKind::kRead;
  neat::TestCase parent;
  for (int block = 0; block < blocks; ++block) {
    parent.push_back(Event(neat::EventKind::kPartition));
    parent.push_back(Event(first));
    parent.push_back(Event(neat::EventKind::kHeal));
  }
  for (int i = 0; i < tail; ++i) {
    parent.push_back(Event(i % 2 == 0 ? first : second));
  }
  return parent;
}

std::vector<neat::TestCase> DeepFamily(bool locks, int blocks, int tail) {
  const neat::TestCase parent = DeepParent(locks, blocks, tail);
  const std::vector<neat::TestEvent> alternatives = Alternatives(locks);
  std::vector<neat::TestCase> family;
  family.push_back(parent);
  for (size_t i = parent.size() - static_cast<size_t>(tail); i < parent.size(); ++i) {
    for (const neat::TestEvent& alternative : alternatives) {
      neat::TestCase mutant = parent;
      mutant[i] = alternative;
      if (!(mutant == parent)) {
        family.push_back(std::move(mutant));
      }
    }
  }
  for (const neat::TestEvent& first : alternatives) {
    neat::TestCase extended = parent;
    extended.push_back(first);
    family.push_back(extended);
    for (const neat::TestEvent& second : alternatives) {
      neat::TestCase pair = extended;
      pair.push_back(second);
      family.push_back(std::move(pair));
    }
  }
  return family;
}

neat::CaseExecutor StraightThrough(neat::RunnerFactory factory) {
  return [factory = std::move(factory)](const neat::TestCase& test_case, uint64_t seed) {
    std::unique_ptr<neat::CaseRunner> runner = factory(seed);
    for (const neat::TestEvent& event : test_case) {
      runner->ApplyEvent(event);
    }
    return runner->Finish(test_case);
  };
}

Plan BuildPlan(Workload workload, const PlanOptions& options) {
  Plan plan;
  plan.exceptions = std::make_shared<std::atomic<uint64_t>>(0);
  for (int system = 0; system < kNumSystems; ++system) {
    const Parsed parsed = ParseCorpusFile(
        options.corpus_dir + "/" + kCorpusFiles[static_cast<size_t>(system)], system, &plan);
    switch (workload) {
      case Workload::kSweep:
        AddSweepUnits(parsed, options, &plan);
        break;
      case Workload::kGuided:
        AddGuidedUnits(parsed, options, &plan);
        break;
      case Workload::kDeep:
        AddDeepUnits(parsed, options, &plan);
        plan.concurrent_units = true;
        break;
    }
  }
  return plan;
}

bool StacksPartialPartitions(const neat::TestCase& test_case) {
  int partial = 0;
  for (const neat::TestEvent& event : test_case) {
    partial += event.kind == neat::EventKind::kPartition &&
               event.partition == neat::PartitionKind::kPartial;
  }
  return partial > 1;
}

bool Skipped(const neat::CaseResult& run) { return run.trace.rfind(kSkippedTrace, 0) == 0; }

Round RunRound(const Plan& plan, int workers) {
  Round round;
  round.workers = workers;
  round.results.resize(plan.units.size());
  const auto run_unit = [&](size_t i, int threads) {
    round.results[i] = plan.units[i].run(threads);
  };
  const Clock::time_point start = Clock::now();
  if (!plan.concurrent_units) {
    for (size_t i = 0; i < plan.units.size(); ++i) {
      run_unit(i, workers);
    }
  } else {
    // A closed loop per worker: take the next unit once the last is done.
    std::atomic<size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr error;
    std::vector<std::thread> pool;
    for (int w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        try {
          for (size_t i = next++; i < plan.units.size(); i = next++) {
            run_unit(i, 1);
          }
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mutex);
          error = std::current_exception();
        }
      });
    }
    for (std::thread& thread : pool) {
      thread.join();
    }
    if (error) {
      std::rethrow_exception(error);
    }
  }
  round.wall_s = MicrosSince(start) / 1e6;
  return round;
}

Digests DigestsOf(const neat::CampaignResult& result) {
  return Digests{result.VerdictDigest(), result.coverage.Digest(),
                 result.guided.enabled ? result.CorpusDigest() : "-"};
}

bool ReadGoldens(const std::string& path, Goldens* out) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string workload;
    std::string label;
    Digests digests;
    if (fields >> workload >> label >> digests.verdict >> digests.coverage >> digests.corpus) {
      (*out)[workload + " " + label] = digests;
    }
  }
  return true;
}

std::string GoldenLine(Workload workload, const Unit& unit, const Digests& digests) {
  return std::string(WorkloadName(workload)) + " " + unit.label + " " + digests.verdict + " " +
         digests.coverage + " " + digests.corpus;
}

void Gate::Judge(const Plan& plan, const std::vector<neat::CampaignResult>& round,
                 const std::vector<Digests>& reference, const std::string& what) {
  for (size_t i = 0; i < plan.units.size(); ++i) {
    const Unit& unit = plan.units[i];
    const neat::CampaignResult& result = round[i];
    for (const neat::CaseResult& run : result.cases) {
      attempted += Skipped(run) ? 0 : 1;
    }
    const std::string where = what + " " + unit.label + ": ";
    if (unit.expected_runs != 0 && result.cases_run != unit.expected_runs) {
      problems.push_back(where + "ran " + std::to_string(result.cases_run) + " of " +
                         std::to_string(unit.expected_runs) + " runs");
    }
    if (unit.must_be_clean) {
      failed += result.failures;
      for (const auto& [signature, count] : result.signature_counts) {
        problems.push_back(where + "correct variant reported \"" + signature + "\" x" +
                           std::to_string(count));
      }
    }
    if (!unit.needle.empty()) {
      bool found = false;
      for (const auto& [signature, count] : result.signature_counts) {
        found = found || signature.find(unit.needle) != std::string::npos;
      }
      if (!found) {
        problems.push_back(where + "missed its needle \"" + unit.needle + "\"");
      }
    }
    if (!reference.empty() && !(DigestsOf(result) == reference[i])) {
      problems.push_back(where + "digests differ from the reference pass");
    }
  }
}

void Gate::CountExceptions(const Plan& plan) {
  const uint64_t escaped = plan.exceptions->load();
  failed += escaped;
  if (escaped > 0) {
    problems.push_back(std::to_string(escaped) + " run(s) threw out of the executor");
  }
}

void Gate::CheckGoldens(Workload workload, const Plan& plan, const std::vector<Digests>& reference,
                        const Goldens& goldens) {
  for (size_t i = 0; i < plan.units.size(); ++i) {
    const std::string key = std::string(WorkloadName(workload)) + " " + plan.units[i].label;
    const auto golden = goldens.find(key);
    if (golden == goldens.end()) {
      problems.push_back("no golden digests for " + key);
    } else if (!(golden->second == reference[i])) {
      problems.push_back(key + ": digests differ from the golden (" + golden->second.verdict +
                         " " + golden->second.coverage + " " + golden->second.corpus +
                         ") -> (" + reference[i].verdict + " " + reference[i].coverage + " " +
                         reference[i].corpus + ")");
    }
  }
}

}  // namespace perfbench
