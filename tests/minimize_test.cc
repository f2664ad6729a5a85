// Tests for the delta-debugging case minimizer (neat/minimize.h), its
// campaign integration (CampaignOptions::minimize_failures), and the
// structured report artifacts (neat/report.h).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "neat/adapters.h"
#include "neat/campaign.h"
#include "neat/minimize.h"
#include "neat/report.h"
#include "neat/testgen.h"

namespace neat {
namespace {

TestEvent Partition(PartitionKind kind = PartitionKind::kComplete,
                    IsolationTarget target = IsolationTarget::kLeader) {
  TestEvent event;
  event.kind = EventKind::kPartition;
  event.partition = kind;
  event.target = target;
  return event;
}

TestEvent Client(EventKind kind, Side side = Side::kMinority) {
  TestEvent event;
  event.kind = kind;
  event.side = side;
  return event;
}

TestEvent Heal() {
  TestEvent event;
  event.kind = EventKind::kHeal;
  return event;
}

bool ContainsInOrder(const TestCase& test_case, EventKind first, EventKind second) {
  bool saw_first = false;
  for (const TestEvent& event : test_case) {
    if (event.kind == first) {
      saw_first = true;
    } else if (event.kind == second && saw_first) {
      return true;
    }
  }
  return false;
}

// Fails with signature "synthetic" iff the case has a write(minority)
// followed (anywhere later) by a read. The minimal failing subsequence of
// any such case is exactly [write, read] — known by construction.
CaseExecutor WriteThenReadExecutor(uint64_t* executions = nullptr) {
  return [executions](const TestCase& test_case, uint64_t /*seed*/) {
    if (executions != nullptr) {
      ++*executions;
    }
    ExecutionResult result;
    result.trace = FormatTestCase(test_case);
    if (ContainsInOrder(test_case, EventKind::kWrite, EventKind::kRead)) {
      check::Violation violation;
      violation.impact = "synthetic";
      result.violations.push_back(violation);
      result.found_failure = true;
    }
    return result;
  };
}

TEST(Minimize, ReachesTheKnownMinimalSubsequence) {
  const TestCase original{Partition(), Client(EventKind::kWrite), Heal(),
                          Client(EventKind::kRead), Client(EventKind::kWrite, Side::kMajority)};
  const MinimizedRepro repro = MinimizeCase(original, 1, WriteThenReadExecutor());
  EXPECT_TRUE(repro.reproduced);
  EXPECT_EQ(repro.signature, "synthetic");
  ASSERT_EQ(repro.minimized.size(), 2u);
  EXPECT_EQ(repro.minimized[0].kind, EventKind::kWrite);
  EXPECT_EQ(repro.minimized[1].kind, EventKind::kRead);
  EXPECT_EQ(repro.original, original);
  EXPECT_GT(repro.probes, 0u);
  ASSERT_GE(repro.log.size(), 2u);
  EXPECT_EQ(repro.log.front().phase, "reproduce");
  EXPECT_EQ(repro.log.back().phase, "verify");
}

TEST(Minimize, ProbesCountRealExecutionsOnly) {
  uint64_t executions = 0;
  const TestCase original{Partition(), Client(EventKind::kWrite), Heal(),
                          Client(EventKind::kRead)};
  const MinimizedRepro repro = MinimizeCase(original, 1, WriteThenReadExecutor(&executions));
  EXPECT_TRUE(repro.reproduced);
  // probes counts real executions; the final verification run is included.
  EXPECT_EQ(repro.probes, executions);
}

TEST(Minimize, PreservesTheExactCompositeSignature) {
  // Fails with "r" when a read is present, "w" when a minority write is
  // present — so the original's signature is "r+w", and dropping either
  // event still *fails*, but with a different signature. The minimizer must
  // refuse those shrinks.
  const CaseExecutor executor = [](const TestCase& test_case, uint64_t) {
    ExecutionResult result;
    for (const TestEvent& event : test_case) {
      check::Violation violation;
      if (event.kind == EventKind::kRead) {
        violation.impact = "r";
      } else if (event.kind == EventKind::kWrite && event.side == Side::kMinority) {
        violation.impact = "w";
      } else {
        continue;
      }
      result.violations.push_back(violation);
    }
    result.found_failure = !result.violations.empty();
    return result;
  };
  const TestCase original{Partition(), Client(EventKind::kWrite), Client(EventKind::kRead),
                          Heal()};
  const MinimizedRepro repro = MinimizeCase(original, 1, executor);
  EXPECT_TRUE(repro.reproduced);
  EXPECT_EQ(repro.signature, "r+w");
  ASSERT_EQ(repro.minimized.size(), 2u);
  EXPECT_EQ(repro.minimized[0].kind, EventKind::kWrite);
  EXPECT_EQ(repro.minimized[1].kind, EventKind::kRead);
  EXPECT_EQ(FailureSignature(repro.final_result), "r+w");
}

TEST(Minimize, SimplifiesPartitionEventsToTheSimplestPreservingVariant) {
  // Signature depends only on having a write after any partition, so the
  // partial/leader partition can be simplified all the way down to
  // complete/any-replica.
  const CaseExecutor executor = [](const TestCase& test_case, uint64_t) {
    ExecutionResult result;
    if (ContainsInOrder(test_case, EventKind::kPartition, EventKind::kWrite)) {
      check::Violation violation;
      violation.impact = "synthetic";
      result.violations.push_back(violation);
      result.found_failure = true;
    }
    return result;
  };
  const TestCase original{Partition(PartitionKind::kPartial, IsolationTarget::kLeader),
                          Client(EventKind::kWrite)};
  const MinimizedRepro repro = MinimizeCase(original, 1, executor);
  EXPECT_TRUE(repro.reproduced);
  ASSERT_EQ(repro.minimized.size(), 2u);
  EXPECT_EQ(repro.minimized[0].partition, PartitionKind::kComplete);
  EXPECT_EQ(repro.minimized[0].target, IsolationTarget::kAnyReplica);
}

TEST(Minimize, NonReproducingCaseIsReturnedUnshrunk) {
  const TestCase passing{Partition(), Heal()};
  const MinimizedRepro repro = MinimizeCase(passing, 1, WriteThenReadExecutor());
  EXPECT_FALSE(repro.reproduced);
  EXPECT_TRUE(repro.signature.empty());
  EXPECT_EQ(repro.minimized, passing);
}

TEST(Minimize, ProbeBudgetStopsShrinkingButKeepsAValidCase) {
  MinimizeOptions options;
  options.max_probes = 1;  // only the reproduce run fits
  const TestCase original{Partition(), Client(EventKind::kWrite), Heal(),
                          Client(EventKind::kRead)};
  const MinimizedRepro repro = MinimizeCase(original, 1, WriteThenReadExecutor(), options);
  // No shrink probes fit in the budget, so the original comes back — still
  // re-verified against the signature.
  EXPECT_TRUE(repro.reproduced);
  EXPECT_EQ(repro.minimized, original);
}

// --- the seeded pbkv flaw ---

TEST(Minimize, SeededPbkvDirtyReadShrinksToTheKnownMinimalRepro) {
  // [partition(complete,leader), write(minority), read(minority), heal]
  // fails with "dirty read"; dropping the read still fails identically, and
  // the probe matrix (every single-event removal of the 3-event result
  // passes) makes [partition, write, heal] the unique 1-minimal repro.
  const TestCase padded{Partition(), Client(EventKind::kWrite), Client(EventKind::kRead),
                        Heal()};
  const CaseExecutor executor = ReplayExecutor(PbkvRunnerFactory(pbkv::VoltDbOptions()));
  const MinimizedRepro repro = MinimizeCase(padded, 1, executor);
  EXPECT_TRUE(repro.reproduced);
  EXPECT_EQ(repro.signature, "dirty read");
  ASSERT_EQ(repro.minimized.size(), 3u);
  EXPECT_EQ(FormatTestCase(repro.minimized),
            "partition(complete,leader) -> write(minority) -> heal");
  // 1-minimality, re-verified from first principles: removing any single
  // event loses the signature.
  for (size_t i = 0; i < repro.minimized.size(); ++i) {
    TestCase without = repro.minimized;
    without.erase(without.begin() + static_cast<ptrdiff_t>(i));
    EXPECT_NE(FailureSignature(executor(without, 1)), repro.signature)
        << "removing " << repro.minimized[i].DebugString() << " should break the repro";
  }
}

TEST(Minimize, DeterministicAcrossRepeatedRuns) {
  const TestCase padded{Partition(), Client(EventKind::kWrite), Client(EventKind::kRead),
                        Heal()};
  const CaseExecutor executor = ReplayExecutor(PbkvRunnerFactory(pbkv::VoltDbOptions()));
  const MinimizedRepro first = MinimizeCase(padded, 1, executor);
  const MinimizedRepro second = MinimizeCase(padded, 1, executor);
  EXPECT_EQ(FormatTestCase(first.minimized), FormatTestCase(second.minimized));
  EXPECT_EQ(first.probes, second.probes);
  EXPECT_EQ(first.signature, second.signature);
}

// --- campaign integration + the acceptance criterion ---

// Runs a minimizing campaign over the paper-pruned len <= 4 space and
// checks the triage contract for every unique signature.
void CheckMinimizedCampaign(const CampaignResult& result, const CaseExecutor& executor) {
  ASSERT_EQ(result.minimized.size(), result.signature_counts.size());
  for (const MinimizedRepro& repro : result.minimized) {
    EXPECT_EQ(result.signature_counts.count(repro.signature), 1u);
    EXPECT_TRUE(repro.reproduced) << repro.signature;
    EXPECT_LE(repro.minimized.size(), repro.original.size());
    // (a) the minimized repro still fails with the same signature on a
    // fresh re-execution outside the minimizer.
    EXPECT_EQ(FailureSignature(executor(repro.minimized, repro.seed)), repro.signature);
  }
}

TEST(CampaignMinimize, SeededFlawsYieldVerifiedReprosIdenticalAcrossThreadCounts) {
  // The acceptance criterion: on the seeded pbkv and locksvc flaw suites,
  // every unique failure signature of the len <= 4 campaign yields a
  // minimized repro that re-fails identically, never grows, and is
  // byte-identical between 1-thread and 8-thread runs (as is the verdict
  // digest the reports embed).
  struct Target {
    TestCaseGenerator generator;
    CaseExecutor executor;
  };
  TestCaseGenerator::Alphabet lock_alphabet;
  lock_alphabet.client_events = {EventKind::kLock, EventKind::kUnlock};
  std::vector<Target> targets;
  targets.push_back({TestCaseGenerator(TestCaseGenerator::Alphabet{}),
                     ReplayExecutor(PbkvRunnerFactory(pbkv::VoltDbOptions()))});
  targets.push_back({TestCaseGenerator(lock_alphabet),
                     ReplayExecutor(LocksvcRunnerFactory(locksvc::IgniteOptions()))});

  for (const Target& target : targets) {
    CampaignOptions serial;
    serial.threads = 1;
    serial.minimize_failures = true;
    CampaignOptions parallel = serial;
    parallel.threads = 8;
    const CampaignResult one =
        RunCampaign(target.generator, 4, PaperPruning(), target.executor, serial);
    const CampaignResult eight =
        RunCampaign(target.generator, 4, PaperPruning(), target.executor, parallel);

    ASSERT_GT(one.failures, 0u);
    EXPECT_EQ(one.VerdictDigest(), eight.VerdictDigest());
    CheckMinimizedCampaign(one, target.executor);
    CheckMinimizedCampaign(eight, target.executor);
    ASSERT_EQ(one.minimized.size(), eight.minimized.size());
    for (size_t i = 0; i < one.minimized.size(); ++i) {
      EXPECT_EQ(one.minimized[i].signature, eight.minimized[i].signature);
      // Byte-identical repro at any thread count.
      EXPECT_EQ(FormatTestCase(one.minimized[i].minimized),
                FormatTestCase(eight.minimized[i].minimized));
      EXPECT_EQ(FormatTestCase(one.minimized[i].original),
                FormatTestCase(eight.minimized[i].original));
      EXPECT_EQ(one.minimized[i].probes, eight.minimized[i].probes);
    }
  }
}

TEST(CampaignMinimize, OffByDefaultAndPhaseTimingsAddUp) {
  TestCaseGenerator gen{TestCaseGenerator::Alphabet{}};
  const auto suite = gen.EnumerateUpTo(2, PaperPruning());
  CampaignOptions options;
  options.threads = 2;
  const CampaignResult result = RunCampaign(suite, WriteThenReadExecutor(), options);
  EXPECT_TRUE(result.minimized.empty());
  EXPECT_EQ(result.minimize_seconds, 0.0);
  EXPECT_GE(result.wall_seconds, result.sweep_seconds);
}

// --- the fixpoint property ---

// Formats a shrink log for byte-level comparison.
std::string FormatLog(const std::vector<ShrinkStep>& log) {
  std::string out;
  for (const ShrinkStep& step : log) {
    out += step.phase + "|" + step.detail + "|" + std::to_string(step.events_after) + "|" +
           std::to_string(step.probes_after) + "\n";
  }
  return out;
}

TEST(Minimize, MinimizationIsAFixpointOnThePbkvPaperSuite) {
  // Property: minimization is idempotent. For every minimized repro the
  // pbkv paper-suite campaign produces, feeding the minimized case back
  // through MinimizeCase must return it byte-identical (a 1-minimal,
  // partition-simplified case admits no further accepted shrink), and two
  // such re-minimizations must agree on the shrink log byte for byte.
  TestCaseGenerator gen{TestCaseGenerator::Alphabet{}};
  const CaseExecutor executor = ReplayExecutor(PbkvRunnerFactory(pbkv::VoltDbOptions()));
  CampaignOptions options;
  options.threads = 8;
  options.minimize_failures = true;
  const CampaignResult result = RunCampaign(gen, 4, PaperPruning(), executor, options);
  ASSERT_GT(result.failures, 0u);
  ASSERT_FALSE(result.minimized.empty());
  for (const MinimizedRepro& repro : result.minimized) {
    ASSERT_TRUE(repro.reproduced) << repro.signature;
    const MinimizedRepro again = MinimizeCase(repro.minimized, repro.seed, executor);
    EXPECT_TRUE(again.reproduced) << repro.signature;
    EXPECT_EQ(again.signature, repro.signature);
    EXPECT_EQ(FormatTestCase(again.minimized), FormatTestCase(repro.minimized))
        << "re-minimizing must be a no-op";
    const MinimizedRepro twice = MinimizeCase(repro.minimized, repro.seed, executor);
    EXPECT_EQ(FormatTestCase(twice.minimized), FormatTestCase(again.minimized));
    EXPECT_EQ(FormatLog(twice.log), FormatLog(again.log))
        << "the shrink log must be deterministic byte for byte";
    EXPECT_EQ(twice.probes, again.probes);
  }
}

// --- report artifacts ---

TEST(Report, JsonAndMarkdownCarryTheRepros) {
  TestCaseGenerator gen{TestCaseGenerator::Alphabet{}};
  CampaignOptions options;
  options.threads = 2;
  options.minimize_failures = true;
  const CampaignResult result =
      RunCampaign(gen, 3, PaperPruning(), WriteThenReadExecutor(), options);
  ASSERT_GT(result.failures, 0u);
  ASSERT_EQ(result.minimized.size(), 1u);

  ReportContext context;
  context.title = "synthetic \"triage\"";  // exercises JSON escaping
  context.system = "synthetic";
  context.suite = "paper-pruned, len <= 3";
  context.threads = 2;

  const std::string json = JsonReport(result, context);
  EXPECT_NE(json.find("\"synthetic \\\"triage\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"signature\": \"synthetic\""), std::string::npos);
  EXPECT_NE(json.find("\"reproduced\": true"), std::string::npos);
  EXPECT_NE(json.find("\"verdict_digest\": \"" + result.VerdictDigest() + "\""),
            std::string::npos);
  EXPECT_NE(json.find("\"shrink_log\""), std::string::npos);

  const std::string markdown = MarkdownReport(result, context);
  EXPECT_NE(markdown.find("## Failure signatures"), std::string::npos);
  EXPECT_NE(markdown.find(FormatTestCase(result.minimized[0].minimized)),
            std::string::npos);
  EXPECT_NE(markdown.find(result.VerdictDigest()), std::string::npos);
}

TEST(Report, ReproIsNullWithoutMinimization) {
  TestCaseGenerator gen{TestCaseGenerator::Alphabet{}};
  CampaignOptions options;
  options.threads = 1;
  const CampaignResult result =
      RunCampaign(gen, 3, PaperPruning(), WriteThenReadExecutor(), options);
  ASSERT_GT(result.failures, 0u);
  const std::string json = JsonReport(result, ReportContext{});
  EXPECT_NE(json.find("\"repro\": null"), std::string::npos);
}

}  // namespace
}  // namespace neat
