// Tests for the NEAT framework: the test environment (partition + crash
// API, global op order), the test-case generator with the Chapter-5 pruning
// rules (materialized and streaming), the ISystem adapters, the executors,
// and the parallel campaign runner.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "check/checkers.h"
#include "neat/adapters.h"
#include "neat/campaign.h"
#include "neat/coverage.h"
#include "neat/env.h"
#include "neat/mutate.h"
#include "neat/testgen.h"
#include "neat/trace_report.h"

namespace neat {
namespace {

TEST(TestEnvTest, RestUsesTheRegisteredUniverse) {
  pbkv::Cluster::Config config;
  PbkvSystem system(config);
  TestEnv& env = system.Env();
  // Universe: 3 servers + 2 clients.
  net::Group rest = env.Rest({1, 2});
  ASSERT_EQ(rest.size(), 3u);
  EXPECT_EQ(rest[0], 3);
}

TEST(TestEnvTest, CrashAndRestartThroughTheEnv) {
  pbkv::Cluster::Config config;
  PbkvSystem system(config);
  TestEnv& env = system.Env();
  env.Sleep(sim::Milliseconds(300));
  ASSERT_TRUE(system.GetStatus());
  env.Crash({1});
  EXPECT_TRUE(env.FindProcess(1)->crashed());
  env.Sleep(sim::Seconds(2));
  // The remaining majority elected a replacement primary.
  EXPECT_TRUE(system.GetStatus());
  env.Restart({1});
  EXPECT_FALSE(env.FindProcess(1)->crashed());
}

TEST(TestEnvTest, CrashedNodeStaysInUniverseAndDropsAsNoReceiver) {
  // Crashed-node semantics: crash() detaches the process's handler but the
  // node keeps its network address — the universe (and therefore Rest()) is
  // unchanged, peers' traffic to it drops as "no receiver", and restart()
  // resumes delivery.
  pbkv::Cluster::Config config;
  PbkvSystem system(config);
  TestEnv& env = system.Env();
  env.Sleep(sim::Milliseconds(300));
  const net::Group universe_before = env.network().Universe();

  env.Crash({1});
  EXPECT_EQ(env.network().Universe(), universe_before);
  const auto no_receiver_drops_to = [&env](net::NodeId node) {
    size_t count = 0;
    const std::string link = "->" + std::to_string(node) + " ";
    for (const auto& record : env.simulator().Trace().Filter("net")) {
      if (record.detail.find("no receiver") != std::string::npos &&
          record.detail.find(link) != std::string::npos) {
        ++count;
      }
    }
    return count;
  };
  const size_t drops_at_crash = no_receiver_drops_to(1);
  env.Sleep(sim::Seconds(1));
  // Heartbeats kept flowing to the crashed node and died as "no receiver".
  EXPECT_GT(no_receiver_drops_to(1), drops_at_crash);

  env.Restart({1});
  const size_t drops_at_restart = no_receiver_drops_to(1);
  env.Sleep(sim::Seconds(1));
  EXPECT_EQ(no_receiver_drops_to(1), drops_at_restart);
  EXPECT_TRUE(system.GetStatus());
}

TEST(TestEnvTest, ShutdownCrashesEveryServer) {
  pbkv::Cluster::Config config;
  PbkvSystem system(config);
  system.Env().Sleep(sim::Milliseconds(300));
  system.Shutdown();
  for (net::NodeId node : system.Servers()) {
    EXPECT_TRUE(system.Env().FindProcess(node)->crashed());
  }
  EXPECT_FALSE(system.GetStatus());
}

TEST(TestEnvTest, PartitionApiMatchesThePaper) {
  pbkv::Cluster::Config config;
  PbkvSystem system(config);
  TestEnv& env = system.Env();
  net::Partition p = env.Partial({1}, {2});
  EXPECT_FALSE(env.backend().Allows(1, 2));
  EXPECT_TRUE(env.backend().Allows(1, 3));
  env.Heal(p);
  EXPECT_TRUE(env.backend().Allows(1, 2));
}

TEST(TestEnvTest, AwaitRunsUntilPredicate) {
  pbkv::Cluster::Config config;
  PbkvSystem system(config);
  TestEnv& env = system.Env();
  const bool ok =
      env.Await([&]() { return env.simulator().Now() >= sim::Milliseconds(100); });
  EXPECT_TRUE(ok);
}

// --- test-case generation ---

TEST(TestGen, UnprunedCountIsAlphabetPower) {
  TestCaseGenerator::Alphabet alphabet;
  TestCaseGenerator gen(alphabet);
  const uint64_t n = gen.Instances().size();
  EXPECT_EQ(gen.UnprunedCount(1), n);
  EXPECT_EQ(gen.UnprunedCount(3), n * n * n);
}

TEST(TestGen, NoPruningEnumeratesEverything) {
  TestCaseGenerator::Alphabet alphabet;
  TestCaseGenerator gen(alphabet);
  auto cases = gen.Enumerate(2, NoPruning());
  EXPECT_EQ(cases.size(), gen.UnprunedCount(2));
}

TEST(TestGen, PartitionFirstForcesTheFaultUpFront) {
  TestCaseGenerator::Alphabet alphabet;
  TestCaseGenerator gen(alphabet);
  PruningRules rules;
  rules.partition_first = true;
  for (const TestCase& test_case : gen.Enumerate(3, rules)) {
    ASSERT_FALSE(test_case.empty());
    EXPECT_EQ(test_case.front().kind, EventKind::kPartition)
        << FormatTestCase(test_case);
  }
}

TEST(TestGen, NaturalOrderForbidsReadBeforeWrite) {
  TestCaseGenerator::Alphabet alphabet;
  TestCaseGenerator gen(alphabet);
  PruningRules rules;
  rules.natural_order = true;
  for (const TestCase& test_case : gen.Enumerate(3, rules)) {
    bool wrote = false;
    for (const TestEvent& event : test_case) {
      if (event.kind == EventKind::kWrite) {
        wrote = true;
      }
      if (event.kind == EventKind::kRead || event.kind == EventKind::kDelete) {
        EXPECT_TRUE(wrote) << FormatTestCase(test_case);
      }
    }
  }
}

TEST(TestGen, SinglePartitionRuleAllowsAtMostOneFault) {
  TestCaseGenerator::Alphabet alphabet;
  TestCaseGenerator gen(alphabet);
  PruningRules rules;
  rules.single_partition = true;
  for (const TestCase& test_case : gen.Enumerate(3, rules)) {
    int partitions = 0;
    for (const TestEvent& event : test_case) {
      if (event.kind == EventKind::kPartition) {
        ++partitions;
      }
    }
    EXPECT_LE(partitions, 1) << FormatTestCase(test_case);
  }
}

TEST(TestGen, PaperPruningShrinksTheSpaceDramatically) {
  TestCaseGenerator::Alphabet alphabet;
  TestCaseGenerator gen(alphabet);
  const auto pruned = gen.EnumerateUpTo(4, PaperPruning());
  uint64_t unpruned = 0;
  for (int len = 1; len <= 4; ++len) {
    unpruned += gen.UnprunedCount(len);
  }
  EXPECT_LT(pruned.size() * 10, unpruned)
      << "pruning should remove at least 90% of the space";
  EXPECT_FALSE(pruned.empty());
}

TEST(TestGen, EventDebugStringsAreDescriptive) {
  TestEvent partition;
  partition.kind = EventKind::kPartition;
  partition.partition = PartitionKind::kPartial;
  partition.target = IsolationTarget::kLeader;
  EXPECT_EQ(partition.DebugString(), "partition(partial,leader)");
  TestEvent write;
  write.kind = EventKind::kWrite;
  write.side = Side::kMinority;
  EXPECT_EQ(write.DebugString(), "write(minority)");
}

// --- streaming generation ---

std::vector<PruningRules> AllRuleSets() {
  PruningRules none;
  PruningRules partition_first;
  partition_first.partition_first = true;
  PruningRules natural;
  natural.natural_order = true;
  PruningRules single;
  single.single_partition = true;
  PruningRules three_events;
  three_events.max_client_events = 3;
  return {none, partition_first, natural, single, three_events, PaperPruning()};
}

TEST(TestGenStream, CursorMatchesEnumerateForAllRuleSetsAndLengths) {
  TestCaseGenerator::Alphabet alphabet;
  TestCaseGenerator gen(alphabet);
  for (const PruningRules& rules : AllRuleSets()) {
    for (int length = 1; length <= 4; ++length) {
      const auto expected = gen.Enumerate(length, rules);
      std::vector<TestCase> via_cursor;
      auto cursor = gen.MakeCursor(length, rules);
      TestCase test_case;
      while (cursor.Next(&test_case)) {
        via_cursor.push_back(test_case);
      }
      // Order included: the cursor must walk the exact DFS order Enumerate
      // materializes.
      EXPECT_EQ(via_cursor, expected) << "length " << length;
      std::vector<TestCase> via_stream;
      EXPECT_TRUE(gen.Stream(length, rules, [&via_stream](const TestCase& streamed) {
        via_stream.push_back(streamed);
        return true;
      }));
      EXPECT_EQ(via_stream, expected) << "length " << length;
    }
  }
}

TEST(TestGenStream, CursorUpToMatchesEnumerateUpTo) {
  TestCaseGenerator::Alphabet alphabet;
  TestCaseGenerator gen(alphabet);
  for (const PruningRules& rules : AllRuleSets()) {
    const auto expected = gen.EnumerateUpTo(4, rules);
    std::vector<TestCase> via_cursor;
    auto cursor = gen.MakeCursorUpTo(4, rules);
    TestCase test_case;
    while (cursor.Next(&test_case)) {
      via_cursor.push_back(test_case);
    }
    EXPECT_EQ(via_cursor, expected);
  }
}

TEST(TestGenStream, EarlyStopAbortsTheEnumeration) {
  TestCaseGenerator::Alphabet alphabet;
  TestCaseGenerator gen(alphabet);
  size_t seen = 0;
  const bool completed = gen.StreamUpTo(3, NoPruning(), [&seen](const TestCase&) {
    return ++seen < 5;
  });
  EXPECT_FALSE(completed);
  EXPECT_EQ(seen, 5u);
}

TEST(TestGenStream, LengthFiveCountOnlySmoke) {
  // The length-5 paper-pruned space is streamed count-only: the cursor holds
  // O(max_length) state, so the suite never materializes. Both streaming
  // forms must agree, and length 5 must strictly extend length 4.
  TestCaseGenerator::Alphabet alphabet;
  TestCaseGenerator gen(alphabet);
  uint64_t streamed = 0;
  EXPECT_TRUE(gen.StreamUpTo(5, PaperPruning(), [&streamed](const TestCase& test_case) {
    EXPECT_LE(test_case.size(), 5u);
    ++streamed;
    return true;
  }));
  uint64_t pulled = 0;
  auto cursor = gen.MakeCursorUpTo(5, PaperPruning());
  TestCase test_case;
  while (cursor.Next(&test_case)) {
    ++pulled;
  }
  EXPECT_EQ(streamed, pulled);
  EXPECT_GT(streamed, gen.EnumerateUpTo(4, PaperPruning()).size());
}

// --- campaign runner ---

// A cheap deterministic executor for campaign-mechanics tests: fails iff
// case length plus seed is even, with a synthetic violation to exercise the
// signature dedup.
CaseExecutor SyntheticExecutor() {
  return [](const TestCase& test_case, uint64_t seed) {
    ExecutionResult result;
    result.trace = FormatTestCase(test_case);
    if ((test_case.size() + seed) % 2 == 0) {
      check::Violation violation;
      violation.impact = "synthetic";
      violation.description = "length+seed is even";
      result.violations.push_back(violation);
      result.found_failure = true;
    }
    return result;
  };
}

TEST(Campaign, AggregatesDeterministicallyKeyedByCaseIndex) {
  TestCaseGenerator::Alphabet alphabet;
  TestCaseGenerator gen(alphabet);
  const auto suite = gen.EnumerateUpTo(2, PaperPruning());
  ASSERT_FALSE(suite.empty());
  CampaignOptions options;
  options.threads = 4;
  const CampaignResult result = RunCampaign(suite, SyntheticExecutor(), options);
  ASSERT_EQ(result.cases_run, suite.size());
  uint64_t failures = 0;
  int64_t first = -1;
  for (size_t i = 0; i < suite.size(); ++i) {
    EXPECT_EQ(result.cases[i].case_index, i);
    EXPECT_EQ(result.cases[i].seed, 1u);
    EXPECT_EQ(result.cases[i].trace, FormatTestCase(suite[i]));
    const bool expect_failure = (suite[i].size() + 1) % 2 == 0;
    EXPECT_EQ(result.cases[i].found_failure, expect_failure);
    if (expect_failure) {
      ++failures;
      if (first < 0) {
        first = static_cast<int64_t>(i);
      }
    }
  }
  EXPECT_EQ(result.failures, failures);
  EXPECT_EQ(result.first_failure_index, first);
  EXPECT_EQ(result.signature_counts.at("synthetic"), failures);
}

TEST(Campaign, MultiSeedRunsEveryCaseUnderEverySeed) {
  TestCaseGenerator::Alphabet alphabet;
  TestCaseGenerator gen(alphabet);
  const auto suite = gen.Enumerate(1, PaperPruning());
  ASSERT_FALSE(suite.empty());
  CampaignOptions options;
  options.threads = 3;
  options.seeds = 3;
  const CampaignResult result = RunCampaign(suite, SyntheticExecutor(), options);
  ASSERT_EQ(result.cases_run, suite.size() * 3);
  for (size_t i = 0; i < result.cases.size(); ++i) {
    EXPECT_EQ(result.cases[i].case_index, i / 3);
    EXPECT_EQ(result.cases[i].seed, i % 3 + 1);
    // Length-1 cases fail on odd seeds (1 + seed even).
    EXPECT_EQ(result.cases[i].found_failure, (1 + result.cases[i].seed) % 2 == 0);
  }
}

TEST(Campaign, StreamingSourceMatchesMaterializedSuite) {
  TestCaseGenerator::Alphabet alphabet;
  TestCaseGenerator gen(alphabet);
  CampaignOptions options;
  options.threads = 4;
  options.seeds = 2;
  const CampaignResult streamed =
      RunCampaign(gen, 3, PaperPruning(), SyntheticExecutor(), options);
  const CampaignResult materialized =
      RunCampaign(gen.EnumerateUpTo(3, PaperPruning()), SyntheticExecutor(), options);
  EXPECT_EQ(streamed.cases_run, materialized.cases_run);
  EXPECT_EQ(streamed.VerdictDigest(), materialized.VerdictDigest());
}

TEST(Campaign, ProgressReportsEveryRunAndIsMonotonic) {
  TestCaseGenerator::Alphabet alphabet;
  TestCaseGenerator gen(alphabet);
  const auto suite = gen.EnumerateUpTo(2, PaperPruning());
  CampaignOptions options;
  options.threads = 4;
  uint64_t calls = 0;
  uint64_t last_done = 0;
  bool monotonic = true;
  options.progress = [&](uint64_t done, uint64_t total, uint64_t failures_so_far) {
    ++calls;
    monotonic = monotonic && done > last_done && failures_so_far <= done;
    last_done = done;
    EXPECT_EQ(total, suite.size());
  };
  const CampaignResult result = RunCampaign(suite, SyntheticExecutor(), options);
  EXPECT_EQ(calls, result.cases_run);
  EXPECT_EQ(last_done, result.cases_run);
  EXPECT_TRUE(monotonic);
}

TEST(Campaign, ProgressSnapshotsAreMonotonicUnderManyThreads) {
  // done and failures are snapshotted together under one lock: across many
  // workers racing to report, no observer may ever see the failure count
  // decrease, jump by more than the done count, or see done skip a run.
  TestCaseGenerator::Alphabet alphabet;
  TestCaseGenerator gen(alphabet);
  const auto suite = gen.EnumerateUpTo(3, PaperPruning());
  ASSERT_GT(suite.size(), 32u);
  CampaignOptions options;
  options.threads = 8;
  options.seeds = 2;
  uint64_t last_done = 0;
  uint64_t last_failures = 0;
  bool consistent = true;
  options.progress = [&](uint64_t done, uint64_t total, uint64_t failures_so_far) {
    consistent = consistent && done == last_done + 1          // no skipped runs
                 && failures_so_far >= last_failures          // never decreases
                 && failures_so_far - last_failures <= 1      // at most this run
                 && failures_so_far <= done && total == suite.size() * 2;
    last_done = done;
    last_failures = failures_so_far;
  };
  const CampaignResult result = RunCampaign(suite, SyntheticExecutor(), options);
  EXPECT_TRUE(consistent);
  EXPECT_EQ(last_done, result.cases_run);
  EXPECT_EQ(last_failures, result.failures);
  EXPECT_GT(result.failures, 0u);
}

TEST(Campaign, StreamingProgressReportsTheCountableTotal) {
  // The streaming overload pre-counts the pruned space (it is far below the
  // precount limit), so the progress callback sees the real total instead
  // of 0.
  TestCaseGenerator::Alphabet alphabet;
  TestCaseGenerator gen(alphabet);
  const uint64_t expected = gen.EnumerateUpTo(3, PaperPruning()).size();
  CampaignOptions options;
  options.threads = 4;
  options.seeds = 2;
  uint64_t seen_total = 0;
  uint64_t calls = 0;
  options.progress = [&](uint64_t, uint64_t total, uint64_t) {
    seen_total = total;
    ++calls;
  };
  const CampaignResult result =
      RunCampaign(gen, 3, PaperPruning(), SyntheticExecutor(), options);
  EXPECT_EQ(seen_total, expected * 2) << "total covers every (case, seed) run";
  EXPECT_EQ(calls, result.cases_run);
}

TEST(TestGen, CountUpToMatchesEnumerationAndHonorsTheLimit) {
  TestCaseGenerator::Alphabet alphabet;
  TestCaseGenerator gen(alphabet);
  const uint64_t exact = gen.EnumerateUpTo(3, PaperPruning()).size();
  EXPECT_EQ(gen.CountUpTo(3, PaperPruning()), exact);
  EXPECT_EQ(gen.CountUpTo(3, PaperPruning(), exact + 1), exact);
  // A space at least as large as the limit is reported as 0 ("unknown").
  EXPECT_EQ(gen.CountUpTo(3, PaperPruning(), exact), 0u);
  EXPECT_EQ(gen.CountUpTo(3, PaperPruning(), 5), 0u);
}

TEST(Campaign, EnvKnobsControlThreadsAndSeeds) {
  ASSERT_EQ(setenv("NEAT_THREADS", "7", 1), 0);
  ASSERT_EQ(setenv("NEAT_SEEDS", "3", 1), 0);
  CampaignOptions options = CampaignOptionsFromEnv();
  EXPECT_EQ(options.threads, 7);
  EXPECT_EQ(options.seeds, 3);
  ASSERT_EQ(setenv("NEAT_THREADS", "not-a-number", 1), 0);
  ASSERT_EQ(unsetenv("NEAT_SEEDS"), 0);
  options = CampaignOptionsFromEnv();
  EXPECT_EQ(options.threads, 0) << "unparsable knob falls back to hardware";
  EXPECT_EQ(options.seeds, 1);
  ASSERT_EQ(unsetenv("NEAT_THREADS"), 0);
}

TEST(Campaign, ParallelEqualsSerialOnThePaperPrunedPbkvSuite) {
  // The determinism contract on the real executor: one worker and four
  // workers over the paper-pruned pbkv suite must produce identical
  // per-case verdicts and identical aggregates.
  TestCaseGenerator::Alphabet alphabet;
  TestCaseGenerator gen(alphabet);
  const auto suite = gen.EnumerateUpTo(3, PaperPruning());
  const CaseExecutor executor = ReplayExecutor(PbkvRunnerFactory(pbkv::VoltDbOptions()));
  CampaignOptions serial_options;
  serial_options.threads = 1;
  CampaignOptions parallel_options;
  parallel_options.threads = 4;
  const CampaignResult serial = RunCampaign(suite, executor, serial_options);
  const CampaignResult parallel = RunCampaign(suite, executor, parallel_options);
  ASSERT_EQ(serial.cases_run, suite.size());
  ASSERT_EQ(parallel.cases_run, serial.cases_run);
  for (size_t i = 0; i < serial.cases.size(); ++i) {
    EXPECT_EQ(parallel.cases[i].case_index, serial.cases[i].case_index);
    EXPECT_EQ(parallel.cases[i].seed, serial.cases[i].seed);
    EXPECT_EQ(parallel.cases[i].found_failure, serial.cases[i].found_failure)
        << serial.cases[i].trace;
    EXPECT_EQ(parallel.cases[i].signature, serial.cases[i].signature)
        << serial.cases[i].trace;
    EXPECT_EQ(parallel.cases[i].trace, serial.cases[i].trace);
  }
  EXPECT_EQ(parallel.failures, serial.failures);
  EXPECT_EQ(parallel.first_failure_index, serial.first_failure_index);
  EXPECT_EQ(parallel.signature_counts, serial.signature_counts);
  EXPECT_EQ(parallel.VerdictDigest(), serial.VerdictDigest());
  EXPECT_GT(serial.failures, 0u) << "the VoltDB-like variant must fail the sweep";
}

TEST(Campaign, LongerSuiteRediscoversEveryShorterSignature) {
  // Raising the paper-pruned sweep from len <= 3 to len <= 4 must keep
  // every failure signature the shorter sweep finds, and still find each
  // preset's seeded flaw.
  TestCaseGenerator::Alphabet alphabet;
  const TestCaseGenerator gen(alphabet);
  CampaignOptions options;
  options.threads = 4;
  const struct {
    const char* name;
    pbkv::Options options;
    const char* impact;
  } presets[] = {
      {"voltdb", pbkv::VoltDbOptions(), "dirty read"},
      {"elasticsearch", pbkv::ElasticsearchOptions(), "data loss"},
      {"async-replication", pbkv::AsyncReplicationOptions(), "data loss"},
  };
  for (const auto& preset : presets) {
    SCOPED_TRACE(preset.name);
    const CaseExecutor executor = ReplayExecutor(PbkvRunnerFactory(preset.options));
    const CampaignResult upto3 = RunCampaign(gen, 3, PaperPruning(), executor, options);
    const CampaignResult upto4 = RunCampaign(gen, 4, PaperPruning(), executor, options);
    EXPECT_GE(upto4.failures, upto3.failures);
    for (const auto& [signature, count] : upto3.signature_counts) {
      EXPECT_EQ(upto4.signature_counts.count(signature), 1u) << signature;
    }
    bool flaw_found = false;
    for (const auto& [signature, count] : upto4.signature_counts) {
      flaw_found |= signature.find(preset.impact) != std::string::npos;
    }
    EXPECT_TRUE(flaw_found) << preset.impact;
  }
}

// --- executor ---

TestCase DirtyReadCase() {
  // partition(complete, leader) -> write(minority) -> read(minority):
  // the Figure 2 manifestation sequence.
  TestEvent partition;
  partition.kind = EventKind::kPartition;
  partition.partition = PartitionKind::kComplete;
  partition.target = IsolationTarget::kLeader;
  TestEvent write;
  write.kind = EventKind::kWrite;
  write.side = Side::kMinority;
  TestEvent read;
  read.kind = EventKind::kRead;
  read.side = Side::kMinority;
  return TestCase{partition, write, read};
}

TEST(Executor, FindsTheDirtyReadInTheFlawedSystem) {
  auto result =
      ReplayExecutor(PbkvRunnerFactory(pbkv::VoltDbOptions()))(DirtyReadCase(), /*seed=*/1);
  EXPECT_TRUE(result.found_failure) << result.trace;
  bool has_dirty = false;
  for (const auto& violation : result.violations) {
    if (violation.impact == "dirty read") {
      has_dirty = true;
    }
  }
  EXPECT_TRUE(has_dirty);
}

TEST(Executor, CleanOnTheCorrectedSystem) {
  auto result =
      ReplayExecutor(PbkvRunnerFactory(pbkv::CorrectOptions()))(DirtyReadCase(), /*seed=*/1);
  EXPECT_FALSE(result.found_failure) << check::FormatViolations(result.violations);
}

TEST(Executor, PrunedSuiteFindsTheSeededBugs) {
  // Run the whole paper-pruned suite (3-event cases) against the flawed
  // configurations; it must expose both seeded bugs.
  TestCaseGenerator::Alphabet alphabet;
  TestCaseGenerator gen(alphabet);
  auto suite = gen.EnumerateUpTo(3, PaperPruning());
  const CaseExecutor voltdb = ReplayExecutor(PbkvRunnerFactory(pbkv::VoltDbOptions()));
  const CaseExecutor correct = ReplayExecutor(PbkvRunnerFactory(pbkv::CorrectOptions()));
  int voltdb_failures = 0;
  int correct_failures = 0;
  for (const TestCase& test_case : suite) {
    if (voltdb(test_case, 1).found_failure) {
      ++voltdb_failures;
    }
    if (correct(test_case, 1).found_failure) {
      ++correct_failures;
    }
  }
  EXPECT_GT(voltdb_failures, 0) << "the suite must catch the VoltDB-style dirty read";
  EXPECT_EQ(correct_failures, 0) << "the corrected system must pass the whole suite";
}

TEST(Executor, LocksvcSuiteExposesDoubleLocking) {
  TestCaseGenerator::Alphabet alphabet;
  alphabet.client_events = {EventKind::kLock, EventKind::kUnlock};
  TestCaseGenerator gen(alphabet);
  auto suite = gen.EnumerateUpTo(3, PaperPruning());
  const CaseExecutor ignite = ReplayExecutor(LocksvcRunnerFactory(locksvc::IgniteOptions()));
  const CaseExecutor correct = ReplayExecutor(LocksvcRunnerFactory(locksvc::CorrectOptions()));
  int flawed = 0;
  int fixed = 0;
  for (const TestCase& test_case : suite) {
    if (ignite(test_case, 1).found_failure) {
      ++flawed;
    }
    if (correct(test_case, 1).found_failure) {
      ++fixed;
    }
  }
  EXPECT_GT(flawed, 0) << "the suite must expose the Ignite double locking";
  EXPECT_EQ(fixed, 0);
}

TEST(TraceReport, SummarizesDropsAndLeadership) {
  sim::TraceLog log;
  log.Append(sim::Milliseconds(1), "net", "drop", "1->2 pbkv.Replicate (partitioned)");
  log.Append(sim::Milliseconds(2), "net", "drop", "1->2 pbkv.Replicate (partitioned)");
  log.Append(sim::Milliseconds(3), "net", "drop", "3->1 Heartbeat (partitioned)");
  log.Append(sim::Milliseconds(4), "pbkv.n2", "election-start", "term=2");
  log.Append(sim::Milliseconds(5), "pbkv.n2", "elected", "term=2");
  log.Append(sim::Milliseconds(6), "pbkv.n1", "step-down", "lost majority");
  const TraceReport report = Summarize(log);
  EXPECT_EQ(report.total_records, 6u);
  EXPECT_EQ(report.drops_per_link.at("1->2"), 2u);
  EXPECT_EQ(report.drops_per_link.at("3->1"), 1u);
  EXPECT_EQ(report.leadership_events.size(), 3u);
  const std::string text = FormatReport(report);
  EXPECT_NE(text.find("3 messages dropped on 2 links"), std::string::npos);
  EXPECT_NE(text.find("worst: 1->2 x2"), std::string::npos);
  EXPECT_NE(text.find("elected"), std::string::npos);
}

TEST(TraceReport, MalformedDropDetailStillCounts) {
  // A drop record whose detail has no space separator is counted under the
  // raw detail, so the per-link totals always sum to event_counts["drop"].
  sim::TraceLog log;
  log.Append(sim::Milliseconds(1), "net", "drop", "1->2 pbkv.Replicate (partitioned)");
  log.Append(sim::Milliseconds(2), "net", "drop", "malformed-detail");
  log.Append(sim::Milliseconds(3), "net", "drop", "");
  const TraceReport report = Summarize(log);
  EXPECT_EQ(report.drops_per_link.at("1->2"), 1u);
  EXPECT_EQ(report.drops_per_link.at("malformed-detail"), 1u);
  EXPECT_EQ(report.drops_per_link.at(""), 1u);
  size_t total = 0;
  for (const auto& [link, count] : report.drops_per_link) {
    total += count;
  }
  EXPECT_EQ(total, report.event_counts.at("drop"));
}

TEST(TraceReport, ExecutorsAttachTheRunsTraceSummary) {
  // The real executors summarize the run's simulation trace into the
  // result, which the campaign reports bundle per minimized repro.
  const auto result =
      ReplayExecutor(PbkvRunnerFactory(pbkv::VoltDbOptions()))(DirtyReadCase(), /*seed=*/1);
  EXPECT_GT(result.trace_report.total_records, 0u);
  EXPECT_FALSE(result.trace_report.drops_per_link.empty())
      << "the partition must have dropped traffic";
}

TEST(TraceReport, NarratesARealFailureRun) {
  pbkv::Cluster::Config config;
  config.options = pbkv::VoltDbOptions();
  PbkvSystem system(config);
  TestEnv& env = system.Env();
  env.Sleep(sim::Milliseconds(500));
  net::Partition part = env.Complete({1}, {2, 3});
  env.Sleep(sim::Seconds(2));
  env.Heal(part);
  env.Sleep(sim::Seconds(1));
  const TraceReport report = Summarize(env.simulator().Trace());
  EXPECT_GT(report.drops_per_link.size(), 0u) << "the partition dropped traffic";
  EXPECT_GE(report.event_counts.at("elected"), 1u) << "the majority elected a new leader";
  EXPECT_GE(report.event_counts.at("step-down"), 1u) << "the old leader stepped down";
}

TEST(Executor, RaftKvSuiteExposesTheMembershipDataLoss) {
  // The RethinkDB-like flaw (#5289): a partial partition plus the
  // fault-model membership change loses acknowledged writes. The
  // paper-pruned suite through the campaign runner must expose it, and the
  // corrected configuration must survive the identical sweep.
  TestCaseGenerator::Alphabet alphabet;
  TestCaseGenerator gen(alphabet);
  CampaignOptions options;
  options.threads = 8;
  options.seeds = 3;
  const CampaignResult flawed = RunCampaign(
      gen, 3, PaperPruning(), ReplayExecutor(RaftKvRunnerFactory(raftkv::RethinkDbOptions())),
      options);
  EXPECT_GT(flawed.failures, 0u);
  bool has_loss = false;
  for (const auto& [signature, count] : flawed.signature_counts) {
    if (signature.find("data loss") != std::string::npos ||
        signature.find("non-linearizable") != std::string::npos) {
      has_loss = true;
    }
  }
  EXPECT_TRUE(has_loss) << "expected a data-loss / non-linearizable signature";
  const CampaignResult correct = RunCampaign(
      gen, 3, PaperPruning(), ReplayExecutor(RaftKvRunnerFactory(raftkv::CorrectOptions())),
      options);
  EXPECT_EQ(correct.failures, 0u)
      << "corrected raftkv failed: " << (correct.signature_counts.empty()
                                             ? std::string("?")
                                             : correct.signature_counts.begin()->first);
}

// Regression: stacked partial partitions make the flawed raftkv's cluster
// add a member through a config entry while a leader holds office. The
// leader had no next_index_ for the new member, so SendAppendEntries read
// index 0 and dereferenced a null log entry (SIGSEGV). ApplyConfig now
// starts the new member at the leader's log end, as BecomeLeader does.
TEST(Executor, RaftKvLeaderReplicatesToMembersAddedByConfig) {
  TestEvent partial_any;
  partial_any.kind = EventKind::kPartition;
  partial_any.partition = PartitionKind::kPartial;
  partial_any.target = IsolationTarget::kAnyReplica;
  TestEvent complete_leader;
  complete_leader.kind = EventKind::kPartition;
  complete_leader.partition = PartitionKind::kComplete;
  complete_leader.target = IsolationTarget::kLeader;
  TestEvent read_majority;
  read_majority.kind = EventKind::kRead;
  read_majority.side = Side::kMajority;
  TestEvent partial_leader = partial_any;
  partial_leader.target = IsolationTarget::kLeader;
  const TestCase test_case{partial_any, complete_leader, read_majority, partial_leader,
                           partial_any};
  const ExecutionResult result =
      ReplayExecutor(RaftKvRunnerFactory(raftkv::RethinkDbOptions()))(test_case, /*seed=*/2);
  EXPECT_EQ(result.trace, FormatTestCase(test_case));
  EXPECT_GE(result.trace_report.event_counts.at("config"), 1u)
      << "the case must exercise a membership change";
}

TEST(Executor, MqueueSuiteExposesTheDoubleDequeue) {
  // The ActiveMQ-like flaw (AMQ-6978): both sides of the cut dequeue the
  // pre-seeded replicated message. Judged by the double-dequeue checker
  // over the paper-pruned suite; the corrected broker must stay clean.
  TestCaseGenerator::Alphabet alphabet;
  TestCaseGenerator gen(alphabet);
  CampaignOptions options;
  options.threads = 8;
  options.seeds = 3;
  const CampaignResult flawed = RunCampaign(
      gen, 3, PaperPruning(), ReplayExecutor(MqueueRunnerFactory(mqueue::ActiveMqOptions())),
      options);
  EXPECT_GT(flawed.failures, 0u);
  EXPECT_TRUE(flawed.signature_counts.count("double dequeue"))
      << "expected the AMQ-6978 double-dequeue signature";
  const CampaignResult correct = RunCampaign(
      gen, 3, PaperPruning(), ReplayExecutor(MqueueRunnerFactory(mqueue::CorrectOptions())),
      options);
  EXPECT_EQ(correct.failures, 0u)
      << "corrected mqueue failed: " << (correct.signature_counts.empty()
                                             ? std::string("?")
                                             : correct.signature_counts.begin()->first);
}

// --- coverage (guided campaigns) ---

TEST(Coverage, AdmissionSignalCountsOnlyUnseenFeatures) {
  CoverageMap map;
  EXPECT_EQ(map.Add({"a", "b", "a"}), 2u);
  EXPECT_EQ(map.Add({"a", "c"}), 1u);
  EXPECT_EQ(map.Add({"a", "b"}), 0u);
  EXPECT_EQ(map.unique_features(), 3u);
  EXPECT_EQ(map.total_hits(), 7u);
  EXPECT_TRUE(map.Covers("c"));
  EXPECT_FALSE(map.Covers("d"));
  EXPECT_EQ(map.counters().at("a"), 4u);
}

TEST(Coverage, DigestDependsOnCountsNotInsertionOrder) {
  CoverageMap a;
  a.Add({"x"});
  a.Add({"y", "z"});
  CoverageMap b;
  b.Add({"z", "y"});
  b.Add({"x"});
  EXPECT_EQ(a.Digest(), b.Digest());
  CoverageMap merged;
  merged.MergeFrom(a);
  merged.MergeFrom(b);
  EXPECT_EQ(merged.unique_features(), 3u);
  EXPECT_EQ(merged.total_hits(), a.total_hits() + b.total_hits());
  EXPECT_NE(merged.Digest(), a.Digest()) << "doubled counts must change the digest";
}

TEST(Coverage, TraceCoverageExtractsBigramsAndPhaseEdges) {
  sim::TraceLog log;
  log.Append(sim::Milliseconds(1), "pbkv.n1", "elected", "term=1");
  log.Append(sim::Milliseconds(2), "neat", "partition", "complete");
  log.Append(sim::Milliseconds(3), "net", "drop", "1->2 pbkv.Replicate (partitioned at send)");
  log.Append(sim::Milliseconds(4), "neat", "heal", "");
  log.Append(sim::Milliseconds(5), "pbkv.n2", "elected", "term=2");
  const std::vector<std::string> features = TraceCoverage(log);
  EXPECT_TRUE(std::is_sorted(features.begin(), features.end()));
  const auto has = [&features](const std::string& feature) {
    return std::find(features.begin(), features.end(), feature) != features.end();
  };
  EXPECT_TRUE(has("ph:b:elected")) << "system event before the partition";
  EXPECT_TRUE(has("ph:p:pbkv.Replicate")) << "message type dropped during the partition";
  EXPECT_TRUE(has("ph:h:elected")) << "system event after the heal";
  EXPECT_TRUE(has("bi:elected>partition")) << "trace bigram across the phase marker";
  EXPECT_FALSE(has("ph:p:partition")) << "the neat markers are phase edges, not features";
}

TEST(Coverage, StateTransitionFeatureIsFixedWidthHex) {
  EXPECT_EQ(StateTransitionFeature(0, 15), "sd:0000000000000000>000000000000000f");
  EXPECT_NE(StateTransitionFeature(1, 2), StateTransitionFeature(2, 1));
}

TEST(Coverage, RealExecutorRunsReportCoverageFeatures) {
  const auto result =
      ReplayExecutor(PbkvRunnerFactory(pbkv::VoltDbOptions()))(DirtyReadCase(), /*seed=*/1);
  ASSERT_FALSE(result.coverage.empty());
  bool has_bigram = false;
  bool has_phase = false;
  for (const std::string& feature : result.coverage) {
    has_bigram = has_bigram || feature.rfind("bi:", 0) == 0;
    has_phase = has_phase || feature.rfind("ph:", 0) == 0;
  }
  EXPECT_TRUE(has_bigram);
  EXPECT_TRUE(has_phase);
  EXPECT_TRUE(std::is_sorted(result.coverage.begin(), result.coverage.end()));
}

// --- mutation (guided campaigns) ---

TEST(Mutate, MutationIsAPureFunctionOfParentAndSeed) {
  TestCaseGenerator::Alphabet alphabet;
  TestCaseGenerator gen(alphabet);
  const Mutator mutator(alphabet, 5);
  const auto suite = gen.EnumerateUpTo(3, PaperPruning());
  ASSERT_FALSE(suite.empty());
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    const TestCase& parent = suite[seed % suite.size()];
    const TestCase first = mutator.Mutate(parent, seed);
    const TestCase second = mutator.Mutate(parent, seed);
    EXPECT_EQ(first, second) << "seed " << seed;
    EXPECT_FALSE(first.empty());
    EXPECT_LE(first.size(), 5u) << "max_events bounds mutant length";
  }
}

TEST(Mutate, DifferentSeedsExploreDifferentMutants) {
  TestCaseGenerator::Alphabet alphabet;
  TestCaseGenerator gen(alphabet);
  const Mutator mutator(alphabet, 5);
  const TestCase parent = gen.EnumerateUpTo(3, PaperPruning()).back();
  std::set<std::string> mutants;
  size_t changed = 0;
  for (uint64_t seed = 1; seed <= 128; ++seed) {
    const TestCase mutant = mutator.Mutate(parent, seed);
    mutants.insert(FormatTestCase(mutant));
    if (mutant != parent) {
      ++changed;
    }
  }
  EXPECT_GT(mutants.size(), 8u) << "the operator set must actually diversify";
  EXPECT_GT(changed, 100u) << "nearly every seed should produce a real mutation";
}

TEST(Mutate, MixSeedSeparatesSchedulingCoordinates) {
  EXPECT_EQ(Mutator::MixSeed(1, 2, 3, 4), Mutator::MixSeed(1, 2, 3, 4));
  std::set<uint64_t> seeds;
  for (uint64_t campaign = 1; campaign <= 2; ++campaign) {
    for (uint64_t round = 0; round < 4; ++round) {
      for (uint64_t index = 0; index < 4; ++index) {
        for (uint64_t mutant = 0; mutant < 4; ++mutant) {
          seeds.insert(Mutator::MixSeed(campaign, round, index, mutant));
        }
      }
    }
  }
  EXPECT_EQ(seeds.size(), 2u * 4u * 4u * 4u) << "coordinates must not collide";
}

// --- guided campaigns ---

TEST(Guided, CampaignIsByteIdenticalAcrossThreadCountsAndRuns) {
  // The determinism acceptance bar: guided campaigns must produce the same
  // verdicts, the same coverage map, and the same corpus at NEAT_THREADS=1
  // and 8, and stay stable across repeated runs with the same seeds.
  TestCaseGenerator::Alphabet alphabet;
  TestCaseGenerator gen(alphabet);
  const CaseExecutor executor = ReplayExecutor(PbkvRunnerFactory(pbkv::VoltDbOptions()));
  CampaignOptions base;
  base.guided = true;
  base.guided_rounds = 3;
  base.seeds = 2;
  CampaignOptions serial = base;
  serial.threads = 1;
  CampaignOptions parallel = base;
  parallel.threads = 8;
  const CampaignResult one = RunCampaign(gen, 3, PaperPruning(), executor, serial);
  const CampaignResult eight = RunCampaign(gen, 3, PaperPruning(), executor, parallel);
  const CampaignResult again = RunCampaign(gen, 3, PaperPruning(), executor, parallel);
  ASSERT_GT(one.cases_run, 0u);
  EXPECT_TRUE(one.guided.enabled);
  EXPECT_EQ(eight.cases_run, one.cases_run);
  EXPECT_EQ(eight.VerdictDigest(), one.VerdictDigest());
  EXPECT_EQ(eight.coverage.Digest(), one.coverage.Digest());
  EXPECT_EQ(eight.CorpusDigest(), one.CorpusDigest());
  EXPECT_EQ(eight.guided.seed_cases, one.guided.seed_cases);
  EXPECT_EQ(eight.guided.mutants_run, one.guided.mutants_run);
  EXPECT_EQ(eight.guided.duplicates_skipped, one.guided.duplicates_skipped);
  EXPECT_EQ(eight.guided.new_features_per_round, one.guided.new_features_per_round);
  EXPECT_EQ(again.VerdictDigest(), eight.VerdictDigest());
  EXPECT_EQ(again.coverage.Digest(), eight.coverage.Digest());
  EXPECT_EQ(again.CorpusDigest(), eight.CorpusDigest());
}

TEST(Guided, HalfBudgetFindsEveryExhaustiveSignature) {
  // The yield acceptance bar: capped at HALF the exhaustive run count, the
  // guided loop must still reach every unique failure signature the full
  // paper-pruned enumeration finds — on both seeded-flaw suites.
  struct Suite {
    const char* name;
    TestCaseGenerator generator;
    CaseExecutor executor;
  };
  TestCaseGenerator::Alphabet kv_alphabet;
  TestCaseGenerator::Alphabet lock_alphabet;
  lock_alphabet.client_events = {EventKind::kLock, EventKind::kUnlock};
  std::vector<Suite> suites;
  suites.push_back({"pbkv", TestCaseGenerator(kv_alphabet),
                    ReplayExecutor(PbkvRunnerFactory(pbkv::VoltDbOptions()))});
  suites.push_back({"locksvc", TestCaseGenerator(lock_alphabet),
                    ReplayExecutor(LocksvcRunnerFactory(locksvc::IgniteOptions()))});
  CampaignOptions options;
  options.threads = 8;
  for (Suite& suite : suites) {
    CampaignOptions exhaustive_options = options;
    const CampaignResult exhaustive = RunCampaign(suite.generator, 3, PaperPruning(),
                                                  suite.executor, exhaustive_options);
    ASSERT_GT(exhaustive.failures, 0u) << suite.name;
    CampaignOptions guided_options = options;
    guided_options.guided = true;
    guided_options.guided_max_cases = exhaustive.cases_run / 2;
    const CampaignResult guided = RunCampaign(suite.generator, 3, PaperPruning(),
                                              suite.executor, guided_options);
    EXPECT_LE(guided.cases_run, exhaustive.cases_run / 2) << suite.name;
    for (const auto& [signature, count] : exhaustive.signature_counts) {
      EXPECT_TRUE(guided.signature_counts.count(signature))
          << suite.name << ": guided missed \"" << signature << "\" in "
          << guided.cases_run << " runs";
    }
  }
}

TEST(Guided, EnvKnobsControlRoundsAndCorpus) {
  ASSERT_EQ(setenv("NEAT_GUIDED_ROUNDS", "5", 1), 0);
  ASSERT_EQ(setenv("NEAT_CORPUS_MAX", "64", 1), 0);
  CampaignOptions options = CampaignOptionsFromEnv();
  EXPECT_EQ(options.guided_rounds, 5);
  EXPECT_EQ(options.corpus_max, 64);
  EXPECT_FALSE(options.guided) << "the knobs tune the loop; --guided opts in";
  ASSERT_EQ(unsetenv("NEAT_GUIDED_ROUNDS"), 0);
  ASSERT_EQ(unsetenv("NEAT_CORPUS_MAX"), 0);
  options = CampaignOptionsFromEnv();
  EXPECT_EQ(options.guided_rounds, 8);
  EXPECT_EQ(options.corpus_max, 128);
}

TEST(Adapters, EverySystemReportsHealthyAtSteadyState) {
  {
    PbkvSystem system(pbkv::Cluster::Config{});
    system.Env().Sleep(sim::Milliseconds(500));
    EXPECT_TRUE(system.GetStatus());
    EXPECT_EQ(system.Name(), "pbkv");
  }
  {
    raftkv::Cluster::Config config;
    config.num_servers = 3;
    RaftKvSystem system(config);
    system.Env().Sleep(sim::Seconds(2));
    EXPECT_TRUE(system.GetStatus());
    EXPECT_EQ(system.Name(), "raftkv");
  }
  {
    LocksvcSystem system(locksvc::Cluster::Config{});
    system.Env().Sleep(sim::Milliseconds(300));
    EXPECT_TRUE(system.GetStatus());
    EXPECT_TRUE(system.GetStatus()) << "a second probe locks a fresh resource";
    EXPECT_EQ(system.Name(), "locksvc");
  }
  {
    MqueueSystem system(mqueue::Cluster::Config{});
    system.Env().Sleep(sim::Milliseconds(500));
    EXPECT_TRUE(system.GetStatus());
    EXPECT_EQ(system.Name(), "mqueue");
  }
}

// --- digest stability across hash/iteration orders --------------------------
//
// Regression pins for the determinism contract detlint's unordered-iteration
// rule enforces: no digest or coverage artifact may depend on hash-table
// iteration order, because libstdc++ is free to reorder buckets across
// versions and hash implementations. FlippedHash interposes a different
// hash the way a toolchain change silently would.

struct FlippedHash {
  size_t operator()(uint64_t value) const {
    return static_cast<size_t>(~value * 0x9e3779b97f4a7c15ull);
  }
};

TEST(DigestStability, CoverageDigestIndependentOfInsertionOrder) {
  std::vector<std::string> features;
  for (int i = 0; i < 64; ++i) {
    features.push_back(StateTransitionFeature(static_cast<uint64_t>(i) * 7,
                                              static_cast<uint64_t>(i)));
  }
  CoverageMap forward;
  forward.Add(features);
  std::vector<std::string> reversed(features.rbegin(), features.rend());
  CoverageMap backward;
  backward.Add(reversed);
  EXPECT_EQ(forward.Digest(), backward.Digest());
}

TEST(DigestStability, SortedFeaturePipelineNeutralizesHashOrder) {
  // Build the same digest set in two unordered containers with different
  // hashes; their raw iteration orders genuinely differ (the hazard).
  std::vector<uint64_t> digests;
  for (uint64_t i = 1; i <= 64; ++i) {
    digests.push_back(i * 0x94d049bb133111ebull);
  }
  std::unordered_set<uint64_t> default_hash(digests.begin(), digests.end());
  std::unordered_set<uint64_t, FlippedHash> flipped_hash(digests.begin(), digests.end());
  std::vector<uint64_t> order_a(default_hash.begin(), default_hash.end());
  std::vector<uint64_t> order_b(flipped_hash.begin(), flipped_hash.end());
  ASSERT_NE(order_a, order_b);

  // The executors' feature pipeline (StateObserver::Finish) sorts and
  // deduplicates before anything reaches a CoverageMap, so the two
  // traversal orders must produce byte-identical coverage digests.
  auto pipeline = [](const std::vector<uint64_t>& order) {
    std::vector<std::string> features;
    for (uint64_t digest : order) {
      features.push_back(StateTransitionFeature(0, digest));
    }
    std::sort(features.begin(), features.end());
    features.erase(std::unique(features.begin(), features.end()), features.end());
    CoverageMap map;
    map.Add(features);
    return map.Digest();
  };
  EXPECT_EQ(pipeline(order_a), pipeline(order_b));
}

// --- snapshot/fork prefix reuse (neat/fork.h) ---

void ExpectSameExecution(const ExecutionResult& got, const ExecutionResult& want) {
  EXPECT_EQ(got.found_failure, want.found_failure) << want.trace;
  EXPECT_EQ(FailureSignature(got), FailureSignature(want)) << want.trace;
  EXPECT_EQ(got.trace, want.trace);
  // Coverage features include the sd: state-digest transitions, so equality
  // here pins the forked run's observed system states, not just verdicts.
  EXPECT_EQ(got.coverage, want.coverage) << want.trace;
  EXPECT_EQ(check::FormatViolations(got.violations), check::FormatViolations(want.violations))
      << want.trace;
}

TEST(Fork, PbkvForkEqualsReplayOnThePaperPrunedSuite) {
  // The fork==replay acceptance bar: every case of the paper-pruned pbkv
  // suite, executed by one persistent forking session, must be
  // byte-identical to a fresh-cluster replay — and the session must
  // actually fork (the DFS enumeration shares prefixes by construction).
  TestCaseGenerator::Alphabet alphabet;
  TestCaseGenerator gen(alphabet);
  const auto suite = gen.EnumerateUpTo(3, PaperPruning());
  const CaseExecutor replay = ReplayExecutor(PbkvRunnerFactory(pbkv::VoltDbOptions()));
  auto stats = std::make_shared<ForkStats>();
  const CaseExecutor forked =
      ForkingCaseExecutor(PbkvRunnerFactory(pbkv::VoltDbOptions()), ForkOptions{}, stats);
  for (const TestCase& test_case : suite) {
    ExpectSameExecution(forked(test_case, 1), replay(test_case, 1));
  }
  EXPECT_EQ(stats->cases_run, suite.size());
  EXPECT_GT(stats->forked_runs, 0u);
  EXPECT_GT(stats->events_forked_over, 0u);
  EXPECT_EQ(stats->fresh_runners, 1u) << "one live runner serves the whole suite";
}

TEST(Fork, EverySystemForksByteIdenticallyOnAPrefixFamily) {
  // The other three shipped adapters, on a nested prefix family (each case
  // extends the previous one, so every run after the first forks).
  TestEvent partition;
  partition.kind = EventKind::kPartition;
  partition.partition = PartitionKind::kComplete;
  partition.target = IsolationTarget::kLeader;
  TestEvent minority_write;
  minority_write.kind = EventKind::kWrite;
  minority_write.side = Side::kMinority;
  TestEvent minority_read;
  minority_read.kind = EventKind::kRead;
  minority_read.side = Side::kMinority;
  TestEvent minority_lock;
  minority_lock.kind = EventKind::kLock;
  minority_lock.side = Side::kMinority;
  TestEvent majority_lock;
  majority_lock.kind = EventKind::kLock;
  majority_lock.side = Side::kMajority;

  struct Target {
    const char* name;
    RunnerFactory factory;
    std::vector<TestCase> cases;
  };
  const Target targets[] = {
      {"locksvc",
       LocksvcRunnerFactory(locksvc::IgniteOptions()),
       {{partition}, {partition, minority_lock}, {partition, minority_lock, majority_lock}}},
      {"raftkv",
       RaftKvRunnerFactory(raftkv::RethinkDbOptions()),
       {{partition}, {partition, minority_write}, {partition, minority_write, minority_read}}},
      {"mqueue",
       MqueueRunnerFactory(mqueue::ActiveMqOptions()),
       {{partition}, {partition, minority_read}, {partition, minority_read, minority_write}}},
  };
  for (const Target& target : targets) {
    const CaseExecutor replay = ReplayExecutor(target.factory);
    auto stats = std::make_shared<ForkStats>();
    const CaseExecutor forked = ForkingCaseExecutor(target.factory, ForkOptions{}, stats);
    for (const TestCase& test_case : target.cases) {
      ExpectSameExecution(forked(test_case, 1), replay(test_case, 1));
    }
    EXPECT_GT(stats->forked_runs, 0u) << target.name;
    EXPECT_EQ(stats->fresh_runners, 1u) << target.name;
  }
}

// The cluster state value behind a runner: its environment plus every
// server's and client's state.
template <class System>
auto ClusterStateOf(CaseRunner& runner) {
  return dynamic_cast<System&>(*runner.System()).cluster().CaptureState();
}

// Names the first process whose state value differs between two captures
// of the same cluster ("" when every one is equal).
template <class ProcessState>
std::string FirstUnequal(const std::string& role, const std::vector<ProcessState>& got,
                         const std::vector<ProcessState>& want) {
  if (got.size() != want.size()) {
    return role + " count";
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i] != want[i]) {
      return role + "[" + std::to_string(i) + "]";
    }
  }
  return "";
}

template <class ClusterState>
std::string DivergentProcess(const ClusterState& got, const ClusterState& want) {
  std::string diff;
  if constexpr (requires { got.brokers; }) {
    diff = FirstUnequal("brokers", got.brokers, want.brokers);
    if (diff.empty() && got.registry != want.registry) {
      diff = "registry";
    }
  } else {
    diff = FirstUnequal("servers", got.servers, want.servers);
  }
  return diff.empty() ? FirstUnequal("clients", got.clients, want.clients) : diff;
}

// Captures the post-setup state, mutates the run with `mutate` (events
// plus the full heal/verify teardown in Finish), restores, and expects the
// rewound runner to hold every captured process state again, report the
// captured StateDigest, and replay `mutate` byte-identically to a fresh
// cluster.
template <class System>
void ExpectRoundTrip(const RunnerFactory& factory, const TestCase& mutate) {
  std::unique_ptr<CaseRunner> runner = factory(1);
  ASSERT_NE(runner->System(), nullptr);
  const std::unique_ptr<SystemState> root = runner->Snapshot();
  ASSERT_NE(root, nullptr);
  const uint64_t captured_digest = runner->System()->StateDigest();
  const auto captured = ClusterStateOf<System>(*runner);

  for (const TestEvent& event : mutate) {
    runner->ApplyEvent(event);
  }
  (void)runner->Finish(mutate);

  runner->Restore(*root);
  EXPECT_EQ(DivergentProcess(ClusterStateOf<System>(*runner), captured), "");
  EXPECT_EQ(runner->System()->StateDigest(), captured_digest);

  for (const TestEvent& event : mutate) {
    runner->ApplyEvent(event);
  }
  const ExecutionResult rewound = runner->Finish(mutate);
  ExpectSameExecution(rewound, ReplayExecutor(factory)(mutate, 1));
}

TEST(Fork, SnapshotRestoreRoundTripPreservesStateDigest) {
  // The runtime face of detlint's snapshot-field-coverage rule, for every
  // registered runner: after a restore, every server's and client's state
  // value equals the captured one (operator==, all fields), the
  // StateDigest matches, and the case replays byte-identically. A field
  // left out of a process's state value fails one of the three.
  TestEvent partition;
  partition.kind = EventKind::kPartition;
  partition.partition = PartitionKind::kComplete;
  partition.target = IsolationTarget::kLeader;
  TestEvent minority_write;
  minority_write.kind = EventKind::kWrite;
  minority_write.side = Side::kMinority;
  TestEvent minority_read;
  minority_read.kind = EventKind::kRead;
  minority_read.side = Side::kMinority;
  TestEvent minority_lock;
  minority_lock.kind = EventKind::kLock;
  minority_lock.side = Side::kMinority;
  TestEvent majority_lock;
  majority_lock.kind = EventKind::kLock;
  majority_lock.side = Side::kMajority;

  {
    SCOPED_TRACE("pbkv");
    ExpectRoundTrip<PbkvSystem>(PbkvRunnerFactory(pbkv::VoltDbOptions()),
                                {partition, minority_write, minority_read});
  }
  {
    SCOPED_TRACE("locksvc");
    ExpectRoundTrip<LocksvcSystem>(LocksvcRunnerFactory(locksvc::IgniteOptions()),
                                   {partition, minority_lock, majority_lock});
  }
  {
    SCOPED_TRACE("raftkv");
    ExpectRoundTrip<RaftKvSystem>(RaftKvRunnerFactory(raftkv::RethinkDbOptions()),
                                  {partition, minority_write, minority_read});
  }
  {
    SCOPED_TRACE("mqueue");
    ExpectRoundTrip<MqueueSystem>(MqueueRunnerFactory(mqueue::ActiveMqOptions()),
                                  {partition, minority_read, minority_write});
  }
}

// Runs `sibling` on a forking runner, restores the root, then applies
// `test_case` event by event next to a fresh runner: after setup and after
// every event, each process state of the restored run must equal the
// fresh run's (operator==, all fields). Trace and verdict equality only
// see what a record shows; this also pins logs, stores, pending
// operations and failure-detector views.
template <class System>
void ExpectRestoredStatesEqualReplay(const RunnerFactory& factory, const TestCase& sibling,
                                     const TestCase& test_case) {
  std::unique_ptr<CaseRunner> forked = factory(1);
  const std::unique_ptr<SystemState> root = forked->Snapshot();
  for (const TestEvent& event : sibling) {
    forked->ApplyEvent(event);
  }
  (void)forked->Finish(sibling);
  forked->Restore(*root);

  std::unique_ptr<CaseRunner> replay = factory(1);
  EXPECT_EQ(DivergentProcess(ClusterStateOf<System>(*forked), ClusterStateOf<System>(*replay)),
            "")
      << "after setup";
  for (size_t i = 0; i < test_case.size(); ++i) {
    forked->ApplyEvent(test_case[i]);
    replay->ApplyEvent(test_case[i]);
    EXPECT_EQ(
        DivergentProcess(ClusterStateOf<System>(*forked), ClusterStateOf<System>(*replay)), "")
        << "after event " << i + 1 << " of " << FormatTestCase(test_case);
  }
}

TEST(Fork, RestoredProcessStatesEqualReplayAtEveryEventBoundary) {
  TestEvent partition;
  partition.kind = EventKind::kPartition;
  partition.partition = PartitionKind::kComplete;
  partition.target = IsolationTarget::kLeader;
  TestEvent heal;
  heal.kind = EventKind::kHeal;
  TestEvent minority_write;
  minority_write.kind = EventKind::kWrite;
  minority_write.side = Side::kMinority;
  TestEvent majority_write;
  majority_write.kind = EventKind::kWrite;
  majority_write.side = Side::kMajority;
  TestEvent minority_read;
  minority_read.kind = EventKind::kRead;
  minority_read.side = Side::kMinority;
  TestEvent minority_lock;
  minority_lock.kind = EventKind::kLock;
  minority_lock.side = Side::kMinority;
  TestEvent majority_lock;
  majority_lock.kind = EventKind::kLock;
  majority_lock.side = Side::kMajority;

  {
    SCOPED_TRACE("pbkv");
    ExpectRestoredStatesEqualReplay<PbkvSystem>(PbkvRunnerFactory(pbkv::VoltDbOptions()),
                                                {partition, minority_write, minority_read},
                                                {partition, majority_write, heal});
  }
  {
    SCOPED_TRACE("raftkv");
    ExpectRestoredStatesEqualReplay<RaftKvSystem>(
        RaftKvRunnerFactory(raftkv::RethinkDbOptions()),
        {partition, minority_write, minority_read}, {partition, majority_write, heal});
  }
  {
    SCOPED_TRACE("locksvc");
    ExpectRestoredStatesEqualReplay<LocksvcSystem>(
        LocksvcRunnerFactory(locksvc::IgniteOptions()), {partition, minority_lock, majority_lock},
        {partition, majority_lock, heal});
  }
  {
    SCOPED_TRACE("mqueue");
    ExpectRestoredStatesEqualReplay<MqueueSystem>(MqueueRunnerFactory(mqueue::ActiveMqOptions()),
                                                  {partition, minority_read, minority_write},
                                                  {partition, majority_write, heal});
  }
}

TEST(Fork, SiblingRestoreInvalidatesDescendantSnapshots) {
  // The regression behind the ancestor-chain rule: snapshots index
  // positions in the branch's simulator history (trace sizes, event
  // sequence numbers), so restoring [P] and running a sibling suffix
  // rewrites the history that the cached [P,heal] snapshot points into.
  // Before the fix, the last case below restored that corrupted snapshot
  // and produced a trace with the sibling's drop record where the heal
  // record should be. [P,heal,heal] runs before the sibling so that the
  // branch point [P,heal] is cached when the sibling restores [P].
  TestEvent partition;
  partition.kind = EventKind::kPartition;
  partition.partition = PartitionKind::kComplete;
  partition.target = IsolationTarget::kLeader;
  TestEvent heal;
  heal.kind = EventKind::kHeal;
  TestEvent minority_write;
  minority_write.kind = EventKind::kWrite;
  minority_write.side = Side::kMinority;
  const CaseExecutor replay = ReplayExecutor(PbkvRunnerFactory(pbkv::VoltDbOptions()));
  auto stats = std::make_shared<ForkStats>();
  const CaseExecutor forked =
      ForkingCaseExecutor(PbkvRunnerFactory(pbkv::VoltDbOptions()), ForkOptions{}, stats);
  const std::vector<TestCase> cases = {{partition},
                                       {partition, heal},
                                       {partition, heal, heal},
                                       {partition, minority_write},
                                       {partition, heal, heal}};
  for (const TestCase& test_case : cases) {
    ExpectSameExecution(forked(test_case, 1), replay(test_case, 1));
  }
  // The fourth case restores [P], which must invalidate the cached
  // [P,heal] descendant; the fifth case then re-executes heal instead of
  // reusing it.
  EXPECT_GT(stats->snapshots_invalidated, 0u);
}

// A deep-workload-shaped pbkv family: a parent, each of its last
// `replaced` events swapped for a minority write and a minority read, and
// one append.
std::vector<TestCase> BranchingFamily(size_t replaced) {
  TestEvent partition;
  partition.kind = EventKind::kPartition;
  partition.partition = PartitionKind::kComplete;
  partition.target = IsolationTarget::kLeader;
  TestEvent heal;
  heal.kind = EventKind::kHeal;
  TestEvent write;
  write.kind = EventKind::kWrite;
  TestEvent read;
  read.kind = EventKind::kRead;
  TestEvent minority_write = write;
  minority_write.side = Side::kMinority;
  TestEvent minority_read = read;
  minority_read.side = Side::kMinority;

  const TestCase parent = {partition, write, heal, write, read, write, read};
  std::vector<TestCase> family = {parent};
  for (size_t i = parent.size() - replaced; i < parent.size(); ++i) {
    for (const TestEvent& alternative : {minority_write, minority_read}) {
      TestCase mutant = parent;
      mutant[i] = alternative;
      family.push_back(mutant);
    }
  }
  TestCase appended = parent;
  appended.push_back(minority_write);
  family.push_back(appended);
  return family;
}

TEST(Fork, SnapshotsOnlyWhereTheNextCaseBranches) {
  // The snapshot policy: a case captures at most one state, at its common
  // prefix with the previous case and only below the snapshot it restored.
  // On the branching family that is the root plus one snapshot per branch
  // point — not one per applied event.
  constexpr size_t kReplaced = 3;
  const CaseExecutor replay = ReplayExecutor(PbkvRunnerFactory(pbkv::VoltDbOptions()));
  auto stats = std::make_shared<ForkStats>();
  const CaseExecutor forked =
      ForkingCaseExecutor(PbkvRunnerFactory(pbkv::VoltDbOptions()), ForkOptions{}, stats);
  for (const TestCase& test_case : BranchingFamily(kReplaced)) {
    ExpectSameExecution(forked(test_case, 1), replay(test_case, 1));
  }
  EXPECT_GT(stats->forked_runs, 0u);
  // The root, at most one per replaced position, and one for the append.
  EXPECT_LE(stats->snapshots_taken, 1 + kReplaced + 1);
}

TEST(Fork, SnapshotBoundDropsTheOldestNonRootEntry) {
  // With room for one snapshot besides the root, each new branch point
  // evicts the previous one; the survivors must still be ancestors of the
  // live state, so every case stays byte-identical to replay. The last
  // case shares no prefix with the family and resumes from the pinned root.
  std::vector<TestCase> cases = BranchingFamily(3);
  cases.emplace_back(cases.front().begin() + 1, cases.front().end());
  ForkOptions options;
  options.snapshot_cache = 1;
  const CaseExecutor replay = ReplayExecutor(PbkvRunnerFactory(pbkv::VoltDbOptions()));
  auto stats = std::make_shared<ForkStats>();
  const CaseExecutor forked =
      ForkingCaseExecutor(PbkvRunnerFactory(pbkv::VoltDbOptions()), options, stats);
  for (const TestCase& test_case : cases) {
    ExpectSameExecution(forked(test_case, 1), replay(test_case, 1));
  }
  EXPECT_GT(stats->snapshots_evicted, 0u);
  EXPECT_GT(stats->forked_runs, 0u);
}

TEST(Fork, GuidedCampaignWithForkingSessionsMatchesReplayAtAnyThreadCount) {
  // Guided campaigns with per-worker forking sessions must keep the
  // parallel==serial byte-identity contract AND match the session-less
  // replay campaign: session state changes speed, never results.
  TestCaseGenerator::Alphabet alphabet;
  TestCaseGenerator gen(alphabet);
  const CaseExecutor replay = ReplayExecutor(PbkvRunnerFactory(pbkv::VoltDbOptions()));
  CampaignOptions base;
  base.guided = true;
  base.guided_rounds = 2;
  CampaignOptions replay_options = base;
  replay_options.threads = 2;
  const CampaignResult expected = RunCampaign(gen, 3, PaperPruning(), replay, replay_options);
  ASSERT_GT(expected.cases_run, 0u);
  for (const int threads : {1, 8}) {
    CampaignOptions fork_options = base;
    fork_options.threads = threads;
    fork_options.sessions = ForkingSessions(PbkvRunnerFactory(pbkv::VoltDbOptions()));
    const CampaignResult got = RunCampaign(gen, 3, PaperPruning(), replay, fork_options);
    EXPECT_EQ(got.cases_run, expected.cases_run) << threads;
    EXPECT_EQ(got.VerdictDigest(), expected.VerdictDigest()) << threads;
    EXPECT_EQ(got.coverage.Digest(), expected.coverage.Digest()) << threads;
    EXPECT_EQ(got.CorpusDigest(), expected.CorpusDigest()) << threads;
    EXPECT_EQ(got.guided.new_features_per_round, expected.guided.new_features_per_round)
        << threads;
  }
}

TEST(Fork, CampaignMinimizeWithForkingSessionsMatchesReplay) {
  // The triage post-pass builds one forking session per minimization; the
  // ddmin probes share prefixes, and the repros must not change.
  TestCaseGenerator::Alphabet alphabet;
  TestCaseGenerator gen(alphabet);
  CampaignOptions plain;
  plain.threads = 4;
  plain.minimize_failures = true;
  const CaseExecutor replay = ReplayExecutor(PbkvRunnerFactory(pbkv::VoltDbOptions()));
  const CampaignResult expected = RunCampaign(gen, 3, PaperPruning(), replay, plain);
  ASSERT_GT(expected.failures, 0u);
  ASSERT_FALSE(expected.minimized.empty());
  CampaignOptions with_sessions = plain;
  with_sessions.sessions = ForkingSessions(PbkvRunnerFactory(pbkv::VoltDbOptions()));
  const CampaignResult got = RunCampaign(gen, 3, PaperPruning(), replay, with_sessions);
  EXPECT_EQ(got.VerdictDigest(), expected.VerdictDigest());
  ASSERT_EQ(got.minimized.size(), expected.minimized.size());
  for (size_t i = 0; i < expected.minimized.size(); ++i) {
    EXPECT_EQ(got.minimized[i].signature, expected.minimized[i].signature);
    EXPECT_EQ(FormatTestCase(got.minimized[i].minimized),
              FormatTestCase(expected.minimized[i].minimized));
    EXPECT_EQ(got.minimized[i].probes, expected.minimized[i].probes);
  }
}

}  // namespace
}  // namespace neat
