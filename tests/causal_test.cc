// Tests for the causal happens-before layer: the CausalFold cascade
// detector (check/causal.h), feature-key escaping, the "cy:" coverage
// family, and the determinism contract of causal-mode campaigns (fork ==
// replay, parallel == serial).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "check/causal.h"
#include "check/checkers.h"
#include "neat/adapters.h"
#include "neat/campaign.h"
#include "neat/coverage.h"
#include "neat/fork.h"
#include "neat/testgen.h"
#include "neat/trace_scan.h"
#include "sim/trace.h"
#include "systems/pbkv/cluster.h"

namespace {

// Appends one lap of a synthetic fault-propagation loop: a state flap on
// some node that sends a message whose delivery flaps the next node. Three
// abstract labels — sys:flap, net:send:sys.Msg, net:deliver:sys.Msg — each
// lap traverses every edge of the cycle once.
uint64_t AppendLap(sim::TraceLog& log, int lap, uint64_t prev_deliver) {
  const std::string node = "sys.n" + std::to_string(lap % 2 + 1);
  const uint64_t flap = log.Append(lap, node, "flap", "", prev_deliver);
  const uint64_t send = log.Append(lap, "net", "send", "1->2 sys.Msg", flap);
  return log.Append(lap, "net", "deliver", "1->2 sys.Msg", send);
}

TEST(CausalFold, RecurringMessageCycleIsACascade) {
  sim::TraceLog log;
  uint64_t deliver = 0;
  for (int lap = 0; lap < 5; ++lap) {
    deliver = AppendLap(log, lap, deliver);
  }
  check::CausalFold fold;
  fold.Advance(log);
  const auto cascades = fold.Cascades();
  ASSERT_EQ(cascades.size(), 1u);
  EXPECT_EQ(cascades[0].signature, "net:deliver:sys.Msg|net:send:sys.Msg|sys:flap");
  EXPECT_GE(cascades[0].laps, 4u);
  EXPECT_EQ(cascades[0].post_heal_laps, 0u);  // no heal record: phase never 'h'
}

TEST(CausalFold, TransientsBelowMinLapsDoNotFlag) {
  sim::TraceLog log;
  uint64_t deliver = 0;
  for (int lap = 0; lap < 2; ++lap) {
    deliver = AppendLap(log, lap, deliver);
  }
  check::CausalFold fold;
  fold.Advance(log);
  EXPECT_TRUE(fold.Cascades().empty()) << "two laps are a transient, not a loop";
  check::CascadeOptions lenient;
  lenient.min_laps = 1;
  EXPECT_EQ(fold.Cascades(lenient).size(), 1u);
}

TEST(CausalFold, TimerAlternationWithoutMessageEdgeDoesNotFlag) {
  // A node ping-ponging between two local states forever (pure program
  // order, e.g. a timer loop) is periodic but not fault propagation: no
  // record crosses a handler boundary, so no cascade.
  sim::TraceLog log;
  for (int i = 0; i < 20; ++i) {
    log.Append(i, "sys.n1", i % 2 == 0 ? "arm" : "fire");
  }
  check::CausalFold fold;
  fold.Advance(log);
  EXPECT_TRUE(fold.Cascades().empty());
}

TEST(CausalFold, HeartbeatSelfLoopsNeverBecomeEdges) {
  // A steady heartbeat — the same label over and over — must not flag even
  // when each beat is message-caused: self-loops are skipped and a cascade
  // needs at least two labels.
  sim::TraceLog log;
  uint64_t prev = 0;
  for (int i = 0; i < 20; ++i) {
    prev = log.Append(i, "net", "deliver", "1->2 sys.Heartbeat", prev);
  }
  check::CausalFold fold;
  fold.Advance(log);
  EXPECT_TRUE(fold.Cascades().empty());
}

TEST(CausalFold, PostHealLapsGateTheSurvivesTheHealCriterion) {
  sim::TraceLog log;
  uint64_t deliver = 0;
  for (int lap = 0; lap < 4; ++lap) {
    deliver = AppendLap(log, lap, deliver);
  }
  log.Append(10, "neat", "heal");
  for (int lap = 4; lap < 10; ++lap) {
    deliver = AppendLap(log, lap, deliver);
  }
  check::CausalFold fold;
  fold.Advance(log);
  const auto cascades = fold.Cascades();
  ASSERT_EQ(cascades.size(), 1u);
  EXPECT_GE(cascades[0].post_heal_laps, 5u);
  check::CascadeOptions surviving;
  surviving.min_post_heal_laps = 5;
  EXPECT_EQ(fold.Cascades(surviving).size(), 1u);
  surviving.min_post_heal_laps = 100;
  EXPECT_TRUE(fold.Cascades(surviving).empty())
      << "a loop that died at the heal must not count as surviving it";
}

TEST(CausalFold, AdvanceIsSuffixOnlyAndValueCopyable) {
  // The fork contract: folding a prefix, copying the fold (snapshot), then
  // folding the suffix on the copy must equal one whole-trace fold.
  sim::TraceLog log;
  uint64_t deliver = 0;
  for (int lap = 0; lap < 3; ++lap) {
    deliver = AppendLap(log, lap, deliver);
  }
  check::CausalFold incremental;
  incremental.Advance(log);
  const check::CausalFold snapshot = incremental;  // value copy
  for (int lap = 3; lap < 7; ++lap) {
    deliver = AppendLap(log, lap, deliver);
  }
  incremental.Advance(log);
  check::CausalFold resumed = snapshot;
  resumed.Advance(log);
  check::CausalFold fresh;
  fresh.Advance(log);
  const auto via_fresh = fresh.Cascades();
  const auto via_incremental = incremental.Cascades();
  const auto via_resumed = resumed.Cascades();
  ASSERT_EQ(via_fresh.size(), 1u);
  ASSERT_EQ(via_incremental.size(), 1u);
  ASSERT_EQ(via_resumed.size(), 1u);
  EXPECT_EQ(via_incremental[0].signature, via_fresh[0].signature);
  EXPECT_EQ(via_incremental[0].laps, via_fresh[0].laps);
  EXPECT_EQ(via_resumed[0].signature, via_fresh[0].signature);
  EXPECT_EQ(via_resumed[0].laps, via_fresh[0].laps);
}

TEST(CausalFold, CheckCascadesRendersViolations) {
  sim::TraceLog log;
  uint64_t deliver = 0;
  for (int lap = 0; lap < 5; ++lap) {
    deliver = AppendLap(log, lap, deliver);
  }
  const auto violations = check::CheckCascades(log);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].impact, "cascading failure");
  EXPECT_NE(violations[0].description.find("sys:flap"), std::string::npos);
}

// --- feature-key escaping (satellite: bi:/ph: injection) ---

TEST(Escaping, EscapeLabelAtomEscapesSeparatorsOnly) {
  EXPECT_EQ(check::EscapeLabelAtom("a>b"), "a%3eb");
  EXPECT_EQ(check::EscapeLabelAtom("p:x"), "p%3ax");
  EXPECT_EQ(check::EscapeLabelAtom("a|b"), "a%7cb");
  EXPECT_EQ(check::EscapeLabelAtom("50%"), "50%25");
  EXPECT_EQ(check::EscapeLabelAtom("elected"), "elected") << "identity on plain names";
  EXPECT_EQ(check::EscapeLabelAtom("pbkv.RequestVote"), "pbkv.RequestVote");
}

TEST(Escaping, BigramFeatureKeysAreInjectionProof) {
  // Before escaping, events {"a>b","c"} and {"a","b>c"} both rendered the
  // feature "bi:a>b>c" — two different behaviours, one coverage key. The
  // escaped keys must differ.
  sim::TraceLog first;
  first.Append(1, "sys.n1", "a>b");
  first.Append(2, "sys.n1", "c");
  sim::TraceLog second;
  second.Append(1, "sys.n1", "a");
  second.Append(2, "sys.n1", "b>c");
  neat::TraceScan scan_first;
  scan_first.Advance(first);
  neat::TraceScan scan_second;
  scan_second.Advance(second);
  const auto features_first = scan_first.Features();
  const auto features_second = scan_second.Features();
  ASSERT_FALSE(features_first.empty());
  ASSERT_FALSE(features_second.empty());
  EXPECT_NE(features_first, features_second);
  bool saw_escaped = false;
  for (const std::string& f : features_first) {
    saw_escaped = saw_escaped || f == "bi:a%3eb>c";
  }
  EXPECT_TRUE(saw_escaped) << "the '>' inside the event name must be escaped";
}

TEST(Escaping, PaperSuiteFeaturesAreEscapeFree) {
  // Escaping is the identity on every event name and message type the
  // model systems emit, so coverage feature keys — and therefore the
  // campaign coverage digests — are unchanged by the escaping fix. Pinned
  // by scanning the whole paper-pruned pbkv suite for the escape marker.
  neat::TestCaseGenerator::Alphabet alphabet;
  neat::TestCaseGenerator gen(alphabet);
  const auto suite = gen.EnumerateUpTo(3, neat::PaperPruning());
  const neat::CaseExecutor executor =
      neat::ReplayExecutor(neat::PbkvRunnerFactory(pbkv::VoltDbOptions()));
  size_t features_seen = 0;
  for (const neat::TestCase& test_case : suite) {
    const neat::ExecutionResult result = executor(test_case, 1);
    for (const std::string& feature : result.coverage) {
      ++features_seen;
      EXPECT_EQ(feature.find('%'), std::string::npos) << feature;
    }
  }
  EXPECT_GT(features_seen, 0u);
}

// --- the leader-thrash acceptance scenario ---

std::vector<check::Violation> RunArbiterScenario(bool arbiter_checks_leader) {
  pbkv::Cluster::Config config;
  config.options = pbkv::MongoArbiterOptions();
  config.options.arbiter_checks_leader = arbiter_checks_leader;
  config.options.causal_trace = true;
  pbkv::Cluster cluster(config);
  cluster.Settle(sim::Milliseconds(500));
  cluster.env().simulator().Trace().Append(cluster.env().simulator().Now(), "neat", "partition",
                                           "partial 1|2");
  auto partition = cluster.partitioner().Partial({1}, {2});
  cluster.Settle(sim::Seconds(4));
  cluster.partitioner().Heal(partition);
  cluster.env().simulator().Trace().Append(cluster.env().simulator().Now(), "neat", "heal", "");
  cluster.Settle(sim::Milliseconds(500));
  return check::CheckCascades(cluster.env().simulator().Trace());
}

TEST(Cascade, FlagsFlawedArbiterAndPassesServer27125Fix) {
  const auto flawed = RunArbiterScenario(/*arbiter_checks_leader=*/false);
  ASSERT_FALSE(flawed.empty()) << "the checker must see the leader thrash";
  EXPECT_NE(flawed[0].description.find("pbkv:step-down"), std::string::npos)
      << flawed[0].description;
  EXPECT_NE(flawed[0].description.find("pbkv:elected"), std::string::npos)
      << flawed[0].description;
  const auto fixed = RunArbiterScenario(/*arbiter_checks_leader=*/true);
  EXPECT_TRUE(fixed.empty()) << check::FormatViolations(fixed);
}

// --- determinism: causal campaigns fork, replay, and parallelize
// byte-identically ---

void ExpectSameExecution(const neat::ExecutionResult& got, const neat::ExecutionResult& want) {
  EXPECT_EQ(got.found_failure, want.found_failure) << want.trace;
  EXPECT_EQ(got.trace, want.trace);
  EXPECT_EQ(got.coverage, want.coverage) << want.trace;
  EXPECT_EQ(check::FormatViolations(got.violations), check::FormatViolations(want.violations))
      << want.trace;
}

pbkv::Options CausalArbiterOptions() {
  pbkv::Options options = pbkv::MongoArbiterOptions();
  options.causal_trace = true;
  return options;
}

TEST(Cascade, CausalForkEqualsReplayOnThePaperPrunedSuite) {
  // The acceptance bar: with causal tracing on (send/deliver records,
  // cause stamping, cy: features, cascade verdicts), a persistent forking
  // session must stay byte-identical to fresh-cluster replay on every case
  // of the paper-pruned suite.
  neat::TestCaseGenerator::Alphabet alphabet;
  neat::TestCaseGenerator gen(alphabet);
  const auto suite = gen.EnumerateUpTo(3, neat::PaperPruning());
  const neat::CaseExecutor replay =
      neat::ReplayExecutor(neat::PbkvRunnerFactory(CausalArbiterOptions()));
  auto stats = std::make_shared<neat::ForkStats>();
  const neat::CaseExecutor forked = neat::ForkingCaseExecutor(
      neat::PbkvRunnerFactory(CausalArbiterOptions()), neat::ForkOptions{}, stats);
  for (const neat::TestCase& test_case : suite) {
    ExpectSameExecution(forked(test_case, 1), replay(test_case, 1));
  }
  EXPECT_GT(stats->forked_runs, 0u) << "the suite must actually exercise forking";
}

TEST(Cascade, CausalGuidedCampaignIsByteIdenticalAtOneAndEightThreads) {
  neat::TestCaseGenerator::Alphabet alphabet;
  neat::TestCaseGenerator gen(alphabet);
  const neat::CaseExecutor executor =
      neat::ReplayExecutor(neat::PbkvRunnerFactory(CausalArbiterOptions()));
  neat::CampaignOptions base;
  base.guided = true;
  base.guided_rounds = 2;
  base.seeds = 2;
  neat::CampaignOptions serial = base;
  serial.threads = 1;
  neat::CampaignOptions parallel = base;
  parallel.threads = 8;
  const neat::CampaignResult one = neat::RunCampaign(gen, 3, neat::PaperPruning(), executor, serial);
  const neat::CampaignResult eight =
      neat::RunCampaign(gen, 3, neat::PaperPruning(), executor, parallel);
  ASSERT_GT(one.cases_run, 0u);
  EXPECT_EQ(eight.cases_run, one.cases_run);
  EXPECT_EQ(eight.VerdictDigest(), one.VerdictDigest());
  EXPECT_EQ(eight.coverage.Digest(), one.coverage.Digest());
  EXPECT_EQ(eight.CorpusDigest(), one.CorpusDigest());
}

}  // namespace
