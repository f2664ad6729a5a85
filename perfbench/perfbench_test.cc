// Tests for the benchmark's own helpers: the percentile rule, the ratio
// bases, the runner decorator's pass-through, and the correctness gate.

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "scenario/executor.h"
#include "scenario/parser.h"
#include "stats.h"
#include "tracing.h"
#include "workloads.h"

namespace perfbench {
namespace {

const std::string kCorpus = PERFBENCH_CORPUS_DIR;

std::vector<double> OneTo(int n) {
  std::vector<double> samples(static_cast<size_t>(n));
  std::iota(samples.begin(), samples.end(), 1.0);
  return samples;
}

TEST(Percentile, TailNeedsTenSamplesBeyondIt) {
  const Percentile p99 = NearestRank(OneTo(1000), 99);
  EXPECT_EQ(p99.value, 990);
  EXPECT_EQ(p99.samples, 1000u);
  EXPECT_EQ(p99.beyond, 10u);
  EXPECT_TRUE(p99.ok);

  const Percentile short_p99 = NearestRank(OneTo(999), 99);
  EXPECT_EQ(short_p99.beyond, 9u);
  EXPECT_FALSE(short_p99.ok);

  const Percentile p50 = NearestRank(OneTo(21), 50);
  EXPECT_EQ(p50.value, 11);
  EXPECT_EQ(p50.beyond, 10u);
  EXPECT_TRUE(p50.ok);
  EXPECT_TRUE(NearestRank(OneTo(20), 50).ok);
  EXPECT_FALSE(NearestRank(OneTo(19), 50).ok);
  EXPECT_FALSE(NearestRank({}, 50).ok);
}

TEST(Percentile, IgnoresSampleOrder) {
  std::vector<double> samples = OneTo(2000);
  std::reverse(samples.begin(), samples.end());
  EXPECT_EQ(NearestRank(samples, 99).value, 1980);
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 2, 3}), 2.5);
}

TEST(Ratios, StateTheirBases) {
  // busy_share = per-run host time / (wall x workers)
  EXPECT_DOUBLE_EQ(BusyShare(2e6, 1.0, 4), 0.5);
  EXPECT_DOUBLE_EQ(IdleSeconds(2e6, 1.0, 4), 2.0);
  // reuse_ratio = forked over / (forked over + applied)
  EXPECT_DOUBLE_EQ(ReuseRatio(3, 1), 0.75);
  // admit_ratio = corpus / runs
  EXPECT_DOUBLE_EQ(AdmitRatio(5, 20), 0.25);
  // duplicate_ratio = skipped / (skipped + mutants run)
  EXPECT_DOUBLE_EQ(DuplicateRatio(2, 6), 0.25);
  // No base, no ratio.
  EXPECT_EQ(BusyShare(1, 0, 4), 0);
  EXPECT_EQ(ReuseRatio(0, 0), 0);
  EXPECT_EQ(AdmitRatio(3, 0), 0);
  EXPECT_EQ(DuplicateRatio(0, 0), 0);
}

TEST(DeepFamily, ParentThenReplacementsThenAppends) {
  const std::vector<neat::TestCase> kv = DeepFamily(false, 2, 4);
  ASSERT_FALSE(kv.empty());
  EXPECT_EQ(kv.front().size(), 2u * 3 + 4);
  // 4 tail slots x 5 alternatives, less the 4 identities; 5 + 25 appends.
  EXPECT_EQ(kv.size(), 1u + 16 + 30);
  const std::vector<neat::TestCase> locks = DeepFamily(true, 2, 4);
  EXPECT_EQ(locks.size(), 1u + 12 + 20);
  EXPECT_EQ(locks.front()[1].kind, neat::EventKind::kLock);
}

// A decorated ScenarioRunnerFactory driven straight through yields the
// same run, digest for digest, as scenario::ScenarioCaseExecutor, for every
// case and seed of every corpus campaign scenario, in both variants.
TEST(Decorator, PassesEveryCorpusCampaignCaseThrough) {
  Tracer tracer;
  size_t runs = 0;
  for (int system = 0; system < kNumSystems; ++system) {
    const std::string path = kCorpus + "/" + kCorpusFiles[static_cast<size_t>(system)];
    const scenario::ParseResult parsed = scenario::ParseFile(path);
    ASSERT_TRUE(parsed.ok) << scenario::FormatDiagnostics(parsed, path);
    const scenario::Scenario& scn = parsed.scenario;
    const std::vector<neat::TestCase> suite = scenario::ScenarioGenerator(scn).EnumerateUpTo(
        scn.campaign.max_length, scenario::ScenarioPruning(scn));
    for (const scenario::Variant variant :
         {scenario::Variant::kFlawed, scenario::Variant::kCorrect}) {
      const neat::CaseExecutor plain = scenario::ScenarioCaseExecutor(scn, variant);
      const neat::CaseExecutor decorated = tracer.WrapCase(
          StraightThrough(tracer.Decorate(scenario::ScenarioRunnerFactory(scn, variant), system)),
          system);
      for (const neat::TestCase& test_case : suite) {
        for (uint64_t seed = 1; seed <= static_cast<uint64_t>(scn.campaign.seeds); ++seed) {
          ASSERT_EQ(scenario::ResultDigest(decorated(test_case, seed)),
                    scenario::ResultDigest(plain(test_case, seed)))
              << path << " " << scenario::VariantName(variant) << " seed " << seed << ": "
              << neat::FormatTestCase(test_case);
          ++runs;
        }
      }
    }
  }
  // The decorator saw every run and every runner call.
  const auto layers = tracer.Layers();
  uint64_t cases = 0;
  for (const SystemLayers& layer : layers) {
    cases += layer.cases;
    EXPECT_EQ(layer.boots, layer.cases);
    EXPECT_EQ(layer.finishes, layer.cases);
    EXPECT_EQ(layer.applies, layer.case_events);
    EXPECT_GT(layer.sim_events, 0u);
  }
  EXPECT_EQ(cases, runs);
}

size_t UnitIndex(const Plan& plan, const std::string& label) {
  for (size_t i = 0; i < plan.units.size(); ++i) {
    if (plan.units[i].label == label) {
      return i;
    }
  }
  ADD_FAILURE() << "no unit " << label;
  return 0;
}

TEST(Gate, PassesTheSweepAsShipped) {
  PlanOptions options;
  options.corpus_dir = kCorpus;
  const Plan plan = BuildPlan(Workload::kSweep, options);
  Gate gate;
  gate.Judge(plan, RunRound(plan, 2).results, {}, "round");
  gate.CountExceptions(plan);
  EXPECT_TRUE(gate.passed());
  for (const std::string& problem : gate.problems) {
    ADD_FAILURE() << problem;
  }
  EXPECT_GT(gate.attempted, 0u);
}

// Negative check: a flawed preset swapped into sweep's correct slot
// reports violations where the gate demands a clean run.
TEST(Gate, FailsWhenAFlawedPresetTakesTheCorrectSlot) {
  PlanOptions options;
  options.corpus_dir = kCorpus;
  Plan plan = BuildPlan(Workload::kSweep, options);
  const size_t correct = UnitIndex(plan, "pbkv/correct");
  plan.units[correct].run = plan.units[UnitIndex(plan, "pbkv/flawed")].run;
  Gate gate;
  gate.Judge(plan, RunRound(plan, 2).results, {}, "round");
  EXPECT_FALSE(gate.passed());
  EXPECT_GT(gate.failed, 0u);
}

TEST(Gate, FailsWhenANeedleIsMissed) {
  PlanOptions options;
  options.corpus_dir = kCorpus;
  Plan plan = BuildPlan(Workload::kSweep, options);
  plan.units[UnitIndex(plan, "locksvc/flawed")].needle = "no such impact";
  Gate gate;
  gate.Judge(plan, RunRound(plan, 2).results, {}, "round");
  EXPECT_FALSE(gate.passed());
  EXPECT_EQ(gate.failed, 0u);
  ASSERT_EQ(gate.problems.size(), 1u);
  EXPECT_NE(gate.problems[0].find("missed its needle"), std::string::npos);
}

TEST(Gate, FailsWhenDigestsDiffer) {
  PlanOptions options;
  options.corpus_dir = kCorpus;
  const Plan plan = BuildPlan(Workload::kDeep, options);
  const std::vector<neat::CampaignResult> round = RunRound(plan, 2).results;
  std::vector<Digests> reference;
  for (const neat::CampaignResult& result : round) {
    reference.push_back(DigestsOf(result));
  }
  Gate same;
  same.Judge(plan, round, reference, "round");
  EXPECT_TRUE(same.passed());
  reference[0].verdict = "0";
  Gate differs;
  differs.Judge(plan, round, reference, "round");
  EXPECT_FALSE(differs.passed());
}

}  // namespace
}  // namespace perfbench
