// Pinned digests of the shipped scenario corpus. Every tests/scenarios/*.scn
// file, run through the DSL in both variants, must reproduce the recorded
// scenario::ResultDigest (run files) or scenario::CampaignDigest (campaign
// files): same verdicts, same traces, same coverage, same failure
// signatures. The values were recorded with `scnrun tests/scenarios/*.scn`
// (g++ 12, RelWithDebInfo), so any change to the execution stack is pinned
// to the runs the corpus has always produced. A change that means to alter
// a run re-records the affected rows and says why.

#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "scenario/executor.h"
#include "scenario/parser.h"

namespace scenario {
namespace {

struct PinnedRun {
  const char* file;  // under tests/scenarios/, without ".scn"
  const char* flawed;
  const char* correct;
};

void PrintTo(const PinnedRun& pinned, std::ostream* os) { *os << pinned.file; }

class ScenarioConformance : public testing::TestWithParam<PinnedRun> {};

TEST_P(ScenarioConformance, MatchesPinnedDigests) {
  const std::string file = std::string(GetParam().file) + ".scn";
  const ParseResult parsed = ParseFile(std::string(SCENARIO_DIR) + "/" + file);
  ASSERT_TRUE(parsed.ok) << FormatDiagnostics(parsed, file);
  const RunOutcome flawed = RunScenarioVariant(parsed.scenario, Variant::kFlawed);
  EXPECT_TRUE(flawed.passed);
  EXPECT_EQ(flawed.digest, GetParam().flawed);
  const RunOutcome correct = RunScenarioVariant(parsed.scenario, Variant::kCorrect);
  EXPECT_TRUE(correct.passed);
  EXPECT_EQ(correct.digest, GetParam().correct);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, ScenarioConformance,
    testing::Values(
        PinnedRun{"locksvc_double_locking", "1c41c6b68fc42781", "f057877d179ab3ad"},
        PinnedRun{"mqueue_double_dequeue", "5fe400cdcc1b8257", "f24761e4e6198209"},
        PinnedRun{"mqueue_repl_blackhole", "ff495da0e841f122", "6da3032b4ef06c44"},
        PinnedRun{"pbkv_dirty_read", "f6bbb8ba9667985c", "49c83cdd59caa1a0"},
        PinnedRun{"pbkv_paper_suite", "e85d64c1d2b50659", "7948cf24fa99f5c6"},
        PinnedRun{"raftkv_membership_5289", "d1e7660d6d556ef2", "2e29b820da6e6e10"}),
    [](const testing::TestParamInfo<PinnedRun>& param_info) {
      return std::string(param_info.param.file);
    });

}  // namespace
}  // namespace scenario
