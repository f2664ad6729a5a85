// Tests for detlint (tools/detlint): tokenizer units, one fixture tree per
// rule with a golden JSON report, suppression and baseline semantics, the
// CLI gate's exit codes (including the deliberately-seeded violation the CI
// job replays as its negative check), and the meta-test that the repo's own
// src/ is detlint-clean under the committed baseline.
//
// Compile-time configuration (from tests/CMakeLists.txt):
//   DETLINT_FIXTURE_DIR  tests/detlint_fixtures
//   DETLINT_SOURCE_ROOT  the repository root
//   DETLINT_BIN          path to the built detlint executable

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "detlint.h"

namespace detlint {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream stream(path, std::ios::binary);
  EXPECT_TRUE(stream.good()) << "cannot read " << path;
  std::ostringstream contents;
  contents << stream.rdbuf();
  return contents.str();
}

std::vector<SourceFile> LoadTree(const std::string& root) {
  std::vector<SourceFile> sources;
  for (const std::string& rel : CollectFiles(root, {"src"})) {
    SourceFile source;
    EXPECT_TRUE(LoadSourceFile(root, rel, &source)) << rel;
    sources.push_back(std::move(source));
  }
  return sources;
}

std::string FixtureRoot(const std::string& name) {
  return std::string(DETLINT_FIXTURE_DIR) + "/" + name;
}

// Loads a fixture's scenario corpus (its scenarios/ subtree, when present).
std::vector<ScnSource> LoadScnTree(const std::string& root) {
  std::vector<ScnSource> scenarios;
  for (const std::string& rel : CollectScnFiles(root, {"scenarios"})) {
    ScnSource scn;
    EXPECT_TRUE(LoadScnSource(root, rel, &scn)) << rel;
    scenarios.push_back(std::move(scn));
  }
  return scenarios;
}

AnalysisResult AnalyzeFixture(const std::string& name, bool with_baseline = false) {
  std::multimap<std::string, int> baseline;
  if (with_baseline) {
    baseline = ParseBaseline(ReadFile(FixtureRoot(name) + "/baseline.txt"));
  }
  return Analyze(LoadTree(FixtureRoot(name)), LoadScnTree(FixtureRoot(name)),
                 baseline);
}

int RunDetlint(const std::string& args) {
  const int status = std::system((std::string(DETLINT_BIN) + " " + args).c_str());
  EXPECT_TRUE(WIFEXITED(status)) << args;
  return WEXITSTATUS(status);
}

// --- tokenizer --------------------------------------------------------------

TEST(Tokenize, StringsAndCommentsAreNotIdentifierSources) {
  const std::vector<Token> tokens = Tokenize(
      "const char* s = \"rand() inside a string\";\n"
      "// rand() inside a comment\n"
      "/* time(nullptr) in a block comment */\n"
      "auto r = R\"(rand() inside a raw string)\";\n");
  for (const Token& token : tokens) {
    EXPECT_NE(token.text, "rand");
    EXPECT_NE(token.text, "time");
  }
}

TEST(Tokenize, TracksLinesAndColumns) {
  const std::vector<Token> tokens = Tokenize("int a;\n  int b;\n");
  ASSERT_GE(tokens.size(), 6u);
  EXPECT_EQ(tokens[0].line, 1);
  EXPECT_EQ(tokens[0].column, 1);
  EXPECT_EQ(tokens[3].line, 2);
  EXPECT_EQ(tokens[3].column, 3);
}

TEST(Tokenize, LineContinuationInsideLineCommentExtendsIt) {
  // The backslash-newline splice keeps a // comment alive on the next
  // physical line — rand() there is commentary, not code.
  const std::vector<Token> tokens = Tokenize(
      "// a comment that continues \\\n"
      "rand();\n"
      "int after;\n");
  for (const Token& token : tokens) {
    EXPECT_NE(token.text, "rand");
  }
  // ...and line accounting survives the splice.
  ASSERT_GE(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].text, "int");
  EXPECT_EQ(tokens[0].line, 3);
}

TEST(Tokenize, LineContinuationInsideStringLiteral) {
  // A spliced string literal is one token whose contents skip the splice;
  // the next token's line number accounts for the consumed newline.
  const std::vector<Token> tokens = Tokenize(
      "const char* s = \"split \\\n"
      "string\";\n"
      "int after;\n");
  bool found = false;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].kind == TokKind::kString) {
      EXPECT_EQ(tokens[i].text, "split string");
      found = true;
    }
    if (tokens[i].text == "after") {
      EXPECT_EQ(tokens[i].line, 3);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Tokenize, StringTokensRetainContents) {
  const std::vector<Token> tokens = Tokenize("auto n = obj.TypeName(\"pb.Put\");\n");
  bool found = false;
  for (const Token& token : tokens) {
    if (token.kind == TokKind::kString) {
      EXPECT_EQ(token.text, "pb.Put");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Suppressions, ParsedWithMandatoryReason) {
  const SourceFile file = MakeSourceFile(
      "src/x.cc",
      "// detlint: allow(raw-rand): the reason\n"
      "// detlint: allow(wall-clock)\n"
      "int x;\n");
  ASSERT_EQ(file.suppressions.size(), 1u);
  EXPECT_EQ(file.suppressions[0].rule, "raw-rand");
  EXPECT_EQ(file.suppressions[0].reason, "the reason");
  ASSERT_EQ(file.bad_suppression_lines.size(), 1u);
  EXPECT_EQ(file.bad_suppression_lines[0], 2);
}

// --- per-rule fixtures, golden JSON reports ---------------------------------

struct GoldenCase {
  const char* name;
  bool with_baseline;
};

// Without this, gtest shows each case as a raw byte dump of the struct (a
// string-literal address plus padding), which changes from run to run.
void PrintTo(const GoldenCase& param, std::ostream* os) {
  *os << '"' << param.name << '"' << (param.with_baseline ? " with baseline" : "");
}

class GoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenTest, MatchesGoldenJson) {
  const GoldenCase& param = GetParam();
  const AnalysisResult result = AnalyzeFixture(param.name, param.with_baseline);
  const std::string golden =
      ReadFile(std::string(DETLINT_FIXTURE_DIR) + "/golden/" + param.name + ".json");
  EXPECT_EQ(RenderJson(result), golden) << param.name;
}

INSTANTIATE_TEST_SUITE_P(
    Fixtures, GoldenTest,
    ::testing::Values(GoldenCase{"raw_rand", false}, GoldenCase{"wall_clock", false},
                      GoldenCase{"env_read", false}, GoldenCase{"threads", false},
                      GoldenCase{"static_local", false},
                      GoldenCase{"unordered_digest", false},
                      GoldenCase{"messages", false}, GoldenCase{"suppressed", false},
                      GoldenCase{"address_id", false},
                      GoldenCase{"baseline_case", true},
                      GoldenCase{"snapshot_field", false},
                      GoldenCase{"digest_taint", false},
                      GoldenCase{"scn_corpus", false}),
    [](const ::testing::TestParamInfo<GoldenCase>& param_info) {
      return std::string(param_info.param.name);
    });

// --- targeted per-rule assertions (readable failures beyond golden diffs) ---

TEST(Rules, RawRandFlagsBothConstructs) {
  const AnalysisResult result = AnalyzeFixture("raw_rand");
  ASSERT_EQ(result.findings.size(), 2u);
  EXPECT_EQ(result.findings[0].rule, "raw-rand");
  EXPECT_EQ(result.findings[0].subject, "random_device");
  EXPECT_EQ(result.findings[1].rule, "raw-rand");
  EXPECT_EQ(result.findings[1].subject, "rand");
}

TEST(Rules, AddressDerivedIdFlagsIntegerMintingOnly) {
  const AnalysisResult result = AnalyzeFixture("address_id");
  ASSERT_EQ(result.findings.size(), 3u);
  for (const Finding& finding : result.findings) {
    EXPECT_EQ(finding.rule, "address-derived-id");
  }
  EXPECT_EQ(result.findings[0].subject, "reinterpret_cast<uint64_t>");
  EXPECT_EQ(result.findings[1].subject, "uintptr_t");
  EXPECT_EQ(result.findings[2].subject, "reinterpret_cast<uintptr_t>");
  // The pointer-to-pointer casts (FineBytes/FineAlias) stay clean: no
  // integer is minted from the address.
}

TEST(Rules, WallClockFlagsChronoTypesAndTimeCalls) {
  const AnalysisResult result = AnalyzeFixture("wall_clock");
  ASSERT_EQ(result.findings.size(), 2u);
  EXPECT_EQ(result.findings[0].subject, "system_clock");
  EXPECT_EQ(result.findings[1].subject, "time");
  for (const Finding& finding : result.findings) {
    EXPECT_EQ(finding.rule, "wall-clock");
  }
}

TEST(Rules, EnvReadExemptsCampaignCcOnly) {
  const AnalysisResult result = AnalyzeFixture("env_read");
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].rule, "env-read");
  EXPECT_EQ(result.findings[0].file, "src/config.cc");
}

TEST(Rules, ThreadPrimitivesScopedToSimAndSystems) {
  const AnalysisResult result = AnalyzeFixture("threads");
  ASSERT_EQ(result.findings.size(), 2u);
  for (const Finding& finding : result.findings) {
    EXPECT_EQ(finding.rule, "thread-primitive");
    EXPECT_EQ(finding.file, "src/systems/worker.cc");
  }
}

TEST(Rules, StaticLocalIgnoresImmutableStatics) {
  const AnalysisResult result = AnalyzeFixture("static_local");
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].rule, "static-local");
  EXPECT_EQ(result.findings[0].subject, "static@NextId");
}

TEST(Rules, UnorderedIterationOnlyInDigestFeedingFunctions) {
  const AnalysisResult result = AnalyzeFixture("unordered_digest");
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].rule, "unordered-iteration");
  EXPECT_EQ(result.findings[0].subject, "StateDigest/table_");
}

TEST(Rules, UnhandledMessageSeesCrossFileDispatch) {
  const AnalysisResult result = AnalyzeFixture("messages");
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].rule, "unhandled-message");
  EXPECT_EQ(result.findings[0].subject, "OrphanMsg");
  EXPECT_EQ(result.suppressed, 1);  // AckMsg, suppressed with a reason
}

TEST(Rules, SuppressionsSilenceButMalformedOnesDoNot) {
  const AnalysisResult result = AnalyzeFixture("suppressed");
  EXPECT_EQ(result.suppressed, 2);
  ASSERT_EQ(result.findings.size(), 2u);
  EXPECT_EQ(result.findings[0].rule, "bad-suppression");
  EXPECT_EQ(result.findings[1].rule, "raw-rand");
}

TEST(Rules, SnapshotFieldCoverageFlagsSeededOmission) {
  // The acceptance case: cache_ is folded into the Snapshot but never
  // restored. dropped_ is in neither body; const/pointer members are
  // exempt; memo_ is excused with the allow(snapshot-field) shorthand.
  // Ledger keeps its fields in a privately inherited state value, the
  // shape the model systems use, so only its stray_ member is flagged.
  const AnalysisResult result = AnalyzeFixture("snapshot_field");
  ASSERT_EQ(result.findings.size(), 3u);
  EXPECT_EQ(result.findings[0].rule, "snapshot-field-coverage");
  EXPECT_EQ(result.findings[0].subject, "Tracker::cache_");
  EXPECT_NE(result.findings[0].message.find("Restore()"), std::string::npos);
  EXPECT_EQ(result.findings[1].subject, "Tracker::dropped_");
  EXPECT_EQ(result.findings[2].subject, "Ledger::stray_");
  EXPECT_EQ(result.suppressed, 1);  // memo_, via the snapshot-field alias
}

TEST(Rules, DigestTaintCrossesFilesAndSortLaunders) {
  const AnalysisResult result = AnalyzeFixture("digest_taint");
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].rule, "digest-taint");
  EXPECT_EQ(result.findings[0].file, "src/systems/digest.cc");
  EXPECT_EQ(result.findings[0].subject, "ClusterDigest/MemberList");
  // StableClusterDigest consumes the sorted list and stays clean.
}

TEST(Rules, ScnlintValidatesCorpusAgainstIndexedTypeNames) {
  const AnalysisResult result = AnalyzeFixture("scn_corpus");
  ASSERT_EQ(result.findings.size(), 2u);
  EXPECT_EQ(result.findings[0].rule, "scn-missing-expect");
  EXPECT_EQ(result.findings[0].file, "scenarios/half.scn");
  EXPECT_EQ(result.findings[1].rule, "scn-unknown-message");
  EXPECT_EQ(result.findings[1].subject, "fixture-phantom/fix.Pong");
  // good.scn names the real TypeName and asserts both variants: clean.
}

TEST(Rules, ScnParseFailureIsAFinding) {
  std::vector<ScnSource> scenarios;
  scenarios.push_back(ScnSource{"scenarios/broken.scn", "scenario \"x\"\n"});
  const AnalysisResult result =
      Analyze({}, scenarios, std::multimap<std::string, int>());
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].rule, "scn-parse");
  EXPECT_EQ(result.findings[0].file, "scenarios/broken.scn");
}

// --- baseline ---------------------------------------------------------------

TEST(Baseline, GrandfatheredFindingsDoNotGate) {
  const AnalysisResult result = AnalyzeFixture("baseline_case", /*with_baseline=*/true);
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_TRUE(result.findings[0].baselined);
  EXPECT_EQ(result.NewCount(), 0);
}

TEST(Baseline, RenderParseRoundTrip) {
  const AnalysisResult fresh = AnalyzeFixture("raw_rand");
  ASSERT_GT(fresh.NewCount(), 0);
  const std::multimap<std::string, int> parsed =
      ParseBaseline(RenderBaseline(fresh.findings));
  const AnalysisResult rebaselined = Analyze(LoadTree(FixtureRoot("raw_rand")), parsed);
  EXPECT_EQ(rebaselined.NewCount(), 0);
  EXPECT_EQ(rebaselined.findings.size(), fresh.findings.size());
}

// --- the CLI gate -----------------------------------------------------------

TEST(Cli, GateFailsOnSeededViolation) {
  // The same negative check the CI detlint job runs: a tree with a seeded
  // wall-clock violation must fail the gate.
  EXPECT_EQ(RunDetlint("--quiet --root " + FixtureRoot("wall_clock") + " src"), 1);
}

TEST(Cli, GateFailsOnSeededStructuralViolation) {
  // CI's structural negative check: the snapshot_field fixture's seeded
  // capture/restore omission must fail the gate.
  EXPECT_EQ(RunDetlint("--quiet --root " + FixtureRoot("snapshot_field") + " src"), 1);
}

TEST(Cli, ScnFlagRunsTheCorpusRules) {
  EXPECT_EQ(RunDetlint("--quiet --root " + FixtureRoot("scn_corpus") +
                       " --scn scenarios src"),
            1);
  EXPECT_EQ(RunDetlint("--quiet --root " + FixtureRoot("scn_corpus") +
                       " --scn scenarios/good.scn src"),
            0);
}

TEST(Cli, GatePassesWithBaseline) {
  EXPECT_EQ(RunDetlint("--quiet --root " + FixtureRoot("baseline_case") +
                       " --baseline " + FixtureRoot("baseline_case") + "/baseline.txt src"),
            0);
}

TEST(Cli, FixBaselineMakesTreePass) {
  const std::string tmp = ::testing::TempDir() + "/detlint_fix_baseline.txt";
  EXPECT_EQ(RunDetlint("--root " + FixtureRoot("raw_rand") + " --baseline " + tmp +
                       " --fix-baseline src > /dev/null"),
            0);
  EXPECT_EQ(RunDetlint("--quiet --root " + FixtureRoot("raw_rand") + " --baseline " + tmp +
                       " src"),
            0);
  std::remove(tmp.c_str());
}

// --- meta-test: the repository's own src/ is detlint-clean ------------------

TEST(RepoClean, SrcBenchAndCorpusHaveNoNewFindingsUnderCommittedBaseline) {
  const std::string root = DETLINT_SOURCE_ROOT;
  const std::multimap<std::string, int> baseline =
      ParseBaseline(ReadFile(root + "/tools/detlint/baseline.txt"));
  std::vector<SourceFile> sources;
  for (const std::string& rel : CollectFiles(root, {"src", "bench"})) {
    SourceFile source;
    ASSERT_TRUE(LoadSourceFile(root, rel, &source)) << rel;
    sources.push_back(std::move(source));
  }
  // The real corpus only — tests/scenarios/bad/ holds deliberate parser
  // rejects (the parser test suite's negative fixtures).
  std::vector<ScnSource> scenarios;
  for (const std::string& rel : CollectScnFiles(root, {"tests/scenarios"})) {
    if (rel.find("/bad/") != std::string::npos) {
      continue;
    }
    ScnSource scn;
    ASSERT_TRUE(LoadScnSource(root, rel, &scn)) << rel;
    scenarios.push_back(std::move(scn));
  }
  EXPECT_GT(scenarios.size(), 3u);
  const AnalysisResult result = Analyze(sources, scenarios, baseline);
  std::string report;
  for (const Finding& finding : result.findings) {
    if (!finding.baselined) {
      report += finding.file + ":" + std::to_string(finding.line) + " [" + finding.rule +
                "] " + finding.message + "\n";
    }
  }
  EXPECT_EQ(result.NewCount(), 0) << report;
  EXPECT_GT(result.files_scanned, 50);
}

}  // namespace
}  // namespace detlint
