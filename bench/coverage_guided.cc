// Coverage-guided campaigns vs exhaustive enumeration.
//
// The guided loop (CampaignOptions::guided) seeds a corpus from a
// stride-sampled slice of the pruned suite and then mutates corpus entries,
// keeping a case only when it adds trace/state coverage. The bet is that
// coverage feedback reaches every distinct failure signature with far fewer
// runs than sweeping the whole pruned space. This bench measures that bet
// on the two seeded-flaw suites the paper reproduces end to end:
//
//   - pbkv / VoltDB-like dirty reads (paper-pruned KV alphabet, len <= 3)
//   - locksvc / Ignite-like view shrinking (lock/unlock alphabet, len <= 3)
//
// For each suite it runs the exhaustive paper-pruned campaign, then a
// guided campaign hard-capped at HALF the exhaustive run count
// (guided_max_cases), and reports runs, failures, signatures, and coverage
// side by side as a Markdown-ready table. Exits non-zero if the guided
// half-budget campaign misses any signature the exhaustive sweep found —
// the acceptance bar for the guided mode.
//
// NEAT_THREADS / NEAT_SEEDS scale the sweeps; NEAT_GUIDED_ROUNDS /
// NEAT_CORPUS_MAX tune the guided loop.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "neat/adapters.h"
#include "neat/campaign.h"
#include "neat/testgen.h"

namespace {

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

void PrintRow(const char* suite, const char* mode, const neat::CampaignResult& result) {
  std::printf("| %s | %s | %llu | %llu | %zu | %zu | %llu |\n", suite, mode,
              static_cast<unsigned long long>(result.cases_run),
              static_cast<unsigned long long>(result.failures),
              result.signature_counts.size(), result.coverage.unique_features(),
              static_cast<unsigned long long>(result.coverage.total_hits()));
}

// Every signature the exhaustive sweep found must also appear in the guided
// result. Prints the verdict; returns whether parity holds.
bool CheckParity(const char* suite, const neat::CampaignResult& exhaustive,
                 const neat::CampaignResult& guided) {
  bool ok = true;
  for (const auto& [signature, count] : exhaustive.signature_counts) {
    if (guided.signature_counts.find(signature) == guided.signature_counts.end()) {
      std::printf("  MISS %s: guided (%llu runs) never hit \"%s\" (exhaustive: x%llu)\n",
                  suite, static_cast<unsigned long long>(guided.cases_run),
                  signature.c_str(), static_cast<unsigned long long>(count));
      ok = false;
    }
  }
  if (ok) {
    std::printf("  %s: guided found all %zu exhaustive signature(s) in %llu/%llu runs "
                "(%.0f%% of the budget)\n",
                suite, exhaustive.signature_counts.size(),
                static_cast<unsigned long long>(guided.cases_run),
                static_cast<unsigned long long>(exhaustive.cases_run),
                exhaustive.cases_run == 0
                    ? 0.0
                    : 100.0 * static_cast<double>(guided.cases_run) /
                          static_cast<double>(exhaustive.cases_run));
  }
  return ok;
}

}  // namespace

int main() {
  bench::Banner("Coverage-guided NEAT campaigns vs exhaustive enumeration");

  neat::CampaignOptions options = neat::CampaignOptionsFromEnv();
  options.minimize_failures = false;
  std::printf("\nConfiguration: threads=%d (NEAT_THREADS, 0=hardware), seeds=%d "
              "(NEAT_SEEDS), guided rounds=%d (NEAT_GUIDED_ROUNDS), corpus max=%d "
              "(NEAT_CORPUS_MAX)\n\n",
              options.threads, options.seeds, options.guided_rounds, options.corpus_max);

  struct Suite {
    const char* name;
    neat::TestCaseGenerator generator;
    neat::CaseExecutor executor;
  };
  neat::TestCaseGenerator::Alphabet kv_alphabet;
  neat::TestCaseGenerator::Alphabet lock_alphabet;
  lock_alphabet.client_events = {neat::EventKind::kLock, neat::EventKind::kUnlock};
  std::vector<Suite> suites;
  suites.push_back({"pbkv/VoltDB-like", neat::TestCaseGenerator(kv_alphabet),
                    neat::ReplayExecutor(neat::PbkvRunnerFactory(pbkv::VoltDbOptions()))});
  suites.push_back({"locksvc/Ignite-like", neat::TestCaseGenerator(lock_alphabet),
                    neat::ReplayExecutor(neat::LocksvcRunnerFactory(locksvc::IgniteOptions()))});

  std::printf("| suite | mode | runs | failures | signatures | coverage features | "
              "coverage hits |\n");
  std::printf("|---|---|---:|---:|---:|---:|---:|\n");

  struct Pair {
    const char* name;
    neat::CampaignResult exhaustive;
    neat::CampaignResult guided;
  };
  std::vector<Pair> pairs;
  for (Suite& suite : suites) {
    neat::CampaignOptions exhaustive_options = options;
    exhaustive_options.guided = false;
    neat::CampaignResult exhaustive = neat::RunCampaign(
        suite.generator, 3, neat::PaperPruning(), suite.executor, exhaustive_options);
    PrintRow(suite.name, "exhaustive", exhaustive);

    neat::CampaignOptions guided_options = options;
    guided_options.guided = true;
    guided_options.guided_max_cases = exhaustive.cases_run / 2;
    neat::CampaignResult guided = neat::RunCampaign(
        suite.generator, 3, neat::PaperPruning(), suite.executor, guided_options);
    PrintRow(suite.name, "guided (1/2 budget)", guided);

    pairs.push_back({suite.name, std::move(exhaustive), std::move(guided)});
  }

  std::printf("\nSignature parity (guided must find every exhaustive signature)\n");
  bool ok = true;
  for (const Pair& pair : pairs) {
    ok = CheckParity(pair.name, pair.exhaustive, pair.guided) && ok;
    std::printf("    exhaustive: %s\n", SignatureSummary(pair.exhaustive).c_str());
    std::printf("    guided:     %s\n", SignatureSummary(pair.guided).c_str());
  }

  std::printf("\nGuided corpus details\n");
  for (const Pair& pair : pairs) {
    std::printf("  %s: %llu seed case(s), %d round(s), %llu mutant(s), %llu duplicate(s) "
                "skipped, corpus %zu, digest %s\n",
                pair.name, static_cast<unsigned long long>(pair.guided.guided.seed_cases),
                pair.guided.guided.rounds_run,
                static_cast<unsigned long long>(pair.guided.guided.mutants_run),
                static_cast<unsigned long long>(pair.guided.guided.duplicates_skipped),
                pair.guided.guided.corpus.size(), pair.guided.CorpusDigest().c_str());
  }

  std::printf("\ncoverage_guided %s: guided campaigns at half budget %s signature "
              "parity with exhaustive enumeration\n",
              ok ? "OK" : "FAILED", ok ? "reach" : "missed");
  return ok ? 0 : 1;
}
