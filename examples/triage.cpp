// Triage a failing campaign: sweep, minimize, report.
//
// Runs the paper-pruned length <= 4 suites against the seeded pbkv
// (VoltDB-like dirty reads) and locksvc (Ignite-like view shrinking)
// flaws with the campaign runner's triage post-pass enabled, then emits
// structured reports: machine-readable JSON (gated in CI) and a human
// Markdown digest, one pair per system. Exits non-zero if any unique
// failure signature lacks a verified minimal repro, or if a repro is
// longer than the case it came from.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/triage [output-dir] [--guided]
//
// With --guided, the campaigns run the coverage-guided feedback loop
// (CampaignOptions::guided) instead of sweeping the pruned space
// exhaustively; the reports then carry the coverage map and corpus
// statistics. NEAT_GUIDED_ROUNDS / NEAT_CORPUS_MAX tune the loop.

#include <cstdio>
#include <string>

#include "neat/adapters.h"
#include "neat/campaign.h"
#include "neat/report.h"

namespace {

struct Target {
  const char* name;          // file stem: <dir>/triage_<name>.{json,md}
  neat::ReportContext context;
  neat::CampaignResult result;
};

// Runs one campaign with minimization and verifies the triage contract:
// every unique signature has a repro that re-fails with that signature and
// is no longer than the original failing case.
bool CheckTriage(const Target& target) {
  bool ok = true;
  for (const auto& [signature, count] : target.result.signature_counts) {
    const neat::MinimizedRepro* found = nullptr;
    for (const neat::MinimizedRepro& repro : target.result.minimized) {
      if (repro.signature == signature) {
        found = &repro;
      }
    }
    if (found == nullptr) {
      std::printf("  FAIL %s: signature \"%s\" has no minimized repro\n", target.name,
                  signature.c_str());
      ok = false;
      continue;
    }
    if (!found->reproduced) {
      std::printf("  FAIL %s: repro for \"%s\" did not re-fail on verification\n",
                  target.name, signature.c_str());
      ok = false;
    }
    if (found->minimized.size() > found->original.size()) {
      std::printf("  FAIL %s: repro for \"%s\" grew (%zu > %zu events)\n", target.name,
                  signature.c_str(), found->minimized.size(), found->original.size());
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir = ".";
  bool guided = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--guided") {
      guided = true;
    } else {
      dir = argv[i];
    }
  }
  std::printf("Failure triage: delta-debugging minimization + campaign reports%s\n\n",
              guided ? " (coverage-guided)" : "");

  neat::CampaignOptions options = neat::CampaignOptionsFromEnv();
  options.minimize_failures = true;
  options.guided = guided;

  neat::TestCaseGenerator::Alphabet kv_alphabet;
  neat::TestCaseGenerator kv_generator(kv_alphabet);
  neat::TestCaseGenerator::Alphabet lock_alphabet;
  lock_alphabet.client_events = {neat::EventKind::kLock, neat::EventKind::kUnlock};
  neat::TestCaseGenerator lock_generator(lock_alphabet);

  const std::string suite_mode = guided ? "coverage-guided from paper-pruned seeds, len <= 4"
                                        : "paper-pruned, len <= 4";
  Target targets[] = {
      {"pbkv",
       {"pbkv triage", "pbkv/VoltDB-like (seeded dirty reads)", suite_mode,
        options.threads, options.seeds},
       neat::RunCampaign(kv_generator, 4, neat::PaperPruning(),
                         neat::ReplayExecutor(neat::PbkvRunnerFactory(pbkv::VoltDbOptions())),
                         options)},
      {"locksvc",
       {"locksvc triage", "locksvc/Ignite-like (seeded view shrinking)",
        guided ? suite_mode : "paper-pruned lock/unlock, len <= 4", options.threads,
        options.seeds},
       neat::RunCampaign(lock_generator, 4, neat::PaperPruning(),
                         neat::ReplayExecutor(neat::LocksvcRunnerFactory(locksvc::IgniteOptions())),
                         options)},
  };

  bool ok = true;
  for (const Target& target : targets) {
    std::printf("%s: %llu runs, %llu failures, %zu signatures, %.1f cases/s "
                "(sweep %.3fs, minimize %.3fs)\n",
                target.name, static_cast<unsigned long long>(target.result.cases_run),
                static_cast<unsigned long long>(target.result.failures),
                target.result.signature_counts.size(), target.result.CasesPerSecond(),
                target.result.sweep_seconds, target.result.minimize_seconds);
    for (const neat::MinimizedRepro& repro : target.result.minimized) {
      std::printf("  [%s] %zu -> %zu events in %llu probes: %s\n", repro.signature.c_str(),
                  repro.original.size(), repro.minimized.size(),
                  static_cast<unsigned long long>(repro.probes),
                  neat::FormatTestCase(repro.minimized).c_str());
    }
    ok = CheckTriage(target) && ok;

    const std::string stem = dir + "/triage_" + target.name;
    const std::string json = neat::JsonReport(target.result, target.context);
    const std::string markdown = neat::MarkdownReport(target.result, target.context);
    if (!neat::WriteTextFile(stem + ".json", json) ||
        !neat::WriteTextFile(stem + ".md", markdown)) {
      std::printf("  FAIL: could not write %s.{json,md}\n", stem.c_str());
      ok = false;
    } else {
      std::printf("  wrote %s.json, %s.md\n", stem.c_str(), stem.c_str());
    }
  }

  std::printf("\ntriage %s: every signature has a verified minimal repro\n",
              ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
