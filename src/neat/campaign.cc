#include "neat/campaign.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <set>
#include <thread>

#include "neat/fnv.h"
#include "neat/mutate.h"

namespace neat {
namespace {

// detlint: allow(wall-clock): campaign phase timing is wall-clock reporting
// for humans (sweep/minimize seconds in reports); it never feeds a verdict,
// trace, or digest, so replay determinism is unaffected.
using Clock = std::chrono::steady_clock;

// Streaming campaigns pre-count the suite for progress totals only while
// the count stays below this; beyond it the walk would cost real time and
// the total is reported as 0 ("unknown").
constexpr uint64_t kPrecountLimit = 1000000;

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start).count();
}

struct WorkItem {
  uint64_t index = 0;
  TestCase test_case;
};

// Runs `worker(shard)` on `threads` threads (inline when threads == 1).
void RunOnPool(int threads, const std::function<void(int)>& worker) {
  if (threads <= 1) {
    worker(0);
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads));
  for (int shard = 0; shard < threads; ++shard) {
    pool.emplace_back(worker, shard);
  }
  for (std::thread& thread : pool) {
    thread.join();
  }
}

// The triage post-pass: shrink the earliest failing run of every unique
// signature to a minimal repro, fanned out over the worker pool. Each
// minimization is a pure function of (case, seed, executor), and results
// are stored by signature rank, so the output is byte-identical at any
// thread count.
void MinimizeFailures(CampaignResult* result, const CaseExecutor& executor,
                      const CampaignOptions& options, int threads) {
  std::vector<const CaseResult*> representatives;
  std::set<std::string> seen;
  for (const CaseResult& run : result->cases) {
    if (run.found_failure && seen.insert(run.signature).second) {
      representatives.push_back(&run);
    }
  }
  std::sort(representatives.begin(), representatives.end(),
            [](const CaseResult* a, const CaseResult* b) {
              return a->signature < b->signature;
            });
  result->minimized.resize(representatives.size());
  std::atomic<size_t> next{0};
  RunOnPool(std::min<int>(threads, static_cast<int>(representatives.size())),
            [&](int /*shard*/) {
              for (;;) {
                const size_t i = next.fetch_add(1);
                if (i >= representatives.size()) {
                  break;
                }
                // One session per minimization: ddmin probes of one case
                // differ by a dropped chunk, so a forking session replays
                // their shared prefixes from snapshots (neat/fork.h).
                const CaseExecutor session =
                    options.sessions ? options.sessions() : CaseExecutor{};
                result->minimized[i] = MinimizeCase(
                    representatives[i]->test_case, representatives[i]->seed,
                    session ? session : executor, options.minimize);
              }
            });
}

int ResolveThreads(int threads) {
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  return threads <= 0 ? 1 : threads;
}

// The sweep machinery shared by the exhaustive driver and the guided
// loop's batches: worker-pool configuration plus the progress counters,
// which persist across batches so a guided campaign reports one monotonic
// run count.
struct SweepState {
  int threads = 1;
  int seeds = 1;
  uint64_t total_runs = 0;  // 0 = unknown
  // Per-worker executor sessions (CampaignOptions::sessions), one per
  // shard, built once per campaign. Living here rather than in SweepInto
  // keeps each worker's session — and any prefix snapshots it carries —
  // alive across a guided campaign's batches, where cross-round prefix
  // reuse pays the most. Empty when the campaign runs a shared executor.
  std::vector<CaseExecutor> sessions;
  std::mutex progress_mutex;
  // Both guarded by progress_mutex: snapshotting them together under the
  // callback's lock is what makes the observed (done, failures) pairs
  // monotonic — separate atomics would let a concurrent worker's failure
  // land between the two reads.
  uint64_t progress_done = 0;
  uint64_t progress_failures = 0;
};

// Builds one executor session per worker when the campaign asked for them
// (CampaignOptions::sessions); otherwise leaves the shared-executor path.
void BuildSessions(SweepState* state, const CampaignOptions& options) {
  if (!options.sessions) {
    return;
  }
  state->sessions.reserve(static_cast<size_t>(state->threads));
  for (int i = 0; i < state->threads; ++i) {
    state->sessions.push_back(options.sessions());
  }
}

// Executes every case `next_case` yields (all seeds each) on the worker
// pool and appends the runs to `out`, sorted by (case_index, seed).
// `next_case` is the work queue head: workers serialize on it to pull the
// next (index, case) pair, then execute without further coordination. Each
// worker appends into its own shard; the sort restores generation order,
// so callers never see thread scheduling.
void SweepInto(SweepState* state, const std::function<bool(WorkItem*)>& next_case,
               const CaseExecutor& executor, const CampaignOptions& options,
               std::vector<CaseResult>* out) {
  std::mutex source_mutex;
  std::vector<std::vector<CaseResult>> shards(static_cast<size_t>(state->threads));

  auto worker = [&](int shard) {
    const CaseExecutor& run_case =
        state->sessions.empty() ? executor : state->sessions[static_cast<size_t>(shard)];
    WorkItem item;
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(source_mutex);
        if (!next_case(&item)) {
          break;
        }
      }
      for (int seed = 1; seed <= state->seeds; ++seed) {
        const Clock::time_point case_start = Clock::now();
        ExecutionResult run = run_case(item.test_case, static_cast<uint64_t>(seed));
        CaseResult result;
        result.case_index = item.index;
        result.seed = static_cast<uint64_t>(seed);
        result.found_failure = run.found_failure;
        result.signature = FailureSignature(run);
        result.trace = std::move(run.trace);
        result.coverage = std::move(run.coverage);
        if (run.found_failure) {
          result.test_case = item.test_case;  // retained for the triage pass
        }
        result.host_micros = MicrosSince(case_start);
        const bool found_failure = result.found_failure;
        shards[static_cast<size_t>(shard)].push_back(std::move(result));
        if (options.progress) {
          std::lock_guard<std::mutex> lock(state->progress_mutex);
          ++state->progress_done;
          if (found_failure) {
            ++state->progress_failures;
          }
          options.progress(state->progress_done, state->total_runs, state->progress_failures);
        }
      }
    }
  };
  RunOnPool(state->threads, worker);

  const size_t first = out->size();
  for (std::vector<CaseResult>& shard : shards) {
    out->insert(out->end(), std::make_move_iterator(shard.begin()),
                std::make_move_iterator(shard.end()));
  }
  std::sort(out->begin() + static_cast<std::ptrdiff_t>(first), out->end(),
            [](const CaseResult& a, const CaseResult& b) {
              return a.case_index != b.case_index ? a.case_index < b.case_index
                                                  : a.seed < b.seed;
            });
}

// Computes every aggregate derived from result->cases (already sorted by
// (case_index, seed)): failure counts, the signature histogram, and the
// campaign coverage map.
void AggregateCases(CampaignResult* result) {
  result->cases_run = result->cases.size();
  for (const CaseResult& run : result->cases) {
    result->total_host_micros += run.host_micros;
    result->coverage.Add(run.coverage);
    if (!run.found_failure) {
      continue;
    }
    ++result->failures;
    ++result->signature_counts[run.signature];
    if (result->first_failure_index < 0 ||
        static_cast<int64_t>(run.case_index) < result->first_failure_index) {
      result->first_failure_index = static_cast<int64_t>(run.case_index);
    }
  }
}

// The shared driver behind both exhaustive RunCampaign overloads.
CampaignResult RunWithSource(const std::function<bool(WorkItem*)>& next_case,
                             const CaseExecutor& executor, const CampaignOptions& options,
                             uint64_t total_cases) {
  SweepState state;
  state.seeds = std::max(1, options.seeds);
  state.threads = ResolveThreads(options.threads);
  state.total_runs = total_cases * static_cast<uint64_t>(state.seeds);
  BuildSessions(&state, options);

  const Clock::time_point campaign_start = Clock::now();
  CampaignResult result;
  SweepInto(&state, next_case, executor, options, &result.cases);
  AggregateCases(&result);
  result.sweep_seconds = MicrosSince(campaign_start) / 1e6;

  if (options.minimize_failures && result.failures > 0) {
    const Clock::time_point minimize_start = Clock::now();
    MinimizeFailures(&result, executor, options, state.threads);
    result.minimize_seconds = MicrosSince(minimize_start) / 1e6;
  }
  result.wall_seconds = MicrosSince(campaign_start) / 1e6;
  return result;
}

// The guided loop body, with the pruned-space size supplied by the caller:
// the streaming RunCampaign already walks the space once for its progress
// total, and this avoids counting it a second time for the seed-schedule
// stride. `space` must be generator.CountUpTo(max_length, rules,
// kPrecountLimit) for the same (max_length, rules).
CampaignResult RunGuidedWithSpace(const TestCaseGenerator& generator, int max_length,
                                  const PruningRules& rules, const CaseExecutor& executor,
                                  const CampaignOptions& options, uint64_t space);

}  // namespace

std::string FailureSignature(const ExecutionResult& result) {
  std::set<std::string> impacts;
  for (const check::Violation& violation : result.violations) {
    impacts.insert(violation.impact);
  }
  std::string signature;
  for (const std::string& impact : impacts) {
    if (!signature.empty()) {
      signature += "+";
    }
    signature += impact;
  }
  return signature;
}

int EnvKnob(const char* name, int fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') {
    return fallback;
  }
  char* end = nullptr;
  const long value = std::strtol(raw, &end, 10);
  if (end == raw || *end != '\0' || value <= 0 || value > 1000000) {
    return fallback;
  }
  return static_cast<int>(value);
}

CampaignOptions CampaignOptionsFromEnv() {
  CampaignOptions options;
  options.threads = EnvKnob("NEAT_THREADS", 0);
  options.seeds = EnvKnob("NEAT_SEEDS", 1);
  options.guided_rounds = EnvKnob("NEAT_GUIDED_ROUNDS", options.guided_rounds);
  options.corpus_max = EnvKnob("NEAT_CORPUS_MAX", options.corpus_max);
  return options;
}

double CampaignResult::CasesPerSecond() const {
  return sweep_seconds > 0 ? static_cast<double>(cases_run) / sweep_seconds : 0;
}

std::string CampaignResult::VerdictDigest() const {
  Fnv1a fnv;
  for (const CaseResult& run : cases) {
    fnv.Mix(std::to_string(run.case_index));
    fnv.Mix(":");
    fnv.Mix(std::to_string(run.seed));
    fnv.Mix(run.found_failure ? ":F:" : ":.:");
    fnv.Mix(run.signature);
    fnv.Mix("\n");
  }
  return fnv.Hex();
}

std::string CampaignResult::CorpusDigest() const {
  Fnv1a fnv;
  for (const TestCase& test_case : guided.corpus) {
    fnv.Mix(FormatTestCase(test_case));
    fnv.Mix("\n");
  }
  return fnv.Hex();
}

CampaignResult RunCampaign(const std::vector<TestCase>& suite, const CaseExecutor& executor,
                           const CampaignOptions& options) {
  uint64_t next = 0;
  const auto source = [&suite, &next](WorkItem* item) {
    if (next >= suite.size()) {
      return false;
    }
    item->index = next;
    item->test_case = suite[next];
    ++next;
    return true;
  };
  return RunWithSource(source, executor, options, suite.size());
}

CampaignResult RunCampaign(const TestCaseGenerator& generator, int max_length,
                           const PruningRules& rules, const CaseExecutor& executor,
                           const CampaignOptions& options) {
  // Pre-count the suite: the count streams the pruned space without
  // materializing it, and bails out (to 0, "unknown") when the space
  // reaches kPrecountLimit cases. One walk serves both consumers — the
  // progress observer's total and guided mode's seed-schedule stride —
  // where previously guided campaigns with a progress observer counted
  // the space once for each. With neither consumer the count is never
  // read, so skip the walk.
  const uint64_t space = (options.progress || options.guided)
                             ? generator.CountUpTo(max_length, rules, kPrecountLimit)
                             : 0;
  if (options.guided) {
    return RunGuidedWithSpace(generator, max_length, rules, executor, options, space);
  }
  TestCaseGenerator::Cursor cursor = generator.MakeCursorUpTo(max_length, rules);
  uint64_t next = 0;
  const auto source = [&cursor, &next](WorkItem* item) {
    if (!cursor.Next(&item->test_case)) {
      return false;
    }
    item->index = next++;
    return true;
  };
  return RunWithSource(source, executor, options, space);
}

namespace {

CampaignResult RunGuidedWithSpace(const TestCaseGenerator& generator, int max_length,
                                  const PruningRules& rules, const CaseExecutor& executor,
                                  const CampaignOptions& options, uint64_t space) {
  SweepState state;
  state.seeds = std::max(1, options.seeds);
  state.threads = ResolveThreads(options.threads);
  state.total_runs = 0;  // open-ended: the loop decides how many runs happen
  BuildSessions(&state, options);

  const Clock::time_point campaign_start = Clock::now();
  CampaignResult result;
  result.guided.enabled = true;

  const uint64_t budget = options.guided_max_cases;
  uint64_t seed_target = static_cast<uint64_t>(std::max(1, options.corpus_seed_cases));
  if (budget > 0 && budget < seed_target) {
    seed_target = budget;
  }

  // Seed schedule: a stride over the pruned enumeration, so the starting
  // corpus samples the whole space (short and long cases, every partition
  // variant) instead of the lexicographic prefix. The caller supplies the
  // space count (one shared walk, see RunCampaign).
  const uint64_t stride = space > seed_target ? space / seed_target : 1;
  std::vector<TestCase> batch;
  std::set<std::string> scheduled;  // dedup key: the faithful textual form
  uint64_t walked = 0;
  generator.StreamUpTo(max_length, rules, [&](const TestCase& test_case) {
    if (walked++ % stride == 0) {
      batch.push_back(test_case);
      scheduled.insert(FormatTestCase(test_case));
    }
    return batch.size() < seed_target;
  });
  result.guided.seed_cases = batch.size();

  const Mutator mutator(generator.alphabet(), max_length + 2);
  CoverageMap covered;  // the working map driving corpus admission
  std::vector<TestCase> corpus;
  const size_t corpus_max = static_cast<size_t>(std::max(1, options.corpus_max));
  uint64_t next_index = 0;

  // Executes one batch on the pool, then admits cases to the corpus
  // serially in schedule order — with mutation scheduling a pure function
  // of (round, corpus index, mutant index), this keeps the corpus and
  // coverage map byte-identical at any thread count. Returns the number of
  // features the batch newly covered.
  const auto run_batch = [&](const std::vector<TestCase>& cases) -> uint64_t {
    std::vector<CaseResult> runs;
    size_t cursor = 0;
    const auto source = [&](WorkItem* item) {
      if (cursor >= cases.size()) {
        return false;
      }
      item->index = next_index + cursor;
      item->test_case = cases[cursor];
      ++cursor;
      return true;
    };
    SweepInto(&state, source, executor, options, &runs);
    next_index += cases.size();

    uint64_t new_features = 0;
    for (size_t c = 0; c < cases.size(); ++c) {
      uint64_t fresh = 0;
      for (int s = 0; s < state.seeds; ++s) {
        fresh += covered.Add(runs[c * static_cast<size_t>(state.seeds) +
                                  static_cast<size_t>(s)].coverage);
      }
      if (fresh > 0 && corpus.size() < corpus_max) {
        corpus.push_back(cases[c]);
      }
      new_features += fresh;
    }
    result.cases.insert(result.cases.end(), std::make_move_iterator(runs.begin()),
                        std::make_move_iterator(runs.end()));
    return new_features;
  };

  result.guided.new_features_per_round.push_back(run_batch(batch));

  for (int round = 1; round <= std::max(0, options.guided_rounds); ++round) {
    const uint64_t remaining = budget == 0 ? std::numeric_limits<uint64_t>::max()
                               : budget > next_index ? budget - next_index
                                                     : 0;
    if (remaining == 0 || corpus.empty()) {
      break;
    }
    // The round's whole mutant batch is derived from the corpus snapshot
    // before any of it executes; already-scheduled cases are skipped so
    // the budget buys distinct behaviours.
    std::vector<TestCase> mutants;
    const int fan_out = std::max(1, options.mutants_per_entry);
    for (size_t i = 0; i < corpus.size() && mutants.size() < remaining; ++i) {
      for (int j = 0; j < fan_out && mutants.size() < remaining; ++j) {
        TestCase mutant = mutator.Mutate(
            corpus[i], Mutator::MixSeed(options.guided_seed, static_cast<uint64_t>(round),
                                        static_cast<uint64_t>(i), static_cast<uint64_t>(j)));
        if (!scheduled.insert(FormatTestCase(mutant)).second) {
          ++result.guided.duplicates_skipped;
          continue;
        }
        mutants.push_back(std::move(mutant));
      }
    }
    if (mutants.empty()) {
      break;
    }
    result.guided.mutants_run += mutants.size();
    result.guided.rounds_run = round;
    result.guided.new_features_per_round.push_back(run_batch(mutants));
  }
  result.guided.corpus = std::move(corpus);

  AggregateCases(&result);
  result.sweep_seconds = MicrosSince(campaign_start) / 1e6;
  if (options.minimize_failures && result.failures > 0) {
    const Clock::time_point minimize_start = Clock::now();
    MinimizeFailures(&result, executor, options, state.threads);
    result.minimize_seconds = MicrosSince(minimize_start) / 1e6;
  }
  result.wall_seconds = MicrosSince(campaign_start) / 1e6;
  return result;
}

}  // namespace

CampaignResult RunGuidedCampaign(const TestCaseGenerator& generator, int max_length,
                                 const PruningRules& rules, const CaseExecutor& executor,
                                 const CampaignOptions& options) {
  return RunGuidedWithSpace(generator, max_length, rules, executor, options,
                            generator.CountUpTo(max_length, rules, kPrecountLimit));
}

}  // namespace neat
