// neat_perfbench: runs the NEAT campaign benchmark.
//
//   neat_perfbench --workload sweep|guided|deep --seed N --seconds S --trace 0|1
//                  [--corpus DIR] [--goldens FILE] [--rev REV] [--spans-out FILE]
//                  [--print-goldens]
//
// A run builds the workload's plan, runs one reference round whose outputs
// are judged (needles, clean correct variants, run counts, and at the
// default seed the golden digests), then repeats whole rounds for S
// seconds, each judged against the reference, timing a few set-ups after
// each round. With --trace 0 it prints the end-to-end metrics; with
// --trace 1 it also runs rounds through the decorated runners (tracing.h)
// and prints the per-layer metrics, the tracing overhead, and a
// worker-scaling row. The last line of standard output is one JSON object;
// the exit code is 0 only when the gate passed. NOTES.md describes every
// metric and its base.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "neat/coverage.h"
#include "stats.h"
#include "tracing.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr uint64_t kDefaultSeed = 1;
constexpr int kMaxWorkers = 4;
constexpr int kSetupsPerRound = 8;  // see SetupSampler

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  Workload workload = Workload::kSweep;
  uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string corpus = "tests/scenarios";
  std::string goldens = "perfbench/goldens.txt";
  std::string rev = "unknown";
  std::string spans_out;
  bool print_goldens = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--print-goldens") {
      args->print_goldens = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        if (!ParseWorkload(value, &args->workload)) {
          return false;
        }
        have_workload = true;
      } else if (flag == "--seed") {
        args->seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args->seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") {
          return false;
        }
        args->trace = value == "1";
      } else if (flag == "--corpus") {
        args->corpus = value;
      } else if (flag == "--goldens") {
        args->goldens = value;
      } else if (flag == "--rev") {
        args->rev = value;
      } else if (flag == "--spans-out") {
        args->spans_out = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return have_workload && args->seconds > 0 && std::isfinite(args->seconds);
}

int Nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return CPU_COUNT(&set);
  }
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("g++ ") + __VERSION__;
#else
  return "unknown";
#endif
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// Metrics in print order, each with its unit.
class Metrics {
 public:
  void Add(std::string name, double value, std::string unit) {
    entries_.push_back(Entry{std::move(name), std::isfinite(value) ? value : 0.0, std::move(unit)});
  }

  void PrintTable(const char* title) const {
    std::printf("%s\n", title);
    for (const Entry& entry : entries_) {
      std::printf("  %-36s %18.6f %s\n", entry.name.c_str(), entry.value, entry.unit.c_str());
    }
  }

  std::string Json() const {
    std::string out = "{";
    char number[64];
    for (size_t i = 0; i < entries_.size(); ++i) {
      std::snprintf(number, sizeof(number), "%.17g", entries_[i].value);
      out += (i == 0 ? "\"" : ", \"") + entries_[i].name + "\": {\"value\": " + number +
             ", \"unit\": \"" + entries_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

// Set-up timings (BuildPlan: parse, generator build and pre-count,
// executor/factory construction). They are taken a few at a time after each
// timed round rather than back to back at process start, where a machine
// that was idle runs the first second or so several times slower.
class SetupSampler {
 public:
  SetupSampler(Workload workload, PlanOptions options)
      : workload_(workload), options_(std::move(options)) {}

  void Sample(int times) {
    for (int i = 0; i < times; ++i) {
      const Clock::time_point start = Clock::now();
      const Plan plan = BuildPlan(workload_, options_);
      seconds_.push_back(SecondsSince(start));
      parse_us_.push_back(plan.parse_us);
      count_us_.push_back(plan.count_us);
    }
  }

  double SetupSeconds() const { return Median(seconds_); }
  double ParseMicros() const { return Median(parse_us_); }
  double CountMicros() const { return Median(count_us_); }

 private:
  const Workload workload_;
  const PlanOptions options_;
  std::vector<double> seconds_;
  std::vector<double> parse_us_;
  std::vector<double> count_us_;
};

// Whole rounds of one plan for at least `seconds`, each judged against the
// reference round. Every round runs the same cases, so each round gives one
// sample of the throughput and of each latency percentile; their medians
// shrug off a round that shared the machine with a burst of outside load.
struct TimedPhase {
  std::vector<double> rates;  // runs / round wall time
  // Per-round nearest-rank percentiles of the runs' host time.
  std::vector<double> p50;
  std::vector<double> p99;
  std::array<std::vector<double>, kNumSystems> system_p50;
  size_t samples = 0;     // runs timed
  size_t thin_tails = 0;  // round percentiles with too few samples beyond them
  double busy_us = 0;     // summed per-run host time
  double capacity_s = 0;  // summed round wall time x workers

  double CasesPerSecond() const { return Median(rates); }

  void AddPercentile(std::vector<double> values, double p, std::vector<double>* out) {
    const Percentile percentile = NearestRank(std::move(values), p);
    thin_tails += percentile.ok ? 0 : 1;
    out->push_back(percentile.value);
  }
};

TimedPhase RunTimed(const Plan& plan, int workers, double seconds,
                    const std::vector<Digests>& reference, Gate* gate,
                    SetupSampler* setups = nullptr) {
  TimedPhase phase;
  const Clock::time_point start = Clock::now();
  do {
    const Round round = RunRound(plan, workers);
    gate->Judge(plan, round.results, reference, "timed round");
    phase.capacity_s += round.wall_s * round.workers;
    std::vector<double> all;
    std::array<std::vector<double>, kNumSystems> by_system;
    for (size_t i = 0; i < round.results.size(); ++i) {
      for (const neat::CaseResult& result : round.results[i].cases) {
        if (Skipped(result)) {
          continue;
        }
        phase.busy_us += result.host_micros;
        all.push_back(result.host_micros);
        by_system[static_cast<size_t>(plan.units[i].system)].push_back(result.host_micros);
      }
    }
    phase.rates.push_back(Ratio(static_cast<double>(all.size()), round.wall_s));
    phase.samples += all.size();
    phase.AddPercentile(all, 50, &phase.p50);
    phase.AddPercentile(std::move(all), 99, &phase.p99);
    for (size_t s = 0; s < by_system.size(); ++s) {
      phase.AddPercentile(std::move(by_system[s]), 50, &phase.system_p50[s]);
    }
    if (setups != nullptr) {
      setups->Sample(kSetupsPerRound);
    }
  } while (SecondsSince(start) < seconds);
  return phase;
}

std::vector<Digests> ReferenceDigests(const std::vector<neat::CampaignResult>& round) {
  std::vector<Digests> digests;
  for (const neat::CampaignResult& result : round) {
    digests.push_back(DigestsOf(result));
  }
  return digests;
}

// The reference round: judged on its own, and against the goldens when
// the seed is the default one.
std::vector<neat::CampaignResult> ReferenceRound(const Plan& plan, int workers,
                                                 const Args& args, const Goldens& goldens,
                                                 Gate* gate) {
  std::vector<neat::CampaignResult> round = RunRound(plan, workers).results;
  gate->Judge(plan, round, {}, "reference round");
  if (args.seed == kDefaultSeed && !args.print_goldens) {
    gate->CheckGoldens(args.workload, plan, ReferenceDigests(round), goldens);
  }
  return round;
}

void AddTimingMetrics(const TimedPhase& phase, Metrics* metrics, Gate* gate) {
  if (phase.thin_tails > 0) {
    gate->problems.push_back(std::to_string(phase.thin_tails) +
                             " round percentile(s) had fewer than " +
                             std::to_string(kMinTailSamples) + " samples beyond them");
  }
  metrics->Add("cases_per_s", phase.CasesPerSecond(), "runs/s");
  metrics->Add("case_us_p50", Median(phase.p50), "us");
  metrics->Add("case_us_p99", Median(phase.p99), "us");
  for (size_t s = 0; s < kSystems.size(); ++s) {
    metrics->Add(std::string(kSystems[s]) + ".case_us_p50", Median(phase.system_p50[s]), "us");
  }
  std::printf("timing samples: %zu runs in %zu rounds; each latency is the median over the "
              "rounds of the round's nearest-rank percentile\n",
              phase.samples, phase.rates.size());
}

// guided.* ratios and the coverage-map admission cost, from the reference
// round's campaign results.
void AddCampaignMetrics(const std::vector<neat::CampaignResult>& reference, const Plan& plan,
                        Metrics* metrics) {
  uint64_t corpus = 0;
  uint64_t runs = 0;
  uint64_t skipped = 0;
  uint64_t mutants = 0;
  double first_hits = 0;
  int hit_units = 0;
  double add_us = 0;
  uint64_t adds = 0;
  for (size_t i = 0; i < reference.size(); ++i) {
    const neat::CampaignResult& result = reference[i];
    neat::CoverageMap map;
    for (const neat::CaseResult& run : result.cases) {
      const Clock::time_point start = Clock::now();
      map.Add(run.coverage);
      add_us += SecondsSince(start) * 1e6;
      ++adds;
    }
    if (!result.guided.enabled) {
      continue;
    }
    corpus += result.guided.corpus.size();
    runs += result.cases_run;
    skipped += result.guided.duplicates_skipped;
    mutants += result.guided.mutants_run;
    for (const neat::CaseResult& run : result.cases) {
      if (run.signature.find(plan.units[i].needle) != std::string::npos && run.found_failure) {
        first_hits += static_cast<double>(run.case_index);
        ++hit_units;
        break;
      }
    }
  }
  metrics->Add("coverage.map_add_us", Ratio(add_us, static_cast<double>(adds)), "us");
  metrics->Add("guided.admit_ratio", AdmitRatio(corpus, runs), "ratio");
  metrics->Add("guided.duplicate_ratio", DuplicateRatio(skipped, mutants), "ratio");
  metrics->Add("guided.first_hit_index", Ratio(first_hits, hit_units), "runs");
}

void AddLayerMetrics(const Tracer& tracer, Metrics* metrics) {
  const std::array<SystemLayers, kNumSystems> layers = tracer.Layers();
  SystemLayers all;
  for (int s = 0; s < kNumSystems; ++s) {
    const SystemLayers& l = layers[static_cast<size_t>(s)];
    all.Merge(l);
    const std::string p = std::string(kSystems[static_cast<size_t>(s)]) + ".";
    const auto cases = static_cast<double>(l.cases);
    metrics->Add(p + "runner.boot_us", Ratio(l.boot_us, static_cast<double>(l.boots)), "us");
    metrics->Add(p + "runner.apply_us", Ratio(l.apply_us, static_cast<double>(l.applies)), "us");
    metrics->Add(p + "runner.finish_us", Ratio(l.finish_us, static_cast<double>(l.finishes)),
                 "us");
    metrics->Add(p + "sim.events_per_case", Ratio(static_cast<double>(l.sim_events), cases),
                 "count");
    metrics->Add(p + "sim.ns_per_event",
                 Ratio((l.boot_us + l.apply_us + l.finish_us) * 1e3,
                       static_cast<double>(l.sim_events)),
                 "ns");
    metrics->Add(p + "net.sent_per_case", Ratio(static_cast<double>(l.net_sent), cases), "count");
    metrics->Add(p + "net.delivered_ratio",
                 Ratio(static_cast<double>(l.net_delivered), static_cast<double>(l.net_sent)),
                 "ratio");
    metrics->Add(p + "net.dropped_per_case", Ratio(static_cast<double>(l.net_dropped), cases),
                 "count");
    metrics->Add(p + "trace.records_per_case", Ratio(static_cast<double>(l.trace_records), cases),
                 "count");
    metrics->Add(p + "check.all_us", Ratio(l.check_all_us, static_cast<double>(l.finishes)), "us");
    metrics->Add(p + "coverage.fold_us", Ratio(l.fold_us, static_cast<double>(l.finishes)), "us");
  }
  const auto cases = static_cast<double>(all.cases);
  const auto finishes = static_cast<double>(all.finishes);
  const neat::ForkStats fork = tracer.ForkTotals();
  metrics->Add("runner.boot_per_case", Ratio(static_cast<double>(all.boots), cases), "ratio");
  metrics->Add("runner.finish_share", Ratio(all.finish_us, all.case_us), "ratio");
  metrics->Add("sim.retained_events_peak", static_cast<double>(all.retained_peak), "count");
  metrics->Add("check.history_ops_per_case", Ratio(static_cast<double>(all.history_ops), finishes),
               "count");
  metrics->Add("check.linearizability_us", Ratio(all.linearizability_us, finishes), "us");
  metrics->Add("coverage.features_per_case", Ratio(static_cast<double>(all.features), finishes),
               "count");
  metrics->Add("fork.snapshot_us", Ratio(all.snapshot_us, static_cast<double>(all.snapshots)),
               "us");
  metrics->Add("fork.restore_us", Ratio(all.restore_us, static_cast<double>(all.restores)), "us");
  metrics->Add("fork.reuse_ratio", ReuseRatio(fork.events_forked_over, fork.events_applied),
               "ratio");
  metrics->Add("fork.snapshots_per_case", Ratio(static_cast<double>(all.snapshots), cases),
               "count");
  metrics->Add("fork.invalidated_per_case",
               Ratio(static_cast<double>(fork.snapshots_invalidated), cases), "count");
}

int Run(const Args& args) {
  const int nproc = Nproc();
  const int workers = std::min(kMaxWorkers, nproc);
  std::printf("# perfbench {\"rev\": \"%s\", \"nproc\": %d, \"compiler\": \"%s\", "
              "\"build_type\": \"%s\", \"workers\": %d, \"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %g, \"trace\": %d}\n",
              args.rev.c_str(), nproc, Compiler().c_str(), PERFBENCH_BUILD_TYPE, workers,
              WorkloadName(args.workload), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::fflush(stdout);

  Goldens goldens;
  if (args.seed == kDefaultSeed && !args.print_goldens && !ReadGoldens(args.goldens, &goldens)) {
    std::fprintf(stderr, "perfbench: cannot read goldens %s\n", args.goldens.c_str());
    return 2;
  }

  PlanOptions options;
  options.corpus_dir = args.corpus;
  options.seed = args.seed;
  Gate gate;
  Metrics metrics;

  SetupSampler setups(args.workload, options);
  const Plan plan = BuildPlan(args.workload, options);
  const std::vector<neat::CampaignResult> reference =
      ReferenceRound(plan, workers, args, goldens, &gate);
  const std::vector<Digests> reference_digests = ReferenceDigests(reference);
  if (args.print_goldens) {
    for (size_t i = 0; i < plan.units.size(); ++i) {
      std::printf("%s\n", GoldenLine(args.workload, plan.units[i], reference_digests[i]).c_str());
    }
    return gate.passed() ? 0 : 1;
  }

  if (!args.trace) {
    const TimedPhase phase =
        RunTimed(plan, workers, args.seconds, reference_digests, &gate, &setups);
    AddTimingMetrics(phase, &metrics, &gate);
    metrics.Add("setup_s", setups.SetupSeconds(), "s");
    metrics.Add("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    // The same round through the decorated runners: its verdicts must
    // equal the untraced reference's.
    Tracer tracer;
    PlanOptions traced_options = options;
    traced_options.tracer = &tracer;
    const Plan traced = BuildPlan(args.workload, traced_options);
    gate.Judge(traced, RunRound(traced, workers).results, reference_digests, "traced reference round");
    tracer.Reset();

    // The run's seconds split 30/30/40 between the untraced phase, the
    // traced phase and the three scaling rows, so a traced run takes about
    // as long as an untraced one.
    const double phase_s = 0.3 * args.seconds;
    const TimedPhase untraced_phase =
        RunTimed(plan, workers, phase_s, reference_digests, &gate, &setups);
    const TimedPhase traced_phase = RunTimed(traced, workers, phase_s, reference_digests, &gate);
    AddLayerMetrics(tracer, &metrics);
    AddCampaignMetrics(reference, plan, &metrics);
    metrics.Add("pool.busy_share",
                BusyShare(untraced_phase.busy_us, untraced_phase.capacity_s, 1), "ratio");
    metrics.Add("pool.idle_s", IdleSeconds(untraced_phase.busy_us, untraced_phase.capacity_s, 1),
                "s");
    metrics.Add("scenario.parse_us", setups.ParseMicros(), "us");
    metrics.Add("testgen.count_us", setups.CountMicros(), "us");
    metrics.Add("untraced.cases_per_s", untraced_phase.CasesPerSecond(), "runs/s");
    metrics.Add("traced.cases_per_s", traced_phase.CasesPerSecond(), "runs/s");
    metrics.Add("traced.overhead_share",
                1 - Ratio(traced_phase.CasesPerSecond(), untraced_phase.CasesPerSecond()),
                "ratio");

    // sweep at 1, 2 and 4 workers.
    const bool is_sweep = args.workload == Workload::kSweep;
    const Plan sweep_plan = is_sweep ? Plan{} : BuildPlan(Workload::kSweep, options);
    const Plan& scaling_plan = is_sweep ? plan : sweep_plan;
    const std::vector<Digests> scaling_reference = is_sweep ? reference_digests
                                                            : std::vector<Digests>{};
    for (const int scaled : {1, 2, 4}) {
      const TimedPhase phase = RunTimed(scaling_plan, scaled,
                                        std::max(1.0, 0.4 * args.seconds / 3), scaling_reference,
                                        &gate);
      const std::string prefix = "scaling.w" + std::to_string(scaled) + ".";
      metrics.Add(prefix + "cases_per_s", phase.CasesPerSecond(), "runs/s");
      metrics.Add(prefix + "busy_share", BusyShare(phase.busy_us, phase.capacity_s, 1), "ratio");
    }
    if (!args.spans_out.empty()) {
      if (tracer.WriteSpans(args.spans_out)) {
        std::printf("spans: %llu kept, %llu dropped past the cap, written to %s\n",
                    static_cast<unsigned long long>(tracer.SpansKept()),
                    static_cast<unsigned long long>(tracer.SpansDropped()),
                    args.spans_out.c_str());
      } else {
        gate.problems.push_back("cannot write spans to " + args.spans_out);
      }
    }
    gate.CountExceptions(traced);
    if (!is_sweep) {
      gate.CountExceptions(sweep_plan);
    }
  }
  gate.CountExceptions(plan);

  metrics.PrintTable(args.trace ? "per-layer metrics (traced run)" : "end-to-end metrics");
  std::printf("  %-36s %18llu runs (of %llu attempted)\n", "runs_failed",
              static_cast<unsigned long long>(gate.failed),
              static_cast<unsigned long long>(gate.attempted));
  std::fflush(stdout);
  for (const std::string& problem : gate.problems) {
    std::fprintf(stderr, "perfbench: GATE: %s\n", problem.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              gate.passed() ? "true" : "false", static_cast<unsigned long long>(gate.attempted),
              static_cast<unsigned long long>(gate.failed), metrics.Json().c_str());
  return gate.passed() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: neat_perfbench --workload sweep|guided|deep [--seed N] [--seconds S] "
                 "[--trace 0|1] [--corpus DIR] [--goldens FILE] [--rev REV] "
                 "[--spans-out FILE] [--print-goldens]\n");
    return 2;
  }
  try {
    return perfbench::Run(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 2;
  }
}
