#include "tracing.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "check/checkers.h"
#include "check/linearizability.h"
#include "neat/coverage.h"
#include "neat/env.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

std::atomic<uint64_t> g_next_tracer_id{1};

// The executor call the current thread is inside, if any; runner spans
// take their case id and parent from it.
struct CaseContext {
  uint64_t span_id = 0;
  double retime_us = 0;  // post-Finish re-timing, left out of the case time
};
thread_local CaseContext* t_case = nullptr;

double MicrosBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - start).count();
}

// Simulator, network and trace counters of one environment. Restore rewinds
// most of them, so only deltas across a single call are meaningful.
struct Counters {
  uint64_t events = 0;
  uint64_t sent = 0;
  uint64_t delivered = 0;
  uint64_t dropped = 0;
  uint64_t records = 0;

  static Counters Of(neat::TestEnv& env) {
    sim::Simulator& simulator = env.simulator();
    net::Network& network = env.network();
    return Counters{simulator.events_executed(), network.messages_sent(),
                    network.messages_delivered(), network.messages_dropped(),
                    simulator.Trace().appended()};
  }
};

void AddDelta(SystemLayers& layers, const Counters& before, const Counters& after) {
  layers.sim_events += after.events - before.events;
  layers.net_sent += after.sent - before.sent;
  layers.net_delivered += after.delivered - before.delivered;
  layers.net_dropped += after.dropped - before.dropped;
  layers.trace_records += after.records - before.records;
}

// Times one call and records it as a span under the current case.
class ScopedSpan {
 public:
  ScopedSpan(const Tracer& tracer, const char* name)
      : tracer_(tracer), log_(tracer.Log()), start_(Clock::now()) {
    span_.name = name;
    span_.id = (static_cast<uint64_t>(log_.thread) + 1) << 40 | ++log_.next_span;
    if (t_case != nullptr) {
      span_.case_id = t_case->span_id;
      span_.parent = t_case->span_id;
    }
    span_.thread = log_.thread;
    span_.start_ns = tracer_.NowNs();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Ends the span; returns its duration in microseconds.
  double End() {
    const Clock::time_point end = Clock::now();
    span_.end_ns = tracer_.NowNs();
    tracer_.Record(log_, span_);
    return MicrosBetween(start_, end);
  }

  Tracer::ThreadLog& log() { return log_; }

 private:
  const Tracer& tracer_;
  Tracer::ThreadLog& log_;
  Clock::time_point start_;
  Span span_;
};

class TimedRunner : public neat::CaseRunner {
 public:
  TimedRunner(std::unique_ptr<neat::CaseRunner> inner, const Tracer& tracer, int system)
      : inner_(std::move(inner)), tracer_(tracer), system_(system) {}

  neat::TestEnv& Env() override { return inner_->Env(); }
  neat::ISystem* System() override { return inner_->System(); }

  void ApplyEvent(const neat::TestEvent& event) override {
    ScopedSpan span(tracer_, "runner.apply");
    const Counters before = Counters::Of(Env());
    inner_->ApplyEvent(event);
    const Counters after = Counters::Of(Env());
    const double us = span.End();
    SystemLayers& layers = span.log().layers[static_cast<size_t>(system_)];
    ++layers.applies;
    layers.apply_us += us;
    AddDelta(layers, before, after);
    layers.retained_peak = std::max<uint64_t>(layers.retained_peak,
                                              Env().simulator().retained_events());
  }

  neat::ExecutionResult Finish(const neat::TestCase& test_case) override {
    neat::TestEnv& env = Env();
    neat::ExecutionResult result;
    {
      ScopedSpan span(tracer_, "runner.finish");
      SystemLayers& layers = span.log().layers[static_cast<size_t>(system_)];
      layers.retained_peak =
          std::max<uint64_t>(layers.retained_peak, env.simulator().retained_events());
      const Counters before = Counters::Of(env);
      result = inner_->Finish(test_case);
      const Counters after = Counters::Of(env);
      const double us = span.End();
      ++layers.finishes;
      layers.finish_us += us;
      layers.features += result.coverage.size();
      AddDelta(layers, before, after);
    }
    Retime(env);
    return result;
  }

  std::unique_ptr<neat::SystemState> Snapshot() const override {
    ScopedSpan span(tracer_, "fork.snapshot");
    std::unique_ptr<neat::SystemState> state = inner_->Snapshot();
    const double us = span.End();
    SystemLayers& layers = span.log().layers[static_cast<size_t>(system_)];
    ++layers.snapshots;
    layers.snapshot_us += us;
    return state;
  }

  void Restore(const neat::SystemState& state) override {
    ScopedSpan span(tracer_, "fork.restore");
    inner_->Restore(state);
    const double us = span.End();
    SystemLayers& layers = span.log().layers[static_cast<size_t>(system_)];
    ++layers.restores;
    layers.restore_us += us;
    fold_from_ = Env().simulator().Trace().size();
  }

 private:
  // Re-runs the checkers and the full-trace coverage fold on the finished
  // run's history and trace, timing each; the results are discarded.
  void Retime(neat::TestEnv& env) {
    const check::History& history = env.history();
    const sim::TraceLog& trace = env.simulator().Trace();
    double retimed = 0;
    size_t sink = 0;
    {
      ScopedSpan span(tracer_, "check.all");
      sink += check::CheckAll(history).size();
      const double us = span.End();
      span.log().layers[static_cast<size_t>(system_)].check_all_us += us;
      retimed += us;
    }
    {
      ScopedSpan span(tracer_, "check.linearizability");
      sink += check::CheckLinearizable(history).linearizable ? 1 : 0;
      const double us = span.End();
      span.log().layers[static_cast<size_t>(system_)].linearizability_us += us;
      retimed += us;
    }
    // A forked run folds only the records appended since its Restore (the
    // runners' incremental trace scan carries the rest in the snapshot), so
    // that suffix is what is re-folded; a fresh runner's run folds it all.
    sim::TraceLog suffix;
    for (size_t i = fold_from_; fold_from_ > 0 && i < trace.records().size(); ++i) {
      const sim::TraceRecord& record = trace.records()[i];
      suffix.Append(record.when, record.component, record.event, record.detail);
    }
    {
      ScopedSpan span(tracer_, "coverage.fold");
      sink += neat::TraceCoverage(fold_from_ > 0 ? suffix : trace).size();
      const double us = span.End();
      SystemLayers& layers = span.log().layers[static_cast<size_t>(system_)];
      layers.fold_us += us;
      layers.history_ops += history.size();
      retimed += us;
    }
    if (t_case != nullptr) {
      t_case->retime_us += retimed;
    }
    sink_ += sink;
  }

  std::unique_ptr<neat::CaseRunner> inner_;
  const Tracer& tracer_;
  const int system_;
  size_t fold_from_ = 0;  // trace length right after the last Restore
  size_t sink_ = 0;       // keeps the re-timed calls observable
};

}  // namespace

void SystemLayers::Merge(const SystemLayers& other) {
  cases += other.cases;
  case_us += other.case_us;
  case_events += other.case_events;
  boots += other.boots;
  boot_us += other.boot_us;
  applies += other.applies;
  apply_us += other.apply_us;
  finishes += other.finishes;
  finish_us += other.finish_us;
  sim_events += other.sim_events;
  net_sent += other.net_sent;
  net_delivered += other.net_delivered;
  net_dropped += other.net_dropped;
  trace_records += other.trace_records;
  retained_peak = std::max(retained_peak, other.retained_peak);
  check_all_us += other.check_all_us;
  linearizability_us += other.linearizability_us;
  history_ops += other.history_ops;
  fold_us += other.fold_us;
  features += other.features;
  snapshots += other.snapshots;
  snapshot_us += other.snapshot_us;
  restores += other.restores;
  restore_us += other.restore_us;
}

Tracer::Tracer() : id_(g_next_tracer_id.fetch_add(1)), origin_(Clock::now()) {}

Tracer::ThreadLog& Tracer::Log() const {
  thread_local uint64_t owner = 0;
  thread_local ThreadLog* log = nullptr;
  if (owner != id_) {
    std::lock_guard<std::mutex> lock(mutex_);
    logs_.push_back(std::make_unique<ThreadLog>());
    log = logs_.back().get();
    log->thread = static_cast<uint32_t>(logs_.size() - 1);
    owner = id_;
  }
  return *log;
}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
}

void Tracer::Record(ThreadLog& log, const Span& span) const {
  if (spans_kept_.load(std::memory_order_relaxed) < kMaxSpans) {
    spans_kept_.fetch_add(1, std::memory_order_relaxed);
    log.spans.push_back(span);
  } else {
    spans_dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

neat::RunnerFactory Tracer::Decorate(neat::RunnerFactory factory, int system) const {
  return [this, factory = std::move(factory), system](uint64_t seed) {
    ScopedSpan span(*this, "runner.boot");
    std::unique_ptr<neat::CaseRunner> inner = factory(seed);
    const double us = span.End();
    SystemLayers& layers = span.log().layers[static_cast<size_t>(system)];
    ++layers.boots;
    layers.boot_us += us;
    AddDelta(layers, Counters{}, Counters::Of(inner->Env()));
    return std::unique_ptr<neat::CaseRunner>(
        std::make_unique<TimedRunner>(std::move(inner), *this, system));
  };
}

neat::CaseExecutor Tracer::WrapCase(neat::CaseExecutor executor, int system) const {
  return [this, executor = std::move(executor), system](const neat::TestCase& test_case,
                                                        uint64_t seed) {
    ThreadLog& log = Log();
    Span span;
    span.name = "case";
    span.id = (static_cast<uint64_t>(log.thread) + 1) << 40 | ++log.next_span;
    span.case_id = span.id;
    span.thread = log.thread;
    CaseContext context;
    context.span_id = span.id;
    // Restores the enclosing context even when the executor throws.
    struct Scope {
      CaseContext* saved;
      explicit Scope(CaseContext* next) : saved(t_case) { t_case = next; }
      ~Scope() { t_case = saved; }
    } scope(&context);
    span.start_ns = NowNs();
    const Clock::time_point start = Clock::now();
    neat::ExecutionResult result = executor(test_case, seed);
    const Clock::time_point end = Clock::now();
    span.end_ns = NowNs();
    Record(log, span);
    SystemLayers& layers = log.layers[static_cast<size_t>(system)];
    ++layers.cases;
    layers.case_us += MicrosBetween(start, end) - context.retime_us;
    layers.case_events += test_case.size();
    return result;
  };
}

neat::CaseExecutor Tracer::ForkingExecutor(const neat::RunnerFactory& factory, int system) const {
  auto stats = std::make_shared<neat::ForkStats>();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    fork_stats_.push_back(stats);
  }
  return WrapCase(neat::ForkingCaseExecutor(Decorate(factory, system), neat::ForkOptions{}, stats),
                  system);
}

neat::SessionFactory Tracer::ForkingSessions(const neat::RunnerFactory& factory,
                                             int system) const {
  return [this, factory, system] { return ForkingExecutor(factory, system); };
}

std::array<SystemLayers, kNumSystems> Tracer::Layers() const {
  std::array<SystemLayers, kNumSystems> total;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const std::unique_ptr<ThreadLog>& log : logs_) {
    for (size_t s = 0; s < total.size(); ++s) {
      total[s].Merge(log->layers[s]);
    }
  }
  return total;
}

neat::ForkStats Tracer::ForkTotals() const {
  neat::ForkStats total;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const std::shared_ptr<neat::ForkStats>& stats : fork_stats_) {
    total.cases_run += stats->cases_run;
    total.fresh_runners += stats->fresh_runners;
    total.forked_runs += stats->forked_runs;
    total.events_applied += stats->events_applied;
    total.events_forked_over += stats->events_forked_over;
    total.snapshots_taken += stats->snapshots_taken;
    total.snapshots_evicted += stats->snapshots_evicted;
    total.snapshots_invalidated += stats->snapshots_invalidated;
  }
  return total;
}

void Tracer::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::unique_ptr<ThreadLog>& log : logs_) {
    log->layers = {};
    log->spans.clear();
  }
  fork_stats_.clear();
  spans_kept_ = 0;
  spans_dropped_ = 0;
}

bool Tracer::WriteSpans(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  for (const std::unique_ptr<ThreadLog>& log : logs_) {
    for (const Span& span : log->spans) {
      std::fprintf(out,
                   "{\"case\":%llu,\"id\":%llu,\"parent\":%llu,\"name\":\"%s\","
                   "\"start_ns\":%lld,\"end_ns\":%lld,\"thread\":%u}\n",
                   static_cast<unsigned long long>(span.case_id),
                   static_cast<unsigned long long>(span.id),
                   static_cast<unsigned long long>(span.parent), span.name,
                   static_cast<long long>(span.start_ns), static_cast<long long>(span.end_ns),
                   span.thread);
    }
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
